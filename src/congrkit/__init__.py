"""Exact arithmetic for two families of binomial-sum numbers and the
divisibility, congruence and q-polynomial checks built around them.

Everything is computed over the integers and rationals (and over Z[q] for
the q-analogues); no floating point is involved anywhere.
"""

__version__ = "0.1.0"

from .result import (
    FAIL,
    ILL_POSED,
    INCONCLUSIVE,
    PASS,
    CheckResult,
    summarize,
)

__all__ = [
    "__version__",
    "PASS",
    "FAIL",
    "ILL_POSED",
    "INCONCLUSIVE",
    "CheckResult",
    "summarize",
    "R",
    "S",
    "R_poly",
    "S_poly",
    "S_m_poly",
]

_LAZY_EXPORTS = ("R", "R_poly", "S", "S_poly", "S_m_poly")


def __getattr__(name: str):
    # the sequence exports import congrkit.sequences on first access, so a
    # command that never reads them never compiles it
    if name in _LAZY_EXPORTS:
        from . import sequences

        return getattr(sequences, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
