"""The checkers of the divisibility and congruence families, under one name.

Each checker lives in the module of its theme, and this module only
re-exports them for library use; the command line and the registry import
the theme modules directly and never load this one.  The re-exports are
served lazily, by a module __getattr__: a checker is found through the
registry row that names it, as "module.function", and the few exported
names without a row through _HOMES.  Its theme module is imported on the
first read of the name, so importing this module loads none of them.

No theme module imports another: the claim helpers they share live in
result and the row and prefix-sum helpers in sequences.

Most checkers evaluate their sums exactly (integers over one common
denominator, or Fractions where denominators vary) and reduce once at the
end.  No checker returns ILL_POSED (result argues why for each caller of
_chain); a denominator a prime power cannot invert would raise
DenominatorNotInvertible, a crash that names the instance.

Each checker, the conjecture scans included, takes its registry grid keys
as keyword arguments and returns its verdict alone: status, compared values,
modulus, witness and note.  ``registry.run_instance`` calls it as
``check(**params)`` and stamps the result with its family and params, so a
direct call leaves CheckResult.family and CheckResult.params empty.  A
checker states its claim; result.verdict turns it into PASS or FAIL, and
result.equal and result.show render the compared values.  Loops that show
only their failing member build that row by hand.

Checkers that aggregate an inner parameter (the offset d of a ratio-sum
family, the index k of a per-term divisibility) return a single
CheckResult whose witness points at the first failing inner instance.
"""

from __future__ import annotations

import importlib

from .registry import FAMILIES

__all__ = [
    "check_thm11",
    "check_thm12",
    "check_remark11",
    "check_thm13",
    "check_thm13_ii",
    "check_thm14_i",
    "check_thm14_ii",
    "check_thm15_i",
    "check_thm15_i_grid",
    "check_thm15_ii",
    "check_remark13",
    "check_xval15",
    "check_cor11",
    "check_lemma22",
    "check_lemma23",
    "check_thm41",
    "check_cor41",
    "check_thm42",
    "check_thm43",
    "check_thm44",
    "check_lemma42",
    "check_remark52",
    "conj53_witness",
    "check_conj51",
    "check_conj52",
    "check_conj54",
    "check_conj55",
    "check_conj56",
    "check_remark53",
    "check_conj58i",
    "kernel_from_descriptor",
    "kernel_descriptor",
    "CONJ52_START",
    "THM15_VARIANTS",
]

# the exported names that no registry row names as a family's checker
_HOMES = {
    "check_thm15_i": "displays",
    "kernel_from_descriptor": "kernels",
    "kernel_descriptor": "kernels",
    "CONJ52_START": "registry",
    "THM15_VARIANTS": "registry",
}


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(importlib.import_module("." + _HOMES[name], __package__), name)
    if name in __all__:
        return next(f.check for f in FAMILIES.values() if f.check.name == name).load()
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
