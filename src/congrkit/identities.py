"""Closed-form identities: the checkers of remark11, lemma22 and lemma23.

Each family is an exact equality between a finite sum and its closed form,
decided over the integers and rationals with no modulus: remark11 the
offset ratio sum at base 16, lemma22 the weighted central-square
polynomial, lemma23 the signed pair-over-central ratio.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import binomial
from .polynomials import Poly
from .result import CheckResult, equal, show, verdict
from .sequences import _central_rows, ratio_sum

__all__ = ["check_remark11", "check_lemma22", "check_lemma23"]


def check_remark11(n: int, d: int) -> CheckResult:
    """Closed form of the offset ratio sum at base 16."""
    if n < 0 or d < 0:
        raise ValueError("check_remark11: need n, d >= 0")
    lhs = ratio_sum(n, d, 16)
    rhs = Fraction(
        (2 * n + 1) * binomial(2 * n, n) * binomial(2 * n, n + d),
        (4 * d * d - 1) * 16**n,
    )
    return equal(lhs, rhs, {"difference": show(lhs - rhs)})


def check_lemma22(n: int) -> CheckResult:
    """The weighted central-square polynomial collapses to a constant."""
    if n < 0:
        raise ValueError("check_lemma22: need n >= 0")
    central, over = _central_rows(n)
    coeffs = [0] * (n + 2)
    for k in range(n + 1):
        w = central[k] * over[k]
        coeffs[n - k] += (16 * k * k - 4) * w
        coeffs[n - k + 1] -= k * k * w
    lhs = Poly(coeffs)
    rhs = Poly.const(
        Fraction(4 * (n + 1) ** 2, 2 * n + 1) * binomial(2 * n + 1, n) ** 2
    )
    return equal(lhs, rhs, {"difference": show(lhs - rhs)})


def check_lemma23(n: int, k: int) -> CheckResult:
    """Signed pair-over-central ratio equals both closed forms."""
    if n < 0 or k < 1:
        raise ValueError("check_lemma23: need n >= 0 and k >= 1")
    sign = -1 if k % 2 else 1
    first = Fraction(
        sign * binomial(n, k) * binomial(-n, k), binomial(2 * k - 1, k)
    )
    second = Fraction(2 * n, n + k) * binomial(n + k, 2 * k)
    third = binomial(n + k, 2 * k) + binomial(n + k - 1, 2 * k)
    witness = {"middle": show(second)}
    return verdict(first == second == third, show(first), show(third), "", witness)
