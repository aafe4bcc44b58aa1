"""The difference-kernel framework of Section 4: the checkers of thm41,
cor41, thm42, thm43, thm44 and lemma42.

Each theorem sums a kernel's difference form (kernels.delta, or the signed
kernels.bar) against products of binomial rows and claims divisibility or
integrality of the total.  A kernel arrives as a kernels.KernelSpec, so a
new kernel is a grid entry, not new code; a kernel outside a theorem's
hypotheses is a ValueError, never a FAIL.  cor41 checks fixed-weight
specializations of thm41, and lemma42 the quadratic-pair transform
identity (4.16).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from .exactnum import binomial
from .kernels import (
    KernelSpec,
    bar,
    central_times_kernel_in_Z,
    central_times_kernel_in_kZ,
    delta,
    kernel_power_divisible,
)
from .result import FAIL, PASS, CheckResult, _divisibility, equal, show, verdict
from .sequences import _binom_row, _exact_div, _mixed_row, _pair_rows
from .sequences import _row_product, _weighted

__all__ = [
    "check_thm41",
    "check_cor41",
    "check_thm42",
    "check_thm43",
    "check_thm44",
    "check_lemma42",
]


# -- generic difference-kernel framework ----------------------------------------


def _int_values(values: Sequence[Fraction], what: str) -> list[int]:
    out = []
    for v in values:
        if v.denominator != 1:
            raise ValueError("%s must be integer-valued" % what)
        out.append(v.numerator)
    return out


def _shifted_rows(
    name: str, n: int, a_list: Sequence[int], b_list: Sequence[int]
) -> tuple[int, list[int]]:
    """gcd(n, a_list, b_list) and the products over the pairs (a, b) of the
    shifted rows binomial(a - 1, b + k), k < n; name prefixes a ValueError."""
    m = len(a_list)
    if n < 1 or m < 1 or len(b_list) != m:
        raise ValueError("%s: need n >= 1 and matching parameter lists" % name)
    if any(b < 0 for b in b_list):
        raise ValueError("%s: shifts must be nonnegative" % name)
    d = math.gcd(n, *a_list, *b_list)
    return d, _row_product(_binom_row(a - 1, b + n)[b:] for a, b in zip(a_list, b_list))


def check_thm41(
    n: int, kernel: KernelSpec, a_list: Sequence[int], b_list: Sequence[int]
) -> CheckResult:
    """Signed-difference kernel sums over shifted binomial products vanish
    mod the common gcd, and mod its square for doubly divisible kernels."""
    d, rows = _shifted_rows("check_thm41", n, a_list, b_list)
    m = len(a_list)
    if not kernel_power_divisible(kernel, n - 1, 1, m):
        raise ValueError("check_thm41: kernel must be integer-valued with k | f(k)")
    bars = _int_values([bar(kernel, k, m) for k in range(n)], "check_thm41: kernel")
    total = sum(bars[k] * rows[k] for k in range(n))
    claims = [("gcd congruence", total, d)]
    if kernel_power_divisible(kernel, n - 1, 2, m):
        inner = sum(
            _exact_div(int(kernel.value(k, m)), k) * rows[k] for k in range(1, n)
        )
        rhs = (-1 if m % 2 else 1) * sum(a_list) * inner
        claims.append(("gcd-square congruence", total - rhs, d * d))
    return _divisibility(claims)


def check_cor41(
    n: int, a_list: Sequence[int], b_list: Sequence[int]
) -> CheckResult:
    """Five fixed-weight specializations of the difference-kernel congruence."""
    d, rows = _shifted_rows("check_cor41", n, a_list, b_list)
    twist = len(a_list) % 2  # (-1)^(km) is (-1)^k for odd m
    factor = math.gcd(sum(a_list) // d - 1, 2)
    claims = [
        ("plain alternating", _weighted(rows, "unit", twist), d),
        ("odd weight, plus", _weighted(rows, "odd"), d),
        ("odd weight, minus", _weighted(rows, "odd", 1), d),
        ("cubic weight, plus", _weighted(rows, "cubic"), d),
        ("cubic weight, minus", _weighted(rows, "cubic", 1), d),
        ("gcd-weighted odd", factor * _weighted(rows, "odd", twist), d * d),
        ("six-fold stepped cube", 6 * _weighted(rows, "stepcube", twist), d * d),
    ]
    return _divisibility(claims)


def check_thm42(n: int, kernel: KernelSpec, a_list: Sequence[int]) -> CheckResult:
    """Plain-difference kernel sums over symmetric pair products, mod n^3."""
    if n < 1 or not a_list:
        raise ValueError("check_thm42: need n >= 1 and a nonempty a_list")
    if kernel.needs_m():
        raise ValueError("check_thm42: kernel sign must not depend on the factor count")
    if not kernel_power_divisible(kernel, n - 1, 3):
        raise ValueError("check_thm42: kernel must satisfy k^3 | f(k)")
    rows = _pair_rows(n, a_list)
    deltas = _int_values([delta(kernel, k) for k in range(n)], "check_thm42: kernel")
    lhs = sum(deltas[k] * rows[k] for k in range(n))
    inner = sum(
        _exact_div(int(kernel.value(k)), k * k) * rows[k] for k in range(1, n)
    )
    rhs = n * n * sum(a * a for a in a_list) * inner
    return _divisibility([("cube congruence", lhs - rhs, n**3)])


def check_thm43(
    n: int, kernel: KernelSpec, a_list: Sequence[int], strength: str
) -> CheckResult:
    """Difference sums against symmetric pair products are integers, or
    integer multiples of n for the k-scaled kernel class.  The underlying
    per-term divisibility of the pair ratio by n is asserted alongside."""
    if n < 1 or not a_list:
        raise ValueError("check_thm43: need n >= 1 and a nonempty a_list")
    if any(a < 1 for a in a_list) or min(a_list) != 1:
        raise ValueError("check_thm43: a_list must be positive with minimum 1")
    if kernel.needs_m():
        raise ValueError("check_thm43: kernel sign must not depend on the factor count")
    hypotheses = {
        "integral": (central_times_kernel_in_Z, "be an integer"),
        "over_n": (central_times_kernel_in_kZ, "lie in kZ"),
    }
    if strength not in hypotheses:
        raise ValueError("check_thm43: unknown strength %r" % (strength,))
    holds, wording = hypotheses[strength]
    if not holds(kernel, n):
        raise ValueError("check_thm43: kernel times the central ratio must " + wording)
    pairs = _row_product((_binom_row(n, n + 1), _binom_row(-n, n + 1)))
    for k, c in enumerate(pairs):
        ratio = Fraction(k * c, binomial(2 * k - 1, k))
        if ratio.denominator != 1 or ratio.numerator % n:
            return CheckResult(
                FAIL,
                lhs=show(ratio),
                rhs="0",
                modulus=str(n),
                witness={"claim": "pair ratio divisibility", "k": k},
            )
    rows = _pair_rows(n, a_list)
    total = sum(delta(kernel, k) * rows[k] for k in range(n))
    if total.denominator != 1:
        return CheckResult(
            FAIL,
            lhs=show(total),
            rhs="integer",
            witness={"claim": "integrality"},
        )
    if strength == "over_n" and total.numerator % n:
        return CheckResult(
            FAIL,
            lhs=show(total.numerator),
            rhs="0",
            modulus=str(n),
            witness={"claim": "divisibility by n"},
        )
    return CheckResult(PASS, lhs=show(total.numerator), modulus=str(n))


def check_thm44(n: int, a: int, b: int, kernel: KernelSpec) -> CheckResult:
    """Signed-difference sums against asymmetric mixed powers are integers."""
    if n < 1 or a < 1 or b < 1:
        raise ValueError("check_thm44: need n, a, b >= 1")
    m = a + b
    if not central_times_kernel_in_Z(kernel, n, m):
        raise ValueError(
            "check_thm44: kernel times the central ratio must be an integer"
        )
    row = _mixed_row(n, a, b)
    total = sum(bar(kernel, k, m) * row[k] for k in range(n))
    ok = total.denominator == 1
    lhs = show(total)
    return verdict(ok, lhs, lhs if ok else "integer", "", {"claim": "integrality"})


def check_lemma42(n: int, a_seq: Sequence[Union[int, Fraction]]) -> CheckResult:
    """Quadratic-pair transform identity: the odd-weighted prefix of the
    transformed sequence, scaled by 1/n^2, equals the odd-reciprocal sum of
    the original sequence against squared mixed rows."""
    if n < 1 or len(a_seq) < n:
        raise ValueError("check_lemma42: need n >= 1 and at least n entries")
    seq = [Fraction(v) for v in a_seq[:n]]
    lhs = Fraction(0)
    for j in range(n):
        tilde = sum(
            binomial(j, k) ** 2 * binomial(j + k, k) ** 2 * seq[k]
            for k in range(j + 1)
        )
        lhs += (2 * j + 1) * tilde
    lhs /= n * n
    rhs = sum(
        seq[k]
        * Fraction(binomial(n - 1, k) ** 2 * binomial(n + k, k) ** 2, 2 * k + 1)
        for k in range(n)
    )
    return equal(lhs, rhs, {"difference": show(lhs - rhs)})
