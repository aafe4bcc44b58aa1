"""Theorem 1.5 displays: the checkers of thm15i, thm15ii, remark13 and
xval15.

The display families of Theorem 1.5 are decided fraction-free.  thm15ii
and xval15 read each of the ten display weights w[k] as integers
D_n w[k], where D_n is the lcm of the weight denominators for k < n; the
table is cached per (n, m mod 2), because the weights read m only through
its parity.  A display sum with integer numerator N is integral exactly
when D_n n | N for the four displays scaled by 1/n, and D_n | N for the
other six.  xval15 matches each weight w[k] with c kval[k] + corr [k = 0]
once per (k, m mod 2), and compares no sums: once every term matches, the
display sum is c times the kernel sum plus corr row[0] for any row, by
linearity, so a and b matter only through the parity of m.
thm15i asks for divisibility by n, n^2 or n^3, all divisors of n^3, so its
pattern rows are reduced mod n^3 before they are multiplied, and each
multiset of grid values is decided once, since reordering a pattern
changes none of its claims; a FAIL recomputes the failing pattern's claims
from exact rows, so the report shows the exact value.  Only a FAIL row
builds Fractions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .exactnum import _dot, _memo_cache
from .kernels import PAPER_KERNELS, bar, delta
from .result import FAIL, PASS, CheckResult, _divisibility, equal, show, verdict
from .sequences import _binom_row, _central_rows, _mixed_row
from .sequences import _pair_rows, _row_product, _weighted

__all__ = [
    "check_thm15_i",
    "check_thm15_i_grid",
    "check_thm15_ii",
    "check_remark13",
    "check_xval15",
]


# -- product-sum congruences with plain and paired rows -------------------------

_GRID_VALUES = tuple(a for a in range(-3, 4) if a)


@_memo_cache(maxsize=4)
def _grid_products(
    m: int, n: int
) -> list[tuple[tuple[int, ...], list[int], list[int]]]:
    """Per multiset of m values from the +-3 grid, in the order of its first
    sign pattern: that pattern, its row product, and that times the row
    product of the negated pattern; both rows mod n^3.

    A claim reads a pattern only through these rows, sum(a_list) and m, so
    every reordering of a pattern makes the same claims."""
    cube = n**3
    base = {a: [c % cube for c in _binom_row(a * n - 1, n)] for a in _GRID_VALUES}
    plain = {}
    for tup in itertools.product(_GRID_VALUES, repeat=m):
        key = tuple(sorted(tup))
        if key not in plain:
            row = [c % cube for c in _row_product(base[a] for a in key)]
            plain[key] = (tup, row)
    out = []
    for key, (tup, row) in plain.items():
        negated = plain[tuple(-a for a in reversed(key))][1]
        out.append((tup, row, [x * y % cube for x, y in zip(row, negated)]))
    return out


def _thm15_claims(
    variant: str,
    n: int,
    a_list: Sequence[int],
    plain: Sequence[int],
    paired: Sequence[int],
) -> list[tuple[str, int, int]]:
    """(label, value, modulus) per claim, from exact rows or rows mod n^3."""
    twist = len(a_list) % 2  # (-1)^(km) is (-1)^k for odd m
    if variant == "odd_plain":
        return [
            ("plus sign", _weighted(plain, "odd"), n),
            ("minus sign", _weighted(plain, "odd", 1), n),
        ]
    if variant == "cubic_plain":
        return [
            ("plus sign", _weighted(plain, "cubic"), n),
            ("minus sign", _weighted(plain, "cubic", 1), n),
        ]
    if variant == "odd_signed":
        factor = math.gcd(sum(a_list) - 1, 2)
        return [("gcd-weighted", factor * _weighted(plain, "odd", twist), n * n)]
    if variant == "stepcube_signed":
        return [("six-fold", 6 * _weighted(plain, "stepcube", twist), n * n)]
    if variant == "cubic_paired":
        return [("alternating", _weighted(paired, "cubic", 1), n * n)]
    if variant == "stepcube_paired":
        factor = math.gcd(sum(a_list) - 1, 2)
        return [("gcd-weighted", factor * _weighted(paired, "stepcube"), n**3)]
    raise ValueError("check_thm15_i: unknown variant %r" % (variant,))


def _thm15_exact_claims(
    variant: str, n: int, a_list: Sequence[int]
) -> list[tuple[str, int, int]]:
    """The claims from exact rows, as check_thm15_i makes them."""
    plain = _row_product(_binom_row(a * n - 1, n) for a in a_list)
    return _thm15_claims(variant, n, a_list, plain, _pair_rows(n, a_list))


def check_thm15_i(n: int, a_list: Sequence[int], variant: str) -> CheckResult:
    """One product-sum divisibility claim for a single coefficient list."""
    if n < 1 or not a_list:
        raise ValueError("check_thm15_i: need n >= 1 and a nonempty a_list")
    return _divisibility(_thm15_exact_claims(variant, n, a_list))


def check_thm15_i_grid(m: int, n: int, variant: str) -> CheckResult:
    """Aggregate over every sign pattern of the +-3 coefficient grid."""
    if m < 1 or n < 1:
        raise ValueError("check_thm15_i_grid: need m, n >= 1")
    for tup, plain, paired in _grid_products(m, n):
        for label, value, modulus in _thm15_claims(variant, n, tup, plain, paired):
            if value % modulus:
                exact = dict(c[:2] for c in _thm15_exact_claims(variant, n, tup))
                return CheckResult(
                    FAIL,
                    lhs=show(exact[label]),
                    rhs="0",
                    modulus=str(modulus),
                    witness={"a_list": list(tup), "claim": label},
                )
    return CheckResult(
        PASS, lhs="0", rhs="0", note="patterns checked: %d" % len(_GRID_VALUES) ** m
    )


def _triangle(k: int) -> int:
    return (k + 1) * (k + 2) // 2


@_memo_cache()
def _xval_plans(odd: int) -> tuple[tuple[str, str, bool, Fraction, int], ...]:
    """(label, kernel name, uses the signed difference, constant c, k = 0
    correction) per display, for m of parity odd.

    A display on the signed difference sums the mixed row; the other four
    sum the row with b = a and are scaled by 1/n in thm15ii."""
    sign = 1 if odd else -1
    return (
        ("quarter weight", "f1", False, Fraction(-1), 0),
        ("triangle weight", "f3", False, Fraction(1), 0),
        ("alternating quarter weight", "f2", False, Fraction(-1), 0),
        ("alternating triangle weight", "f4", False, Fraction(-1), 0),
        ("mixed quarter weight", "f5", True, Fraction(sign, 2), 0),
        ("mixed quarter k-weight", "f6", True, Fraction(sign, 4), 0),
        ("mixed triangle weight", "f7", True, Fraction(sign), 0),
        ("mixed triangle odd-weight", "f8", True, Fraction(sign), 0),
        ("mixed central weight", "f9", True, Fraction(sign), 1),
        ("mixed central odd-weight", "f10", True, Fraction(sign), 1),
    )


@_memo_cache()
def _xval_weights(k: int, odd: int) -> tuple[Fraction, ...]:
    """The ten display weights at index k, for m of parity odd."""
    alt = -1 if k % 2 else 1  # (-1)^k
    sm = alt if odd else 1  # (-1)^(km)
    sm1 = 1 if odd else alt  # (-1)^(k(m-1))
    quarter = 4 * k * k - 1
    tri = _triangle(k)
    central = (2 * k + 1) * _central_rows(k)[0][k]
    return (
        Fraction(1, quarter),
        Fraction(1, tri),
        alt * (1 + Fraction(2 * k, quarter)),
        alt * (4 - Fraction(2 * k + 3, tri)),
        Fraction(sm, quarter),
        Fraction(sm1 * k, quarter),
        Fraction(sm, tri),
        Fraction(sm1 * (2 * k + 3), tri),
        Fraction(sm * (3 * k + 1), central),
        Fraction(sm1 * (5 * k + 3), central),
    )


@_memo_cache(maxsize=4)
def _display_weights(n: int, odd: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """D_n, the lcm of every display weight denominator at k < n, and per
    display its integer weights D_n w[k]."""
    columns = list(zip(*(_xval_weights(k, odd) for k in range(n))))
    d = math.lcm(*(w.denominator for col in columns for w in col))
    return d, tuple(
        tuple(d // w.denominator * w.numerator for w in col) for col in columns
    )


@_memo_cache()
def _xval_terms(k: int, odd: int) -> tuple[tuple[Fraction, bool], ...]:
    """Per display at index k: the kernel difference, and whether the display
    weight equals c times it plus the k = 0 correction."""
    m = 2 + odd  # kernels read the factor count only through its parity
    out = []
    for (_, kname, signed, c, correction), w in zip(
        _xval_plans(odd), _xval_weights(k, odd)
    ):
        kern = PAPER_KERNELS[kname]
        kval = bar(kern, k, m) if signed else delta(kern, k)
        out.append((kval, w == c * kval + (correction if k == 0 else 0)))
    return tuple(out)


def check_thm15_ii(n: int, a: int, b: int) -> CheckResult:
    """Ten integral mixed-power sums plus one gcd-weighted congruence."""
    if n < 1 or a < 1 or b < 1:
        raise ValueError("check_thm15_ii: need n, a, b >= 1")
    m = a + b
    mixed = _mixed_row(n, a, b)
    same = mixed if a == b else _mixed_row(n, a, a)
    d, weights = _display_weights(n, m % 2)
    for (label, _, signed, _, _), w in zip(_xval_plans(m % 2), weights):
        scale = d if signed else d * n
        total = _dot(w, mixed if signed else same)
        if total % scale:
            return CheckResult(
                FAIL,
                lhs=show(Fraction(total, scale)),
                rhs="integer",
                witness={"claim": label},
            )
    total = math.gcd(m - 1, 2) * _weighted(mixed, "odd", m % 2)
    if total % (n * n):
        return CheckResult(
            FAIL,
            lhs=show(total),
            rhs="0",
            modulus="%d^2" % n,
            witness={"claim": "gcd-weighted odd sum"},
        )
    return CheckResult(
        PASS,
        lhs="0",
        rhs="0",
        modulus="%d^2" % n,
        note="ten integral sums and one congruence",
    )


def check_remark13(n: int) -> CheckResult:
    """Both halves of the -n evaluation, summed from k = 0."""
    if n < 1:
        raise ValueError("check_remark13: need n >= 1")
    first = sum(
        Fraction(c, 4 * k * k - 1) for k, c in enumerate(_pair_rows(n, (1,)))
    )
    pairs = _row_product((_binom_row(n, n + 1), _binom_row(-n, n + 1)))
    second = sum(Fraction(c, 2 * k - 1) for k, c in enumerate(pairs)) / 2
    note = "summed from k = 0; the k = 0 term is -1"
    witness = {"halved sum": show(second)}
    return verdict(first == second == -n, show(first), show(-n), "", witness, note)


# -- display weights versus the kernel catalogue --------------------------------


def check_xval15(n: int, a: int, b: int) -> CheckResult:
    """Every display weight equals a constant multiple of the difference form
    of its catalogued kernel, term by term, so the mixed-power families and
    the generic-kernel runs verify the same sums.

    The two central-denominator kernels pick up a fixed k = 0 correction of
    1: their kernels vanish after differencing at the boundary while the
    display weight does not.
    """
    if n < 1 or a < 1 or b < 1:
        raise ValueError("check_xval15: need n, a, b >= 1")
    odd = (a + b) % 2
    terms = [_xval_terms(k, odd) for k in range(n)]
    for i, (label, _, _, c, correction) in enumerate(_xval_plans(odd)):
        for k in range(n):
            kval, ok = terms[k][i]
            if not ok:
                expected = c * kval + (correction if k == 0 else 0)
                witness = {"display": label, "k": k}
                return equal(_xval_weights(k, odd)[i], expected, witness)
    return CheckResult(
        PASS, note="ten weight families matched against the kernel catalogue"
    )
