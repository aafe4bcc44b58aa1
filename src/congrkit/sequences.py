"""Integer sequence and polynomial families built from binomial sums, and
the row and prefix-sum layer that the checker modules share.

Every generator is a direct summation in exact arithmetic over the
package's binomial rows: _binom_row (binomial(top, k), any integer top) and
_diag_row (binomial(n + k, 2k)), built here, and _central_rows
(binomial(2k, k) and its quotient by 2k - 1), which exactnum grows for this
layer and the prime checkers alike and which this module re-exports, with
its tables, as it does _exact_div and _recurrence_prefix.  Sums whose terms
contain a 2k - 1 denominator are folded through binomial(2k, k) / (2k - 1),
which is an integer for all k >= 0 (equal to -1 at k = 0), so those
families stay in integer arithmetic from end to end.  The checkers combine
rows through _row_product, _pair_rows and _mixed_row, and weight them
through _weighted.

SEQUENCES maps each integer sequence's name to its defining sum and, where
one is known, a linear recurrence; values_of(name, n_max) reads a prefix of
it.  A sequence with a recurrence is the one exception to direct summation:
R and S by the third-order recurrences (1.3) and (1.18), schroder by its
second-order one.  Past as many seed terms from the defining sum as the
recurrence's order, each term is one exact division by the leading
coefficient, so a prefix costs O(n) big-int steps instead of O(n^2).  A
remainder in that division raises ArithmeticError.  Recurrence (1.5) of
R_poly is stated once, in exactnum: (1.3) is its value at x = 1, the
multipliers of check_recurrence_R_poly are its terms as polynomials, and
the values of R are the x = 1 row of exactnum's point table, which the
prime checkers read as well.  The recurrence families at the bottom and
R_polys read the defining sums, never the recurrence prefixes, so that the
recurrence checks stay an independent test of the sums.  _weighted_prefix
sums a weighted power of values_of(name, ...), and _poly_prefix sums
polynomial terms coefficientwise; both grow running sums through
exactnum._prefix_sum, so every prefix-sum checker reads the same table.

Module-level value caches are grown tables of exactnum.  Poly is imported by
the functions that build one, so a checker that reads integer values alone
never loads polynomials.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .exactnum import (
    _CENTRAL,
    _CENTRAL_OVER,
    _R_poly_rec,
    _R_rec_at,
    _R_values_at,
    _Recurrence,
    _central_rows,
    _dot,
    _exact_div,
    _memo_cache,
    _memo_grow,
    _memo_table,
    _prefix_sum,
    _recurrence_prefix,
)
from .result import CheckResult, _first_failure, equal

if TYPE_CHECKING:
    from .polynomials import Poly

__all__ = [
    "R",
    "R_poly",
    "R_values",
    "R_polys",
    "S",
    "S_poly",
    "S_values",
    "SEQUENCES",
    "S_m_poly",
    "S_cminus",
    "S_cplus",
    "T_minus",
    "T_plus",
    "T_seq",
    "check_recurrence_R",
    "check_recurrence_R_poly",
    "check_recurrence_S",
    "h",
    "ratio_sum",
    "s_small",
    "schroder",
    "t_seq",
    "values_of",
]

# -- shared incremental rows ------------------------------------------------


def _binom_row(top: int, count: int) -> list[int]:
    """[binomial(top, k) for k in range(count)], valid for any integer top."""
    row = [1]
    for k in range(1, count):
        row.append(_exact_div(row[-1] * (top - k + 1), k))
    return row


def _diag_row(n: int) -> list[int]:
    """[binomial(n + k, 2k) for k in range(n + 1)]."""
    row = [1]
    for k in range(n):
        c = row[-1] * (n + k + 1) * (n - k)
        row.append(_exact_div(c, (2 * k + 1) * (2 * k + 2)))
    return row


def _row_product(rows: Iterable[Sequence[int]]) -> list[int]:
    """Termwise product of equal-length rows; at least one row."""
    return list(reduce(lambda x, y: map(operator.mul, x, y), rows))


def _pair_rows(n: int, a_list: Sequence[int]) -> list[int]:
    """Products binomial(a*n-1, k) * binomial(-a*n-1, k) over the list, k < n."""
    return _row_product(
        _binom_row(sign * a * n - 1, n) for a in a_list for sign in (1, -1)
    )


def _mixed_row(n: int, a: int, b: int) -> list[int]:
    """binomial(n-1, k)^a binomial(-n-1, k)^b for k < n."""
    pos = _binom_row(n - 1, n)
    neg = _binom_row(-n - 1, n)
    return [pos[k] ** a * neg[k] ** b for k in range(n)]


_WEIGHTS = {
    "unit": lambda k: 1,
    "index": lambda k: k,
    "odd": lambda k: 2 * k + 1,
    "cubic": lambda k: 4 * k**3 - 1,
    "stepcube": lambda k: 3 * k * k + 3 * k + 1,
}


@_memo_cache()
def _weight_row(name: str, n: int, signed: int) -> tuple[int, ...]:
    """The named weight at k < n, times (-1)^k when signed."""
    w = _WEIGHTS[name]
    return tuple(-w(k) if signed and k % 2 else w(k) for k in range(n))


def _weighted(row: Sequence[int], name: str, signed: int = 0) -> int:
    """sum_k w(k) row[k] for the named weight, times (-1)^k when signed."""
    return _dot(_weight_row(name, len(row), signed), row)


# -- the two headline families ---------------------------------------------


def _R_coeffs(n: int) -> Iterator[int]:
    """x^k coefficients of R_poly(n).  R(n) sums them directly: going through
    Poly would add its per-coefficient normalization, about 30% of R(n)."""
    _, over = _central_rows(n)
    return map(operator.mul, _diag_row(n), over)


def _S_coeffs(n: int) -> list[int]:
    """x^k coefficients of S_poly(n), summed by S(n) and, with one more weight
    2k + 1, by S_cplus and S_cminus."""
    central, _ = _central_rows(n)
    return [
        c * c * central[k] * (2 * k + 1) for k, c in enumerate(_binom_row(n, n + 1))
    ]


def R(n: int) -> int:
    """sum_k binomial(n,k) binomial(n+k,k) / (2k - 1) as an exact integer."""
    if n < 0:
        raise ValueError("R: n must be >= 0")
    return sum(_R_coeffs(n))


def R_poly(n: int) -> Poly:
    """The polynomial with x^k coefficient binomial(n+k,2k) binomial(2k,k)/(2k-1)."""
    if n < 0:
        raise ValueError("R_poly: n must be >= 0")
    from .polynomials import Poly

    return Poly(_R_coeffs(n))


def S(n: int) -> int:
    """sum_k binomial(n,k)^2 binomial(2k,k) (2k+1)."""
    if n < 0:
        raise ValueError("S: n must be >= 0")
    return sum(_S_coeffs(n))


def S_poly(n: int) -> Poly:
    """The polynomial with x^k coefficient binomial(n,k)^2 binomial(2k,k) (2k+1)."""
    if n < 0:
        raise ValueError("S_poly: n must be >= 0")
    from .polynomials import Poly

    return Poly(_S_coeffs(n))


_SM_FACTORS: dict[int, list[int]] = _memo_table({})  # m -> (km + 1)! / (k!)^m


def S_m_poly(m: int, n: int) -> Poly:
    """x^k coefficient binomial(n,k)^m (km+1)!/(k!)^m; m = 2 gives S_poly."""
    if m < 1 or n < 0:
        raise ValueError("S_m_poly: need m >= 1 and n >= 0")
    factors = _memo_grow(
        _SM_FACTORS.setdefault(m, [1]),
        n,
        lambda t, k: _exact_div(
            t[k - 1] * math.prod(range(k * m - m + 2, k * m + 2)), k**m
        ),
    )
    from .polynomials import Poly

    return Poly([c**m * f for c, f in zip(_binom_row(n, n + 1), factors)])


# -- companion families ------------------------------------------------------


def schroder(n: int) -> int:
    """sum_k binomial(n+k,2k) catalan(k), the large Schroeder number."""
    if n < 0:
        raise ValueError("schroder: n must be >= 0")
    central, _ = _central_rows(n)
    return sum(c * (central[k] // (k + 1)) for k, c in enumerate(_diag_row(n)))


def h(n: int) -> int:
    """sum_k binomial(n,k)^2 catalan(k)."""
    if n < 0:
        raise ValueError("h: n must be >= 0")
    central, _ = _central_rows(n)
    return sum(
        c * c * (central[k] // (k + 1)) for k, c in enumerate(_binom_row(n, n + 1))
    )


def ratio_sum(n: int, d: int, m: int) -> Fraction:
    """sum_{k<=n} binomial(2k,k) binomial(2k,k+d) / ((2k-1) m^k), exact."""
    if n < 0 or d < 0:
        raise ValueError("ratio_sum: need n >= 0 and d >= 0")
    if m == 0:
        raise ValueError("ratio_sum: m must be nonzero")
    _, over = _central_rows(n)
    # Horner over a common denominator m^n keeps everything in integers.
    acc = 0
    for k in range(n + 1):
        acc = acc * m + over[k] * math.comb(2 * k, k + d)
    return Fraction(acc, m**n)


def t_seq(n: int) -> int:
    """sum_k binomial(n,k)^2 binomial(n+k,k)^2 / (2k-1); each term is integral.

    Here and in the T families binomial(n,k) binomial(n+k,k) is read as
    binomial(n+k,2k) binomial(2k,k), from the diagonal and central rows."""
    if n < 0:
        raise ValueError("t_seq: n must be >= 0")
    central, over = _central_rows(n)
    return sum(c * c * central[k] * over[k] for k, c in enumerate(_diag_row(n)))


def _weighted_tt(n: int, weight: Callable[[int], int]) -> int:
    central, _ = _central_rows(n)
    return sum(weight(k) * (c * central[k]) ** 2 for k, c in enumerate(_diag_row(n)))


def T_seq(n: int) -> int:
    """sum_k binomial(n,k)^2 binomial(n+k,k)^2 (2k+1)."""
    if n < 0:
        raise ValueError("T_seq: n must be >= 0")
    return _weighted_tt(n, lambda k: 2 * k + 1)


def T_plus(n: int) -> int:
    """sum_k binomial(n,k)^2 binomial(n+k,k)^2 (2k+1)^2."""
    if n < 0:
        raise ValueError("T_plus: n must be >= 0")
    return _weighted_tt(n, lambda k: (2 * k + 1) ** 2)


def T_minus(n: int) -> int:
    """sum_k (-1)^k binomial(n,k)^2 binomial(n+k,k)^2 (2k+1)^2."""
    if n < 0:
        raise ValueError("T_minus: n must be >= 0")
    return _weighted_tt(n, lambda k: (2 * k + 1) ** 2 * (-1 if k % 2 else 1))


def s_small(n: int) -> int:
    """sum_k binomial(n,k)^2 binomial(2k,k) / (2k-1); each term is integral."""
    if n < 0:
        raise ValueError("s_small: n must be >= 0")
    _, over = _central_rows(n)
    return sum(c * c * over[k] for k, c in enumerate(_binom_row(n, n + 1)))


def S_cplus(n: int) -> int:
    """sum_k binomial(n,k)^2 binomial(2k,k) (2k+1)^2."""
    if n < 0:
        raise ValueError("S_cplus: n must be >= 0")
    return sum((2 * k + 1) * c for k, c in enumerate(_S_coeffs(n)))


def S_cminus(n: int) -> int:
    """sum_k (-1)^k binomial(n,k)^2 binomial(2k,k) (2k+1)^2."""
    if n < 0:
        raise ValueError("S_cminus: n must be >= 0")
    return sum(
        (-1 if k % 2 else 1) * (2 * k + 1) * c for k, c in enumerate(_S_coeffs(n))
    )


# -- the recurrences (1.3), (1.18) and the large-Schroeder one ------------------

# c with c0 R(n) + c1 R(n+1) + c2 R(n+2) + c3 R(n+3) = 0: (1.5) at x = 1
_R_rec = _R_rec_at(1, 1)


def _S_rec(n: int) -> tuple[int, int, int, int]:
    """c with c0 S(n) + c1 S(n+1) + c2 S(n+2) + c3 S(n+3) = 0."""
    return (
        9 * (n + 1) ** 2,
        -(19 * n * n + 74 * n + 87),
        (n + 3) * (11 * n + 29),
        -((n + 3) ** 2),
    )


def _schroder_rec(n: int) -> tuple[int, int, int]:
    """c with c0 r(n) + c1 r(n+1) + c2 r(n+2) = 0, r = schroder."""
    return n, -3 * (2 * n + 3), n + 3


# name -> (defining sum, recurrence or None); seq lists the names in this order
SEQUENCES: dict[str, tuple[Callable[[int], int], Optional[_Recurrence]]] = {
    "R": (R, _R_rec),
    "S": (S, _S_rec),
    "schroder": (schroder, _schroder_rec),
    "t": (t_seq, None),
    "T": (T_seq, None),
    "Tplus": (T_plus, None),
    "Tminus": (T_minus, None),
    "s": (s_small, None),
    "Splus": (S_cplus, None),
    "Sminus": (S_cminus, None),
}

# -- grown-once value caches --------------------------------------------------

_VALUES: dict[str, list[int]] = _memo_table({})
_R_POLY_CACHE: list[Poly] = _memo_table([])


def values_of(name: str, n_max: int) -> list[int]:
    """[v(0), ..., v(n_max)] of SEQUENCES[name], grown by its recurrence when
    it has one and from its defining sum otherwise, into a monotone cache.
    R is the x = 1 row of exactnum's point table, shared with thm11."""
    if name == "R":
        return _R_values_at(1, 1, n_max)
    fn, rec = SEQUENCES[name]
    cache = _VALUES.setdefault(name, [])
    if rec is None:
        return _memo_grow(cache, n_max, lambda _, i: fn(i))[: n_max + 1]
    return _recurrence_prefix(cache, n_max, fn, rec)


def R_values(n_max: int) -> list[int]:
    """[R(0), ..., R(n_max)], grown by recurrence (1.3)."""
    return values_of("R", n_max)


def S_values(n_max: int) -> list[int]:
    """[S(0), ..., S(n_max)], grown by recurrence (1.18)."""
    return values_of("S", n_max)


def R_polys(n_max: int) -> list[Poly]:
    return _memo_grow(_R_POLY_CACHE, n_max, lambda _, i: R_poly(i))[: n_max + 1]


# -- memoized prefix sums -------------------------------------------------------


def _add_coeffs(acc: list[int], poly: Poly) -> list[int]:
    """Coefficient lists of a running polynomial sum, one slot longer per term."""
    out = acc + [0]
    for i, c in enumerate(poly.coeffs):
        out[i] += c
    return out


def _weighted_prefix(name: str, n: int, weight: str = "unit", power: int = 1) -> int:
    """sum_{j<n} w(j) v(j)^power over the values of SEQUENCES[name], for the
    named weight w of _WEIGHTS."""
    w = _WEIGHTS[weight]

    def terms(lo: int, hi: int) -> list[int]:
        vals = values_of(name, hi - 1)[lo:]
        return [w(j) * v**power for j, v in enumerate(vals, lo)]

    return _prefix_sum((name, weight, power), n, terms)


def _poly_prefix(key: object, n: int, term: Callable[[int], Poly]) -> list[int]:
    """Coefficients of sum_{j<n} term(j), for terms of degree at most j,
    memoized as exactnum._PREFIX_SUMS[key]."""
    return _prefix_sum(
        key, n, lambda lo, hi: map(term, range(lo, hi)), _add_coeffs, []
    )


# -- recurrence cross-checks ---------------------------------------------------
#
# These read the defining sums R(n) and S(n), not the recurrence prefixes: a
# check of the recurrence against values it generated could never fail.


def _windows(n_max: int) -> range:
    """The n whose relation reads the terms n to n + 3 <= n_max: at least one,
    so that a PASS has checked a relation."""
    if n_max < 3:
        raise ValueError("a recurrence check needs n_max >= 3, got %d" % n_max)
    return range(n_max - 2)


def _check_recurrence(n_max: int, vals: Sequence, rec: Callable) -> CheckResult:
    """rec(n) weighs vals[n], ..., vals[n + 3] to zero in every window; the
    values and weights are integers, or polynomials, which show renders."""
    return _first_failure(
        equal(sum(c * v for c, v in zip(rec(n), vals[n : n + 4])), 0, {"n": n})
        for n in _windows(n_max)
    )


def check_recurrence_R(n_max: int) -> CheckResult:
    """Recurrence (1.3) of the R numbers, checked on [0, n_max-3]."""
    return _check_recurrence(n_max, [R(i) for i in range(n_max + 1)], _R_rec)


def check_recurrence_R_poly(n_max: int) -> CheckResult:
    """Recurrence (1.5) of the R polynomials, with its linear-in-x
    multipliers, checked on [0, n_max-3]."""
    from .polynomials import Poly

    return _check_recurrence(
        n_max, R_polys(n_max), lambda n: tuple(map(Poly, _R_poly_rec(n)))
    )


def check_recurrence_S(n_max: int) -> CheckResult:
    """Recurrence (1.18) of the S numbers, checked on [0, n_max-3]."""
    return _check_recurrence(n_max, [S(i) for i in range(n_max + 1)], _S_rec)
