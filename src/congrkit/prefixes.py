"""Prefix sums of the binomial-sum sequences: the checkers of thm13,
thm13ii, thm14i, thm14ii and cor11.

thm13 reads the exact prefix sum R_0 + ... + R_{p-1} from the shared
prefix table over sequences.values_of("R", ...), whose terms recurrence (1.3)
grows in O(1) big-int steps each.  thm14ii costs O(p) operations per prime:
it works mod p^2 and takes its Bernoulli value from a power sum.  With
m = p - 2 and x = 1/3,

    B_{m+1}(x+p) - B_{m+1}(x) = (m+1) sum_{j<p} (x+j)^m,

where the left side is sum_{k>=1} binomial(m+1, k) B_{m+1-k}(x) p^k.  Its
k = 1 term is (m+1) p B_m(x).  For k >= 2, B_{p-1-k}(1/3) is p-integral: by
von Staudt-Clausen p divides the denominator of B_i only when p - 1 | i, and
i <= p - 3 here.  So those terms vanish mod p^2, and dividing by the unit
m + 1 gives p B_{p-2}(1/3) == sum_{j<p} ((3j+1)/3)^(p-2) mod p^2.
The harmonic weights sum S_k / k and p sum S_k / k^2 are residues as well.
Every denominator involved (2, 3 and k < p) is prime to p, so it is
inverted mod p^2 here, and _chain reduces integers alone for both families.

thm13 and thm14ii read integer values alone and never load polynomials;
thm13ii, thm14i and cor11 read the polynomial and row forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

from .exactnum import is_prime, legendre_symbol
from .result import FAIL, PASS, CheckResult, _chain, _divisibility, equal, show
from .sequences import R_poly, S_m_poly, h, values_of
from .sequences import _binom_row, _poly_prefix, _row_product, _weighted_prefix

__all__ = [
    "check_thm13",
    "check_thm13_ii",
    "check_thm14_i",
    "check_thm14_ii",
    "check_cor11",
]


# -- prefix sums of the two headline sequences ---------------------------------


def check_thm13(p: int) -> CheckResult:
    """Prefix sum of R over a prime range lands on -p - (-1|p) mod p^2."""
    if p < 3 or not is_prime(p):
        raise ValueError("check_thm13: p must be an odd prime")
    total = _weighted_prefix("R", p)
    target = -p - legendre_symbol(-1, p)
    return _chain([("prefix sum", total), ("closed form", target)], p, 2)


def check_thm13_ii(n: int) -> CheckResult:
    """Value at -1 is -(2n+1); the signed reciprocal odd-weight sum is -2n."""
    if n < 1:
        raise ValueError("check_thm13_ii: need n >= 1")
    value = equal(R_poly(n)(-1), -(2 * n + 1), {"claim": "value at -1"})
    if not value.ok:
        return value
    lcm = math.lcm(*range(1, 2 * n, 2))
    pairs = _row_product((_binom_row(n, n + 1), _binom_row(-n, n + 1)))
    acc = sum(c * (lcm // (2 * k - 1)) for k, c in enumerate(pairs))
    if acc != -2 * n * lcm:
        return equal(Fraction(acc, lcm), -2 * n, {"claim": "reciprocal odd-weight sum"})
    value.note = "both identities hold"
    return value


# -- weighted S prefix families -------------------------------------------------


def check_thm14_i(n: int) -> CheckResult:
    """Prefix sum of S equals n^2 times the Catalan convolution; prefix sum
    of the S polynomials has all coefficients divisible by n."""
    if n < 1:
        raise ValueError("check_thm14_i: need n >= 1")
    total = _weighted_prefix("S", n)
    target = n * n * h(n - 1)
    scalar = equal(total, target, {"claim": "scalar prefix sum"})
    if not scalar.ok:
        return scalar
    coeffs = _poly_prefix(("S_m", 2), n, partial(S_m_poly, 2))
    for i, c in enumerate(coeffs):
        if c % n:
            return CheckResult(
                FAIL,
                lhs=show(c),
                rhs="0",
                modulus=str(n),
                witness={"claim": "polynomial prefix sum", "x_power": i},
            )
    return CheckResult(PASS, lhs=scalar.lhs, rhs=scalar.rhs, modulus=str(n))


def _bernoulli_third_times_p(p: int) -> int:
    """p * B_{p-2}(1/3) mod p^2, as sum_{j<p} ((3j+1)/3)^(p-2); p > 3 prime.

    A term with p | 3j+1 is divisible by p^(p-2), so it is 0 here too."""
    m = p * p
    third = pow(3, -1, m)
    return sum(pow((3 * j + 1) * third, p - 2, m) for j in range(p)) % m


def _thm14ii_members(p: int) -> list[tuple[str, int]]:
    """The three thm14ii values mod p^2: sum S_k / k, p * sum S_k / k^2 and
    -(p/2) (p|3) B_{p-2}(1/3); every denominator is prime to p."""
    m = p * p
    vals = values_of("S", p - 1)
    harmonic = 0
    square_harmonic = 0  # only needed mod p: it is multiplied by p
    for k in range(1, p):
        w = vals[k] * pow(k, -1, m) % m
        harmonic += w
        square_harmonic += w * pow(k, -1, p)
    closed = -legendre_symbol(p, 3) * pow(2, -1, m) * _bernoulli_third_times_p(p)
    return [
        ("harmonic weight", harmonic % m),
        ("p times square-harmonic weight", p * (square_harmonic % p)),
        ("Bernoulli closed form", closed % m),
    ]


def check_thm14_ii(p: int) -> CheckResult:
    """Harmonic-weighted S sums against the Bernoulli value at 1/3, mod p^2."""
    if p < 5 or not is_prime(p):
        raise ValueError("check_thm14_ii: p must be a prime > 3")
    return _chain(_thm14ii_members(p), p, 2)


# -- odd-weighted prefix sums of the companion sequences ------------------------

_COR11_POWER = {"t": 3, "T": 3, "Tplus": 4, "Tminus": 3}


def check_cor11(n: int) -> CheckResult:
    """Odd-weighted prefixes of the four quadratic-pair sequences divide by
    n^3, with an extra factor n for the plus-signed variant."""
    if n < 1:
        raise ValueError("check_cor11: need n >= 1")
    claims = [
        (kind, _weighted_prefix(kind, n, "odd"), n**power)
        for kind, power in _COR11_POWER.items()
    ]
    return _divisibility(claims)
