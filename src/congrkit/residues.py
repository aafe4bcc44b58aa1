"""Prime residue tables: the checkers of thm11, thm12 and conj51.

The prime-indexed sums of thm11 (mod p^2), thm12 (mod p) and conj51
(mod p^2) are reduced mod p^e term by term, and never read the exact
central-binomial rows.  Each checker call builds one table per prime mod
p^e: j! and 1/j! for j < p, and binomial(2k, k)/(2k - 1) = 2 Catalan(k-1)
for k <= (p+1)/2.  Every term is a product of table entries and a power of
1/2, 1/8, 1/16 or 1/32; all their denominators are prime to p, and
reduction mod p^e is a ring homomorphism on those rationals, so the residue
of the sum is the sum of the term residues: the same lhs, rhs and witness
that an exact sum reduced at the end gives.  Past k = (p+1)/2, p divides
binomial(2k, k) (Kummer's theorem: k + k carries in base p) and not 2k - 1,
so those terms vanish mod p, and mod p^2 as well in the central-square sums
and, but for k = p - 1, in the offset sum.  The boundary terms that remain
are p times a unit: the k = (p+1)/2 square term from the table, and the
offset sum's k = (p+1)/2 and k = p - 1 terms exactly.  thm12 takes
binomial(p+1, j) mod p at k = (p+1)/2 from Lucas's theorem.

This module reads exactnum and result alone, so a run of these three
families loads neither sequences nor polynomials.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exactnum import (
    _dot,
    binomial,
    central_binomial_over_2k_minus_1,
    is_prime,
    legendre_symbol,
    two_square_decompose,
)
from .result import FAIL, PASS, CheckResult, _chain, _first_failure

__all__ = ["check_thm11", "check_thm12", "check_conj51"]


# -- residue-first sums over prime-indexed ranges ---------------------------------


class _PrimeTable(NamedTuple):
    """Residues mod p^e for one odd prime p: fact[j] = j! and inv[j] = 1/j!
    for j < p, and over[k] = binomial(2k, k)/(2k - 1) for k <= (p+1)/2.

    over[0] = -1, and above it over[k] = 2 Catalan(k-1) = 2 (2k-2)! /
    ((k-1)! k!), whose factorials stay below p up to k = (p+1)/2."""

    p: int
    modulus: int
    fact: list[int]
    inv: list[int]
    over: list[int]


def _prime_table(p: int, e: int) -> _PrimeTable:
    """The residue table of the odd prime p mod p^e."""
    m = p**e
    acc, fact = 1, [1]
    for j in range(1, p):
        acc = acc * j % m
        fact.append(acc)
    acc = pow(acc, -1, m)
    inv = [acc]  # from 1/(p-1)! down to 1/0!, then reversed
    for j in range(p - 1, 0, -1):
        acc = acc * j % m
        inv.append(acc)
    inv.reverse()
    over = [-1 % m] + [
        2 * f * i * j % m for f, i, j in zip(fact[::2], inv, inv[1 : (p + 3) // 2])
    ]
    return _PrimeTable(p, m, fact, inv, over)


def _horner(coeffs: Sequence[int], x: int, modulus: int) -> int:
    """sum_k coeffs[k] * x^k mod modulus, by Horner's rule in x^b over blocks
    of b ~ sqrt(len(coeffs)) terms; each block is one dot product with the
    powers of x below x^b."""
    size = math.isqrt(len(coeffs)) + 1
    powers = [1]
    for _ in range(size):
        powers.append(powers[-1] * x % modulus)
    step = powers.pop()
    acc = 0
    for i in reversed(range(0, len(coeffs), size)):
        acc = (acc * step + _dot(coeffs[i : i + size], powers)) % modulus
    return acc


def _R_residues(t: _PrimeTable, points: Sequence[int]) -> list[int]:
    """R_poly((p-1)/2) at each point, mod p^e.  With n = (p-1)/2 its x^k
    coefficient is binomial(n+k, 2k) over[k], and n + k < p."""
    n = (t.p - 1) // 2
    m = t.modulus
    coeffs = [
        f * i * j * o % m
        for f, i, j, o in zip(t.fact[n:], t.inv[::2], t.inv[n::-1], t.over)
    ]
    return [_horner(coeffs, x, m) for x in points]


def _central_square_power_sums(t: _PrimeTable, bases: Sequence[int]) -> list[int]:
    """sum_{k<p} binomial(2k,k)^2 / ((2k-1) * base^k) mod p^2, per base; t is
    the table mod p^2.

    With h = (p+1)/2, every k in [h, p) has p <= k + k < 2p, one carry in
    base p, so p exactly divides binomial(2k, k) (Kummer) and p^2 its square.
    2k - 1 is prime to p there except at k = h, where it is p.  So the terms
    past h vanish mod p^2, and the k = h term is binomial(p+1, h) over[h] =
    p (p+1) (p-1)! / h!^2 over[h], p times a unit.  Below h, 2k < p and
    binomial(2k, k) = (2k)! / k!^2."""
    p, m, fact, inv, over = t
    h = (p + 1) // 2
    terms = [f * i * i * o % m for f, i, o in zip(fact[::2], inv, over)]
    terms.append(p * (p + 1) * fact[p - 1] * inv[h] * inv[h] * over[h] % m)
    return [_horner(terms, pow(base, -1, m), m) for base in bases]


def _central_offset_power_sum(t: _PrimeTable) -> int:
    """sum_{k<p} binomial(2k,k) binomial(2k,k+1) / ((2k-1) 8^k) mod p^2; t is
    the table mod p^2.

    With h = (p+1)/2, every k with h < k < p - 1 has one carry in both k + k
    and (k+1) + (k-1) in base p, so p divides both binomials (Kummer), while
    2k - 1 is prime to p: those terms vanish mod p^2.  Two boundary terms
    stay, each p times a unit.  At k = h, 2k - 1 = p cancels the p of
    binomial(2k, k), and binomial(2k, k+1) keeps its own.  At k = p - 1,
    binomial(2k, k) keeps its p, but p + (p-2) adds without a carry, so
    binomial(2k, k+1) is a unit.  (At p = 3 the two coincide in one unit
    term.)  Both are taken exactly.  Below h, binomial(2k, k+1) =
    (2k)! / ((k+1)! (k-1)!), and 0 at k = 0."""
    p, m, fact, inv, over = t
    h = (p + 1) // 2
    terms = [0] + [
        f * i * j * o % m for f, i, j, o in zip(fact[2::2], inv[2:], inv, over[1:])
    ]
    acc = _horner(terms, pow(8, -1, m), m)
    for k in {h, p - 1}:
        boundary = central_binomial_over_2k_minus_1(k) * binomial(2 * k, k + 1)
        acc += boundary * pow(8, -k, m)
    return acc % m


def _offset_pair_sums(t: _PrimeTable, offsets: range) -> dict[int, int]:
    """sum_{k<p} binomial(2k,k) binomial(2k,k+d) / ((2k-1) 8^k) mod p for
    each d in offsets (d >= 0); t is the table mod p.

    Terms with k > (p+1)/2 vanish mod p: there p divides binomial(2k, k)
    (Kummer: k + k carries in base p) but not 2k - 1.  For k <= n = (p-1)/2,
    2k < p and binomial(2k, k+d) = (2k)! / ((k+d)! (k-d)!), so each offset
    sums sliced table rows.  At k = (p+1)/2, 2k = p + 1 has base-p digits
    1, 1 and k + d <= p, so by Lucas's theorem binomial(p+1, k+d) is 0 mod p
    unless k + d = p, that is d = n, where it is 1."""
    p, _, fact, inv, over = t
    n = (p - 1) // 2
    inv8 = pow(8, -1, p)
    z = []  # over[k] (2k)! / 8^k mod p, k <= n
    w = 1  # 8^-k mod p
    for k in range(n + 1):
        z.append(over[k] * fact[2 * k] * w % p)
        w = w * inv8 % p
    acc = {d: _dot(z[d:], map(operator.mul, inv[2 * d :], inv)) for d in offsets}
    if n in acc:
        acc[n] += over[n + 1] * w
    return {d: v % p for d, v in acc.items()}


# -- two-square congruence families -------------------------------------------


def check_thm11(p: int) -> CheckResult:
    """Three residue chains tying the half-index R value (and its rescalings
    at -2 and -1/2) to central-binomial power sums and two-square data."""
    if p < 3 or not is_prime(p):
        raise ValueError("check_thm11: p must be an odd prime")
    chi = legendre_symbol(2, p)
    table = _prime_table(p, 2)
    r_plain, r_neg2, r_half = _R_residues(table, (1, -2, -pow(2, -1, p * p)))
    g16, g8, g32 = _central_square_power_sums(table, (-16, 8, 32))
    if p % 4 == 1:
        dec = two_square_decompose(p)
        x, y = dec.x, dec.y
        if x * x + y * y != p or x % 4 != 1 or y <= 0 or y % 2:
            return CheckResult(
                FAIL,
                lhs=str(x),
                rhs=str(y),
                modulus=str(p),
                witness={"claim": "two-square witness", "x": x, "y": y},
                note="decomposition failed validation",
            )
        note = "p = x^2 + y^2 with x = %d, y = %d" % (x, y)
        chains = [
            ("base -16", 2, [
                ("half-index value minus p", r_plain - p),
                ("power sum", g16),
                ("two-square form", Fraction(-2 * chi * x)),
            ]),
            ("base 8", 2, [
                ("value at -2, shifted", r_neg2 + 2 * p * chi),
                ("power sum", g8),
                ("two-square form", Fraction(chi * p, 2 * x)),
            ]),
            ("base 32", 2, [
                ("value at -1/2, shifted", r_half + Fraction(p * chi, 2)),
                ("power sum", g32),
                ("two-square form", Fraction(p, 4 * x) - x),
            ]),
        ]
    else:
        c = binomial((p + 1) // 2, (p + 1) // 4)
        half_c = Fraction(-chi * c, 2)
        note = "closed forms recomputed from binomial((p+1)/2, (p+1)/4)"
        chains = [
            ("base -16", 1, [
                ("half-index value", r_plain),
                ("power sum", g16),
                ("half central form", half_c),
            ]),
            ("base 8", 1, [
                ("value at -2", r_neg2),
                ("power sum", g8),
                ("half central form", half_c),
            ]),
            ("base 32", 2, [
                ("value at -1/2, shifted", r_half + Fraction(p * chi, 2)),
                ("power sum", g32),
                ("scaled central form", Fraction(-(p + 1) * c, (1 << p) + 2)),
            ]),
        ]
    res = _first_failure(
        _chain(members, p, e, claim=claim, note=note) for claim, e, members in chains
    )
    if not res.ok:
        return res
    return CheckResult(PASS, modulus="%d^2" % p, note=note)


def check_thm12(p: int) -> CheckResult:
    """For every offset d <= (p-1)/2 of that parity, the offset central pair
    sum over 8^k vanishes mod p."""
    if p < 3 or not is_prime(p):
        raise ValueError("check_thm12: p must be an odd prime")
    n = (p - 1) // 2
    acc = _offset_pair_sums(_prime_table(p, 1), range(n % 2, n + 1, 2))
    for d, residue in acc.items():
        if residue:
            return CheckResult(
                FAIL,
                lhs=str(residue),
                rhs="0",
                modulus=str(p),
                witness={"d": d, "residue": residue},
            )
    return CheckResult(
        PASS, lhs="0", rhs="0", modulus=str(p), note="offsets checked: %d" % len(acc)
    )


# -- Conjecture 5.1 ------------------------------------------------------------


def check_conj51(p: int) -> CheckResult:
    """Base-8 central square power sums over primes 3 mod 4, mod p^2."""
    if p % 4 != 3 or not is_prime(p):
        raise ValueError("conj51: p must be a prime congruent to 3 mod 4")
    chi = legendre_symbol(2, p)
    c = binomial((p + 1) // 2, (p + 1) // 4)
    table = _prime_table(p, 2)
    chains = (
        ("base 8", [
            ("power sum", _central_square_power_sums(table, (8,))[0]),
            ("closed form", -chi * Fraction((p + 1) * c, (1 << (p - 1)) + 1)),
        ]),
        ("offset base 8", [
            ("offset power sum, tripled", 3 * _central_offset_power_sum(table)),
            ("closed form", p + chi * Fraction(2 * p, c)),
        ]),
    )
    return _first_failure(
        _chain(members, p, 2, claim=claim) for claim, members in chains
    )
