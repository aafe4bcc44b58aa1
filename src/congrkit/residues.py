"""Prime-indexed congruences: the checkers of thm11, thm12 and conj51.

thm11 (mod p^2) and conj51 (mod p^2) read exact values from tables that
exactnum grows once per process and all primes share, so a prime costs a
few big-int reductions mod p^2:

* power-sum prefixes U[j + 1] = b U[j] + c_j, U[0] = 0, over the row
  c_k = binomial(2k, k)^2 / (2k - 1) for b = -16, 8 and 32, and for conj51
  also over d_k = binomial(2k, k) binomial(2k, k+1) / (2k - 1) for b = 8.
  Both rows are integers, read from exactnum's central rows, and the
  prefixes are running sums of exactnum._prefix_sum.
* the values b^n R_poly(n)(a/b) at x = a/b = 1, -2 and -1/2, read from
  exactnum._R_values_at, which grows them by recurrence (1.5) at a/b.  The
  x = 1 row is the one table of R(n) that sequences.values_of reads too.

Kummer's theorem cuts each power sum at h = (p+1)/2.  For h <= k < p,
k + k carries once in base p, so p divides binomial(2k, k) once and 2k - 1
only at k = h, where 2k - 1 = p.  So c_k vanishes mod p^2 past h, and c_h
is p times a unit.  For h < k < p - 1 the offset term d_k carries p in both
binomials and vanishes too.  At k = h, 2k - 1 = p cancels the p of
binomial(2k, k) and binomial(2k, k+1) keeps its own; at k = p - 1,
p + (p-2) adds without a carry, so binomial(2k, k+1) is a unit: both d_h
and d_{p-1} are p times a unit.  The prefix holds the k = h terms exactly,
so sum_{k<p} c_k / b^k = U[h + 1] / b^h mod p^2, as b is prime to p, and
conj51 adds the row entry d_{p-1} exactly.

thm12 (mod p) needs a sum for each offset d, so it builds one table per
prime mod p: j! and 1/j! for j < p, and binomial(2k, k)/(2k - 1) for
k <= (p+1)/2, and sums products of their slices.  Its terms past
k = (p+1)/2 vanish mod p, and it takes binomial(p+1, j) mod p at
k = (p+1)/2 from Lucas's theorem.

This module reads exactnum and result alone, so a run of these three
families loads neither sequences nor polynomials.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .exactnum import (
    _R_values_at,
    _central_rows,
    _dot,
    _prefix_sum,
    binomial,
    is_prime,
    legendre_symbol,
    two_square_decompose,
)
from .result import FAIL, PASS, CheckResult, _chain, _first_failure

__all__ = ["check_thm11", "check_thm12", "check_conj51"]


# -- values grown once and shared by all primes ------------------------------------


def _square_terms(lo: int, hi: int) -> Iterable[int]:
    """c_k = binomial(2k, k)^2 / (2k - 1) for lo <= k < hi."""
    central, over = _central_rows(hi - 1)
    return map(operator.mul, central[lo:hi], over[lo:hi])


def _offset_terms(lo: int, hi: int) -> Iterable[int]:
    """d_k = binomial(2k, k) binomial(2k, k+1) / (2k - 1) for lo <= k < hi;
    binomial(2k, k+1) = k Catalan(k)."""
    central, over = _central_rows(hi - 1)
    return (over[k] * (central[k] // (k + 1) * k) for k in range(lo, hi))


def _power_sum(terms: Callable[[int, int], Iterable[int]], base: int, p: int) -> int:
    """sum_{k<=h} t_k / base^k mod p^2 for the row t of terms, with
    h = (p+1)/2: U[h + 1] / base^h, from the shared prefix U with
    U[j + 1] = base U[j] + t_j, keyed by (terms, base)."""
    m, h = p * p, (p + 1) // 2
    u = _prefix_sum((terms, base), h + 1, terms, lambda acc, t: acc * base + t)
    return u * pow(base, -h, m) % m


def _offset_power_sum(p: int) -> int:
    """sum_{k<p} d_k / 8^k mod p^2: the shared prefix through k = h, and the
    exact row entry d_{p-1} (at p = 3 it is the k = h term)."""
    m = p * p
    acc = _power_sum(_offset_terms, 8, p)
    if p > 3:
        (boundary,) = _offset_terms(p - 1, p)
        acc += boundary * pow(8, 1 - p, m)
    return acc % m


# -- per-prime residue tables mod p ------------------------------------------------


class _PrimeTable(NamedTuple):
    """Residues mod p for one odd prime p: fact[j] = j! and inv[j] = 1/j!
    for j < p, and over[k] = binomial(2k, k)/(2k - 1) for k <= (p+1)/2.

    over[0] = -1, and above it over[k] = 2 Catalan(k-1) = 2 (2k-2)! /
    ((k-1)! k!), whose factorials stay below p up to k = (p+1)/2."""

    p: int
    fact: list[int]
    inv: list[int]
    over: list[int]


def _prime_table(p: int) -> _PrimeTable:
    """The residue table of the odd prime p mod p."""
    acc, fact = 1, [1]
    for j in range(1, p):
        acc = acc * j % p
        fact.append(acc)
    acc = pow(acc, -1, p)
    inv = [acc]  # from 1/(p-1)! down to 1/0!, then reversed
    for j in range(p - 1, 0, -1):
        acc = acc * j % p
        inv.append(acc)
    inv.reverse()
    over = [-1 % p] + [
        2 * f * i * j % p for f, i, j in zip(fact[::2], inv, inv[1 : (p + 3) // 2])
    ]
    return _PrimeTable(p, fact, inv, over)


def _offset_pair_sums(t: _PrimeTable, offsets: range) -> dict[int, int]:
    """sum_{k<p} binomial(2k,k) binomial(2k,k+d) / ((2k-1) 8^k) mod p for
    each d in offsets (d >= 0); t is the table mod p.

    Terms with k > (p+1)/2 vanish mod p: there p divides binomial(2k, k)
    (Kummer: k + k carries in base p) but not 2k - 1.  For k <= n = (p-1)/2,
    2k < p and binomial(2k, k+d) = (2k)! / ((k+d)! (k-d)!), so each offset
    sums sliced table rows.  At k = (p+1)/2, 2k = p + 1 has base-p digits
    1, 1 and k + d <= p, so by Lucas's theorem binomial(p+1, k+d) is 0 mod p
    unless k + d = p, that is d = n, where it is 1."""
    p, fact, inv, over = t
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
    n, m = (p - 1) // 2, p * p
    r_plain = _R_values_at(1, 1, n)[n] % m
    r_neg2 = _R_values_at(-2, 1, n)[n] % m
    r_half = _R_values_at(-1, 2, n)[n] * pow(2, -n, m) % m
    g16, g8, g32 = (_power_sum(_square_terms, base, p) for base in (-16, 8, 32))
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
    acc = _offset_pair_sums(_prime_table(p), range(n % 2, n + 1, 2))
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
    chains = (
        ("base 8", [
            ("power sum", _power_sum(_square_terms, 8, p)),
            ("closed form", -chi * Fraction((p + 1) * c, (1 << (p - 1)) + 1)),
        ]),
        ("offset base 8", [
            ("offset power sum, tripled", 3 * _offset_power_sum(p)),
            ("closed form", p + chi * Fraction(2 * p, c)),
        ]),
    )
    return _first_failure(
        _chain(members, p, 2, claim=claim) for claim, members in chains
    )
