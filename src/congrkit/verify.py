"""Checkers for the divisibility and congruence families.

Most checkers evaluate their sums exactly (integers over one common
denominator, or Fractions where denominators vary) and reduce once at the
end.  A modulus that cannot invert a denominator is reported as ILL_POSED,
never skipped.

The prime-indexed sums of thm11 (mod p^2), thm12 (mod p) and conj51
(mod p^2) are instead reduced mod p^e term by term, and never read the exact
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
Every denominator involved (2, 3 and k < p) is prime to p, so no instance
of either family is ILL_POSED.

The display families of Theorem 1.5 are decided fraction-free.  thm15ii
and xval15 read each of the ten display weights w[k] as integers
D_n w[k], where D_n is the lcm of the weight denominators for k < n; the
table is cached per (n, m mod 2), because the weights read m only through
its parity.  A display sum with integer numerator N is integral exactly
when D_n n | N for the four displays scaled by 1/n, and D_n | N for the
other six.  xval15 matches each weight with its kernel difference once per
(k, m mod 2), then compares the two sums as integer numerators over D_n.
thm15i asks for divisibility by n, n^2 or n^3, all divisors of n^3, so its
pattern rows are reduced mod n^3 before they are multiplied, and each
multiset of grid values is decided once, since reordering a pattern
changes none of its claims; a FAIL recomputes the failing pattern's claims
from exact rows, so the report shows the exact value.  Only a FAIL row
builds Fractions.

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

import itertools
import math
import operator
from fractions import Fraction
from functools import partial, reduce
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .exactnum import (
    DenominatorNotInvertible,
    Rational,
    _memo_cache,
    _memo_grow,
    _memo_table,
    binomial,
    catalan,
    central_binomial_over_2k_minus_1,
    is_prime,
    legendre_symbol,
    pow_compare,
    primes_up_to,
    residue_of_rational,
    two_square_decompose,
)
from .kernels import (
    PAPER_KERNELS,
    KernelSpec,
    bar,
    central_times_kernel_in_Z,
    central_times_kernel_in_kZ,
    delta,
    kernel_descriptor,
    kernel_from_descriptor,
    kernel_power_divisible,
)
from .polynomials import X, Poly
from .registry import CONJ52_START, THM15_VARIANTS
from .result import FAIL, ILL_POSED, INCONCLUSIVE, PASS, CheckResult
from .result import equal, show, verdict
from .sequences import R_poly, S_m_poly, S_poly, h, ratio_sum, values_of
from .sequences import _binom_row, _central_rows, _exact_div

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


# -- small exact helpers ------------------------------------------------------
# Binomial rows come from sequences (_binom_row, _central_rows).


def _row_product(rows: Iterable[Sequence[int]]) -> list[int]:
    """Termwise product of equal-length rows; at least one row."""
    return list(reduce(lambda x, y: map(operator.mul, x, y), rows))


def _pair_rows(n: int, a_list: Sequence[int]) -> list[int]:
    """Products binomial(a*n-1, k) * binomial(-a*n-1, k) over the list, k < n."""
    return _row_product(
        _binom_row(sign * a * n - 1, n) for a in a_list for sign in (1, -1)
    )


def _dot(weights: Iterable[int], row: Iterable[int]) -> int:
    """sum_k weights[k] * row[k] over the shorter of the two."""
    return sum(map(operator.mul, weights, row))


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


def _triangle(k: int) -> int:
    return (k + 1) * (k + 2) // 2


def _chain(
    members: Sequence[tuple[str, Rational]],
    p: int,
    e: int,
    claim: str = "",
    note: str = "",
) -> CheckResult:
    """All member values must land in one residue class mod p**e."""
    modulus = str(p) if e == 1 else "%d^%d" % (p, e)
    reduced = []
    for label, value in members:
        try:
            reduced.append((label, residue_of_rational(value, p, e).value))
        except DenominatorNotInvertible as exc:
            witness = {"term": label}
            if claim:
                witness["claim"] = claim
            return CheckResult(
                ILL_POSED, modulus=modulus, witness=witness, note=str(exc)
            )
    first_label, first = reduced[0]
    label, value = next((m for m in reduced if m[1] != first), reduced[0])
    witness = {"left": first_label, "right": label}
    if claim:
        witness["claim"] = claim
    return verdict(value == first, show(first), show(value), modulus, witness, note)


def _divisibility(
    claims: Sequence[tuple[str, int, int]], note: str = ""
) -> CheckResult:
    """Each claim (label, value, modulus) requires modulus | value."""
    label, value, modulus = next((c for c in claims if c[1] % c[2]), claims[-1])
    residue = value % modulus
    witness = {"claim": label, "residue": residue}
    lhs = show(value) if residue else "0"
    return verdict(not residue, lhs, "0", str(modulus), witness, note)


def _first_failure(results: Iterable[CheckResult]) -> CheckResult:
    """The first result that is not PASS, else the last one.  A lazy iterable
    builds no result after the first failure."""
    for res in results:
        if not res.ok:
            return res
    return res


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


# -- prefix sums of the two headline sequences ---------------------------------

_PREFIX_SUMS: dict[object, list] = _memo_table({})


def _prefix_sum(
    key: object, n: int, terms: Callable[[int, int], list], add=operator.add, zero=0
) -> object:
    """Entry n of the running sums memoized as _PREFIX_SUMS[key], whose entry 0
    is zero and entry j + 1 is add(entry j, term j).

    terms(lo, hi) returns the terms lo..hi-1.
    """
    table = _PREFIX_SUMS.setdefault(key, [zero])

    def grow(start: int, upto: int) -> list:
        acc, out = table[start - 1], []
        for term in terms(start - 1, upto):
            acc = add(acc, term)
            out.append(acc)
        return out

    return _memo_grow(table, n, grow)[n]


def _add_coeffs(acc: list[int], poly: Poly) -> list[int]:
    """Coefficient lists of a running polynomial sum, one slot longer per term."""
    out = acc + [0]
    for i, c in enumerate(poly.coeffs):
        out[i] += c
    return out


def _weighted_prefix(name: str, n: int, weight: str = "unit", power: int = 1) -> int:
    """sum_{j<n} w(j) v(j)^power over the values of sequences.SEQUENCES[name],
    for the named weight w of _WEIGHTS."""
    w = _WEIGHTS[weight]

    def terms(lo: int, hi: int) -> list[int]:
        vals = values_of(name, hi - 1)[lo:]
        return [w(j) * v**power for j, v in enumerate(vals, lo)]

    return _prefix_sum((name, weight, power), n, terms)


def _poly_prefix(key: object, n: int, term: Callable[[int], Poly]) -> list[int]:
    """Coefficients of sum_{j<n} term(j), for terms of degree at most j,
    memoized as _PREFIX_SUMS[key]."""
    return _prefix_sum(
        key, n, lambda lo, hi: map(term, range(lo, hi)), _add_coeffs, []
    )


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


def _mixed_row(n: int, a: int, b: int) -> list[int]:
    pos = _binom_row(n - 1, n)
    neg = _binom_row(-n - 1, n)
    return [pos[k] ** a * neg[k] ** b for k in range(n)]


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


@_memo_cache(maxsize=4)
def _xval_kernel_rows(n: int, odd: int) -> tuple[Optional[tuple[int, ...]], ...]:
    """Per display, D_n times its kernel differences at k < n; None when the
    termwise match fails at some k < n.  Where it holds, each difference is
    (w[k] - correction) / c with c = +-1, +-1/2 or +-1/4, so D_n clears it."""
    d, _ = _display_weights(n, odd)
    return tuple(
        tuple(_exact_div(d * v.numerator, v.denominator) for v, _ in col)
        if all(ok for _, ok in col)
        else None
        for col in zip(*(_xval_terms(k, odd) for k in range(n)))
    )


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
    mixed = _mixed_row(n, a, b)
    same = mixed if a == b else _mixed_row(n, a, a)
    d, weights = _display_weights(n, odd)
    kernel_rows = _xval_kernel_rows(n, odd)
    for i, (label, _, signed, c, correction) in enumerate(_xval_plans(odd)):
        if kernel_rows[i] is None:
            k = next(k for k in range(n) if not _xval_terms(k, odd)[i][1])
            expected = c * _xval_terms(k, odd)[i][0] + (correction if k == 0 else 0)
            return equal(_xval_weights(k, odd)[i], expected, {"display": label, "k": k})
        row = mixed if signed else same
        display_total = _dot(weights[i], row)
        kernel_total = _dot(kernel_rows[i], row)
        lhs = c.denominator * (display_total - d * correction * row[0])
        if lhs != c.numerator * kernel_total:
            return CheckResult(
                FAIL,
                lhs=show(Fraction(display_total, d)),
                rhs=show(c * Fraction(kernel_total, d) + correction * row[0]),
                witness={"display": label, "claim": "sum"},
            )
    return CheckResult(
        PASS, note="ten weight families matched against the kernel catalogue"
    )


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


# -- closed-form identities used by the proofs ----------------------------------


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


# -- generic difference-kernel framework ----------------------------------------


def _int_values(values: Sequence[Fraction], what: str) -> list[int]:
    out = []
    for v in values:
        if v.denominator != 1:
            raise ValueError("%s must be integer-valued" % what)
        out.append(v.numerator)
    return out


def check_thm41(
    n: int, kernel: KernelSpec, a_list: Sequence[int], b_list: Sequence[int]
) -> CheckResult:
    """Signed-difference kernel sums over shifted binomial products vanish
    mod the common gcd, and mod its square for doubly divisible kernels."""
    m = len(a_list)
    if n < 1 or m < 1 or len(b_list) != m:
        raise ValueError("check_thm41: need n >= 1 and matching parameter lists")
    if any(b < 0 for b in b_list):
        raise ValueError("check_thm41: shifts must be nonnegative")
    if not kernel_power_divisible(kernel, n - 1, 1, m):
        raise ValueError("check_thm41: kernel must be integer-valued with k | f(k)")
    d = math.gcd(n, *a_list, *b_list)
    rows = _row_product(_binom_row(a - 1, b + n)[b:] for a, b in zip(a_list, b_list))
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
    m = len(a_list)
    if n < 1 or m < 1 or len(b_list) != m:
        raise ValueError("check_cor41: need n >= 1 and matching parameter lists")
    if any(b < 0 for b in b_list):
        raise ValueError("check_cor41: shifts must be nonnegative")
    d = math.gcd(n, *a_list, *b_list)
    rows = _row_product(_binom_row(a - 1, b + n)[b:] for a, b in zip(a_list, b_list))

    twist = m % 2  # (-1)^(km) is (-1)^k for odd m
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
    if strength == "integral":
        if not central_times_kernel_in_Z(kernel, n):
            raise ValueError(
                "check_thm43: kernel times the central ratio must be an integer"
            )
    elif strength == "over_n":
        if not central_times_kernel_in_kZ(kernel, n):
            raise ValueError(
                "check_thm43: kernel times the central ratio must lie in kZ"
            )
    else:
        raise ValueError("check_thm43: unknown strength %r" % (strength,))
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


def check_remark52(n: int) -> CheckResult:
    """Tripled odd-weighted prefix of the coefficient polynomials equals n
    times an explicitly integral polynomial."""
    if n < 1:
        raise ValueError("check_remark52: need n >= 1")
    _, over = _central_rows(n)
    acc = _poly_prefix(("R_poly", "odd"), n, lambda j: (2 * j + 1) * R_poly(j))
    for k in range(n):
        q = (n - k) * binomial(n + k, 2 * k) * (2 * over[k] - catalan(k))
        if 3 * acc[k] != n * q:
            return equal(3 * acc[k], n * q, {"x_power": k})
    return CheckResult(PASS, note="coefficientwise identity, degrees < n")


# -- open-conjecture scans -------------------------------------------------------

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


def check_conj52(seq: str, claim: str, n: int) -> CheckResult:
    """Exact surrogates for the growth of consecutive terms of R or S."""
    if seq not in ("R", "S") or (seq, claim) not in CONJ52_START:
        raise ValueError("conj52: unknown sequence or claim")
    if n < CONJ52_START[(seq, claim)]:
        raise ValueError("conj52: index below the conjectured range")
    vals = values_of(seq, n + 2)
    if claim == "ratio_step":
        left = vals[n + 2] * vals[n]
        right = vals[n + 1] * vals[n + 1]
        return verdict(
            left > right,
            show(left),
            show(right),
            note="consecutive-ratio increase by cross multiplication",
        )
    if claim == "root_step":
        return verdict(
            pow_compare(vals[n + 1], n, vals[n], n + 1) == 1,
            "term(%d)^%d" % (n + 1, n),
            "term(%d)^%d" % (n, n + 1),
            note="root-ratio term exceeds 1; surrogate for the decrease to 1",
        )
    if seq == "S":
        return verdict(
            vals[n + 1] < 9 * vals[n],
            show(vals[n + 1]),
            show(9 * vals[n]),
            note="ratio below 9; limit value itself not asserted",
        )
    gap = vals[n + 1] - 3 * vals[n]
    bound = 8 * vals[n] * vals[n]
    return verdict(
        gap <= 0 or gap * gap < bound,
        show(gap * gap),
        show(bound),
        note="ratio below 3 + sqrt(8) by exact squaring; limit not asserted",
    )


def _check_kind(
    family: str, kind: Optional[str], n: Optional[int], p: Optional[int]
) -> None:
    """conj54 and conj55 take n alone with kind "divisibility", p alone with
    kind "prime"; the result is stamped with the params as given."""
    if kind not in ("divisibility", "prime"):
        raise ValueError("%s: kind must be divisibility or prime" % family)
    key, value, other = ("n", n, p) if kind == "divisibility" else ("p", p, n)
    if value is None or other is not None:
        raise ValueError("%s: kind %s takes %s alone" % (family, kind, key))


def check_conj54(
    kind: Optional[str] = None, n: Optional[int] = None, p: Optional[int] = None
) -> CheckResult:
    """Square prefix sums of R: divisible by n, or closed forms mod p^2, p^3."""
    _check_kind("conj54", kind, n, p)
    if kind == "divisibility":
        if n < 1:
            raise ValueError("conj54: need n >= 1")
        return _divisibility(
            [
                ("tripled square prefix", 3 * _weighted_prefix("R", n, power=2), n),
                ("odd-weighted square prefix", _weighted_prefix("R", n, "odd", 2), n),
            ]
        )
    if p < 3 or not is_prime(p):
        raise ValueError("conj54: p must be an odd prime")
    chi = legendre_symbol(-1, p)
    chains = (
        ("plain", 2, [
            ("square prefix", Fraction(_weighted_prefix("R", p, power=2))),
            ("closed form", Fraction(p, 3) * (11 - 4 * chi)),
        ]),
        ("odd weight", 3, [
            ("odd-weighted prefix", Fraction(_weighted_prefix("R", p, "odd", 2))),
            ("closed form", Fraction(4 * p * chi - p * p)),
        ]),
    )
    return _first_failure(
        _chain(members, p, e, claim=claim) for claim, e, members in chains
    )


def check_conj55(
    kind: Optional[str] = None, n: Optional[int] = None, p: Optional[int] = None
) -> CheckResult:
    """Weighted prefix sums of S: divisible by n^2, or a closed form mod p^3."""
    _check_kind("conj55", kind, n, p)
    if kind == "divisibility":
        if n < 1:
            raise ValueError("conj55: need n >= 1")
        quadrupled = 4 * _weighted_prefix("S", n, "index")
        return _divisibility([("quadrupled weighted prefix", quadrupled, n * n)])
    if not is_prime(p):
        raise ValueError("conj55: p must be prime")
    target = Fraction(p * p, 8) * (5 - 9 * legendre_symbol(p, 3))
    return _chain(
        [
            ("weighted prefix", Fraction(_weighted_prefix("S", p, "index"))),
            ("closed form", target),
        ],
        p,
        3,
    )


def check_conj56(n: int) -> CheckResult:
    """Prefix sums of s, S^+ and S^- are divisible by n^2."""
    if n < 1:
        raise ValueError("conj56: need n >= 1")
    return _divisibility(
        [
            ("plain prefix", _weighted_prefix("s", n), n * n),
            ("plus prefix", _weighted_prefix("Splus", n), n * n),
            ("minus prefix", _weighted_prefix("Sminus", n), n * n),
        ]
    )


def check_remark53(n: int) -> CheckResult:
    """Prefix sums of S^+ and S^- are divisible by n."""
    if n < 1:
        raise ValueError("remark53: need n >= 1")
    return _divisibility(
        [
            ("plus prefix", _weighted_prefix("Splus", n), n),
            ("minus prefix", _weighted_prefix("Sminus", n), n),
        ]
    )


def check_conj58i(m: int, n: int) -> CheckResult:
    """Coefficients of the prefix sum of the S_m polynomials are divisible by n."""
    if n < 1:
        raise ValueError("conj58i: need n >= 1")
    coeffs = _poly_prefix(("S_m", m), n, partial(S_m_poly, m))
    for k, c in enumerate(coeffs):
        if c % n:
            return CheckResult(
                FAIL, lhs=show(c), rhs="0", modulus=str(n), witness={"x_power": k}
            )
    return CheckResult(
        PASS, modulus=str(n), note="coefficient form; covers the per-index tail sums"
    )


# -- irreducibility witness search over prime fields -----------------------------


def _gf(f: Poly, p: int) -> Poly:
    """f with every coefficient reduced mod p."""
    return Poly([c % p for c in f.coeffs])


def _gf_monic(f: Poly, p: int) -> Poly:
    return _gf(f * pow(f.leading(), -1, p), p)


def _gf_powmod(f: Poly, e: int, mod: Poly, p: int) -> Poly:
    """f^e mod (mod, p) for a monic mod.  Every divisor here is monic, so %
    is Poly's integer division, and its remainder reduced mod p is the
    remainder over the field with p elements."""
    out, base = Poly.const(1), _gf(f % mod, p)
    while e:
        if e & 1:
            out = _gf(out * base % mod, p)
        base = _gf(base * base % mod, p)
        e >>= 1
    return out


def _gf_gcd(f: Poly, g: Poly, p: int) -> Poly:
    while g:
        f, g = g, _gf(f % _gf_monic(g, p), p)
    return f


def _irreducible_mod(coeffs: Sequence[int], p: int) -> bool:
    """Distinct-degree irreducibility test in the field with p elements.

    Requires p not to divide the leading coefficient, so reduction keeps
    the degree.  A reducible f of degree d, squarefree or not, has an
    irreducible factor of some degree e <= d/2, and that factor divides
    x^(p^e) - x; so f is irreducible exactly when gcd(f, x^(p^e) - x) = 1
    for every e <= d/2.  The test stops at the first e that finds a factor.
    """
    f = _gf(Poly(coeffs), p)
    d = f.degree
    if d != len(coeffs) - 1:
        return False
    f = _gf_monic(f, p)
    power = X  # x^(p^e) reduced mod f
    for _ in range(d // 2):
        power = _gf_powmod(power, p, f, p)
        h = _gf(power - X, p)
        if not h or _gf_gcd(f, h, p).degree > 0:
            return False
    return True


def conj53_witness(
    n: int, p_candidates: Optional[Sequence[int]] = None
) -> CheckResult:
    """Hunt for a prime modulus certifying that both coefficient polynomials
    of index n are irreducible over the rationals.

    Both polynomials have constant term +-1, hence are primitive, so
    degree-preserving irreducibility mod any single prime suffices.
    Exhausting the candidate list is INCONCLUSIVE, never FAIL: reducibility
    mod every tested prime proves nothing either way.
    """
    if n < 1:
        raise ValueError("conj53_witness: need n >= 1")
    if p_candidates is None:
        p_candidates = primes_up_to(200)
    notes = []
    for label, poly in (("R", R_poly(n)), ("S", S_poly(n))):
        if poly.degree <= 1:
            notes.append("%s: degree %d" % (label, poly.degree))
            continue
        hit = None
        for p in p_candidates:
            if p < 2 or not is_prime(p) or poly.leading() % p == 0:
                continue
            if _irreducible_mod(poly.coeffs, p):
                hit = p
                break
        if hit is None:
            return CheckResult(
                INCONCLUSIVE,
                witness={"polynomial": label},
                note="no candidate prime certified irreducibility",
            )
        notes.append("%s: irreducible mod %d" % (label, hit))
    return CheckResult(PASS, note="; ".join(notes))
