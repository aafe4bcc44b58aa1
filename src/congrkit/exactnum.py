"""Exact arithmetic primitives.

Integers are plain Python ints (arbitrary precision), rationals are
fractions.Fraction values, which are kept in lowest terms by construction.
Nothing in this module or its callers ever touches floating point.

Conventions that matter downstream:

* binomial(n, k) is the generalized coefficient prod_{j<k} (n - j) / k!,
  defined for every integer n and natural k.  For negative n it satisfies
  binomial(-n, k) = (-1)**k * binomial(n + k - 1, k).
* central_binomial_over_2k_minus_1(0) == -1 (the k = 0 term carries the
  sign of the 2k - 1 = -1 denominator); for k >= 1 the value is the
  integer binomial(2k, k) // (2k - 1) == 2 * catalan(k - 1).
* bernoulli_number follows the B(1) = -1/2 convention; values come from
  the recurrence sum_{j<=m} binomial(m+1, j) * B(j) == 0 with B(0) == 1.
* two_square_decompose(p) normalizes the odd part x of p = x**2 + y**2 to
  x == 1 (mod 4) (sign choice) and returns y even and positive.

The rows binomial(2k, k) and binomial(2k, k) / (2k - 1) that the sequence
layer and the prime checkers share are grown here (_central_rows), as are
the exact prefixes of linear recurrences (_recurrence_prefix): each term
past the seeds is one exact division by the leading coefficient, and a
remainder raises ArithmeticError (_exact_div, which divides ints or
polynomials alike).  The paper's recurrence
(1.5) of R_poly is stated once, as _R_poly_rec; every other form of it is
derived: at a point x = a/b it grows the values b^n R_poly(n)(a/b) into
one table per point (_R_AT, read through _R_values_at), and at x = 1 it is
recurrence (1.3) of R(n), whose values are that table's (1, 1) row.  The
running sums of a row, U[j + 1] = step(U[j], t_j), are grown here as well
(_prefix_sum, into _PREFIX_SUMS), for the sequence layer and the prime
checkers alike.

Every memo of the package is registered in _MEMOS, as one of two kinds.  A
grown table (_memo_table: a list, or a dict of lists by a small key) grows
only through _memo_grow, and states only the rule for its next entry:
entry(table, i), which reads table[:i] alone, by absolute index.
_memo_grow computes each entry outside _MEMO_LOCK and appends it under it
only if the table still ends at index i, so threads that race never store
an entry at the wrong index.  A
keyed memo (_memo_cache) is an lru_cache of a pure function and takes no
lock: a race may compute an entry twice, but the values are equal.
"""
from __future__ import annotations

import functools
import math
import operator
import threading
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Union

__all__ = [
    "DenominatorNotInvertible",
    "ResidueClass",
    "TwoSquareDecomposition",
    "bernoulli_number",
    "bernoulli_poly_eval",
    "binomial",
    "catalan",
    "central_binomial_over_2k_minus_1",
    "clear_memos",
    "is_prime",
    "legendre_symbol",
    "pow_compare",
    "primes_up_to",
    "residue_of_rational",
    "residues_congruent",
    "two_square_decompose",
]

Rational = Union[int, Fraction]


class DenominatorNotInvertible(ArithmeticError):
    """A rational has no residue mod p**e because p divides its denominator."""


def is_prime(n: int) -> bool:
    """Deterministic trial division; fine for the desk-scale inputs used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def primes_up_to(limit: int) -> list[int]:
    """All primes p <= limit, ascending."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, limit + 1) if sieve[p]]


def binomial(n: int, k: int) -> int:
    """Generalized binomial coefficient for any integer n and natural k."""
    if k < 0:
        raise ValueError("binomial: k must be >= 0, got %r" % (k,))
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    value = math.comb(-n + k - 1, k)
    return -value if k % 2 else value


def catalan(k: int) -> int:
    if k < 0:
        raise ValueError("catalan: k must be >= 0, got %r" % (k,))
    return math.comb(2 * k, k) // (k + 1)


def central_binomial_over_2k_minus_1(k: int) -> int:
    """binomial(2k, k) / (2k - 1), which is an integer for every k >= 0."""
    if k < 0:
        raise ValueError("k must be >= 0, got %r" % (k,))
    if k == 0:
        return -1
    return math.comb(2 * k, k) // (2 * k - 1)


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p), p an odd prime, via Euler's criterion."""
    if p < 3 or not is_prime(p):
        raise ValueError("legendre_symbol: %r is not an odd prime" % (p,))
    r = pow(a % p, (p - 1) // 2, p)
    return r - p if r == p - 1 else r


def _dot(weights: Iterable[int], row: Iterable[int]) -> int:
    """sum_k weights[k] * row[k] over the shorter of the two."""
    return sum(map(operator.mul, weights, row))


_MEMO_LOCK = threading.Lock()  # guards every memo table's check-and-extend
_MEMOS: list = []  # (table, copy of its seed) or (lru_cache, None)


def _memo_table(seed):
    """Register seed, a list or an empty dict, as a grown table; return it."""
    _MEMOS.append((seed, seed.copy()))
    return seed


def _memo_cache(maxsize: Optional[int] = None) -> Callable[[Callable], Callable]:
    """Decorator: functools.lru_cache(maxsize), registered as a keyed memo."""

    def wrap(fn: Callable) -> Callable:
        cached = functools.lru_cache(maxsize)(fn)
        _MEMOS.append((cached, None))
        return cached

    return wrap


def clear_memos() -> None:
    """Reset every registered memo in place: lists to their seeds, the rest empty."""
    with _MEMO_LOCK:
        for memo, seed in _MEMOS:
            if seed is None:
                memo.cache_clear()
            elif isinstance(memo, list):
                memo[:] = seed
            else:
                memo.clear()


def _memo_grow(table: list, upto: int, entry: Callable[[list, int], object]) -> list:
    """table, first extended through index upto.

    entry(table, i) returns entry i and may read only table[:i], by absolute
    index: no thread changes that prefix any more.  Each entry is computed
    outside _MEMO_LOCK and appended under it only if no other thread has
    stored index i first.
    """
    while (i := len(table)) <= upto:
        value = entry(table, i)
        with _MEMO_LOCK:
            if len(table) == i:
                table.append(value)
    return table


def _exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("expected exact division: %s / %s" % (a, b))
    return q


# -- the shared central rows and recurrence prefixes ----------------------------

_CENTRAL = _memo_table([1])  # binomial(2k, k)
_CENTRAL_OVER = _memo_table([-1])  # binomial(2k, k) // (2k - 1)


def _central_rows(upto: int) -> tuple[list[int], list[int]]:
    """The shared rows through index upto; callers must not mutate them."""
    central = _memo_grow(_CENTRAL, upto, lambda c, k: c[k - 1] * (2 * (2 * k - 1)) // k)
    return central, _memo_grow(
        _CENTRAL_OVER, upto, lambda _, k: central[k] // (2 * k - 1)
    )


# n -> (c0, ..., cd), the coefficients of an order-d recurrence at n
_Recurrence = Callable[[int], tuple[int, ...]]


def _recurrence_prefix(
    cache: list[int],
    n_max: int,
    seed: Callable[[int], int],
    rec: _Recurrence,
) -> list[int]:
    """cache[: n_max + 1], extending cache with seed(i) for i < d and beyond
    that with the term the coefficients rec(i - d) force, divided exactly;
    d is the order, one less than the length of rec's tuple."""
    order = len(rec(0)) - 1

    def entry(vals: list[int], i: int) -> int:
        if i < order:
            return seed(i)
        *low, lead = rec(i - order)
        return _exact_div(_dot(low, vals[i - order : i]), -lead)

    return _memo_grow(cache, n_max, entry)[: n_max + 1]


_PREFIX_SUMS: dict[object, list] = _memo_table({})


def _prefix_sum(
    key: object, n: int, terms: Callable[[int, int], list], step=operator.add, zero=0
) -> object:
    """Entry n of the running sums memoized as _PREFIX_SUMS[key], whose entry 0
    is zero and entry j + 1 is step(entry j, term j).

    terms(lo, hi) returns the terms lo..hi-1.
    """
    table = _PREFIX_SUMS.setdefault(key, [zero])
    lo = len(table) - 1
    if lo < n:
        row = list(terms(lo, n))
        _memo_grow(table, n, lambda t, j: step(t[j - 1], row[j - 1 - lo]))
    return table[n]


# -- recurrence (1.5) of R_poly and its values at rational points ----------------


def _R_poly_rec(n: int) -> tuple[tuple[int, int], ...]:
    """Recurrence (1.5): the pairs (c_j, d_j) with
    sum_j (c_j + d_j x) R_poly(n + j)(x) = 0 over j = 0, ..., 3."""
    return (
        (n + 1, 0),
        (-(3 * n + 5), -(4 * n + 10)),
        (3 * n + 7, 4 * n + 6),
        (-(n + 3), 0),
    )


def _R_rec_at(a: int, b: int) -> _Recurrence:
    """The recurrence of b^n R_poly(n)(a/b): (1.5) at x = a/b, times
    b^(n+4).  At x = 1 it is recurrence (1.3) of R(n)."""

    def rec(n: int) -> tuple[int, ...]:
        pairs = _R_poly_rec(n)
        top = len(pairs) - 1
        return tuple(
            (c * b + d * a) * b ** (top - j) for j, (c, d) in enumerate(pairs)
        )

    return rec


def _R_seed_at(a: int, b: int, n: int) -> int:
    """b^n R_poly(n)(a/b) from the defining sum: the x^k coefficient of
    R_poly(n) is binomial(n+k, 2k) binomial(2k, k)/(2k - 1)."""
    return sum(
        binomial(n + k, 2 * k)
        * central_binomial_over_2k_minus_1(k)
        * a**k
        * b ** (n - k)
        for k in range(n + 1)
    )


# (a, b) -> [b^n R_poly(n)(a/b) for n = 0, 1, ...]; the (1, 1) row is R(n)
_R_AT: dict[tuple[int, int], list[int]] = _memo_table({})


def _R_values_at(a: int, b: int, n_max: int) -> list[int]:
    """[b^n R_poly(n)(a/b) for n <= n_max], exact, from the shared prefix
    for the point a/b, seeded for n < 3 by the defining sum."""
    cache = _R_AT.setdefault((a, b), [])
    seed = functools.partial(_R_seed_at, a, b)
    return _recurrence_prefix(cache, n_max, seed, _R_rec_at(a, b))


_BERNOULLI: list[Fraction] = _memo_table([Fraction(1)])


def _bernoulli_entry(values: list[Fraction], i: int) -> Fraction:
    # odd-index values beyond B(1) are zero, so skip them as addends
    acc = Fraction(0)
    for j, bj in enumerate(values[:i]):
        if bj:
            acc += math.comb(i + 1, j) * bj
    return -acc / (i + 1)


def bernoulli_number(m: int) -> Fraction:
    """B(m) with B(1) = -1/2, from sum_{j<=m} binomial(m+1, j) B(j) == 0."""
    if m < 0:
        raise ValueError("bernoulli_number: m must be >= 0, got %r" % (m,))
    return _memo_grow(_BERNOULLI, m, _bernoulli_entry)[m]


def bernoulli_poly_eval(m: int, x: Rational) -> Fraction:
    """Value of the m-th Bernoulli polynomial at a rational point."""
    if m < 0:
        raise ValueError("bernoulli_poly_eval: m must be >= 0, got %r" % (m,))
    bernoulli_number(m)  # warm the cache through index m
    x = Fraction(x)
    # Horner for sum_k binomial(m, k) B(k) x^(m-k): ascending k so that
    # B(0) picks up the full power x^m
    acc = Fraction(0)
    for k in range(m + 1):
        acc = acc * x + math.comb(m, k) * _BERNOULLI[k]
    return acc


class TwoSquareDecomposition(NamedTuple):
    p: int
    x: int  # odd, x == 1 (mod 4)
    y: int  # even, y > 0


def two_square_decompose(p: int) -> TwoSquareDecomposition:
    """Write the prime p == 1 (mod 4) as x**2 + y**2, normalized as above."""
    if not is_prime(p):
        raise ValueError("two_square_decompose: %r is not prime" % (p,))
    if p % 4 != 1:
        raise ValueError("two_square_decompose: %r is not 1 mod 4" % (p,))
    for t in range(1, math.isqrt(p) + 1):
        rest = p - t * t
        r = math.isqrt(rest)
        if r * r == rest:
            odd, even = (t, r) if t % 2 else (r, t)
            x = odd if odd % 4 == 1 else -odd
            return TwoSquareDecomposition(p, x, even)
    raise AssertionError("unreachable: every prime 1 mod 4 is a sum of two squares")


class _ResidueFields(NamedTuple):
    value: int
    modulus: int


class ResidueClass(_ResidueFields):
    """An element of Z / p**e Z, stored as the least nonnegative representative."""

    __slots__ = ()

    def __new__(cls, value: int, modulus: int) -> ResidueClass:
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        return super().__new__(cls, value % modulus, modulus)

    def __int__(self) -> int:
        return self.value

    def is_zero(self) -> bool:
        return self.value == 0


def residue_of_rational(r: Rational, p: int, e: int = 1) -> ResidueClass:
    """Reduce an exact rational mod p**e; the denominator must be prime to p."""
    if e < 1:
        raise ValueError("residue_of_rational: e must be >= 1, got %r" % (e,))
    if not is_prime(p):
        raise ValueError("residue_of_rational: %r is not prime" % (p,))
    r = Fraction(r)
    if r.denominator % p == 0:
        raise DenominatorNotInvertible(
            "denominator %d is divisible by %d" % (r.denominator, p)
        )
    modulus = p**e
    value = r.numerator * pow(r.denominator, -1, modulus) % modulus
    return ResidueClass(value, modulus)


def residues_congruent(a: Rational, b: Rational, p: int, e: int = 1) -> bool:
    """True iff a == b mod p**e after exact evaluation of both sides."""
    return residue_of_rational(Fraction(a) - Fraction(b), p, e).is_zero()


def _pow_bracket(a: int, e: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, shift) with lo * 2**shift <= a**e <= hi * 2**shift, a >= 1.

    Square-and-multiply on the interval [lo, hi]: after every step both ends
    are cut back to about bits bits, lo rounded down and hi rounded up, so
    the invariant survives each step and no product outgrows 3 * bits bits.
    """
    cut = max(a.bit_length() - bits, 0)
    base_lo = a >> cut
    base_hi = base_lo + (cut > 0)
    lo = hi = 1
    shift = 0
    for bit in bin(e)[2:]:
        lo, hi, shift = lo * lo, hi * hi, 2 * shift
        if bit == "1":
            lo, hi, shift = lo * base_lo, hi * base_hi, shift + cut
        drop = hi.bit_length() - bits
        if drop > 0:
            lo >>= drop
            hi = -(-hi >> drop)
            shift += drop
    return lo, hi, shift


def _scaled_less(x: int, sx: int, y: int, sy: int) -> bool:
    """x * 2**sx < y * 2**sy for x, y >= 0, without building either side."""
    if not x or not y:
        return x < y
    tx, ty = x.bit_length() + sx, y.bit_length() + sy
    if tx != ty:
        return tx < ty
    # equal top bit positions, so the shifts differ by less than the longer length
    return x << (sx - sy) < y if sx >= sy else x < y << (sy - sx)


def pow_compare(a: int, ea: int, b: int, eb: int) -> int:
    """Compare a**ea with b**eb (a, b > 0; ea, eb >= 0), returning -1, 0 or 1.

    Each power is first bracketed as lo * 2**shift <= a**ea <= hi * 2**shift
    by _pow_bracket, with lo and hi held to a fixed width of 128 bits, then
    512 bits; disjoint brackets decide the order.  Only brackets that still
    overlap, as exact ties always do, fall back to the exact powers.
    """
    if a <= 0 or b <= 0:
        raise ValueError("pow_compare expects positive bases")
    if ea < 0 or eb < 0:
        raise ValueError("pow_compare expects exponents >= 0")
    for bits in (128, 512):
        lo_a, hi_a, sa = _pow_bracket(a, ea, bits)
        lo_b, hi_b, sb = _pow_bracket(b, eb, bits)
        if _scaled_less(hi_b, sb, lo_a, sa):
            return 1
        if _scaled_less(hi_a, sa, lo_b, sb):
            return -1
    x, y = a**ea, b**eb
    return (x > y) - (x < y)
