"""q-analogue arithmetic: q-integers, Gaussian binomials, cyclotomic
polynomials, rational functions in q, and the q-congruence checkers.

Divisibility by the q-integer [n]_q = 1 + q + ... + q^(n-1) is decided on
the fold of A modulo q^n - 1 = (q - 1) [n]_q, which sends coefficient i to
slot i mod n.  With f that fold, A mod [n]_q = f mod [n]_q has coefficients
f_i - f_(n-1) for i < n - 1, so [n]_q divides A exactly when all n folded
coefficients are equal.  [n]_q is monic, so a zero remainder automatically
has an integer quotient.  Divisibility by a cyclotomic Phi_d goes through
the same fold followed by one small long division.

The checkers fold in a packed ring: q -> X = 2^(8w) maps Z[q]/(q^n - 1)
into Z/M, M = X^n - 1, a ring homomorphism as X^n is 1 mod M.  Products,
powers and q^e (a shift by 8w (e mod n) bits) are single big-int operations
mod M on factors packed once.  The map is one to one on folds with |c_i| <
X/2: w holds the products of the served factors' l1 norms, summed over the
terms, which bound every |c_i|, plus a sign bit.  With ONES = M // (X - 1),
n equal coefficients d pack to d ONES, and any other F differs from (F &
(X - 1)) ONES by less than X - 1 per slot, so not by a multiple of M: one
comparison decides divisibility.  A fold is unpacked only for a FAIL
residue or a reduction mod Phi_n.

Laurent-monomial prefactors (negative powers of q) that appear in one of
the alternating-sum families are cleared by multiplying the whole sum by
q^(n-1); q is invertible modulo [n]_q (its constant term is 1), so the
congruence is unchanged.  The cleared power is recorded on the result.

The Gaussian-binomial rows and the s_q values are grown-once tables, grown
by the memo pattern of exactnum.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, gcd, lcm, prod
from typing import Callable, Sequence, Union

from .exactnum import _exact_div, _memo_cache, _memo_grow, _memo_table
from .polynomials import Poly, _pack, _unpack, poly_gcd
from .result import FAIL, PASS, CheckResult, verdict

__all__ = [
    "QRationalFunction",
    "check_conj57",
    "check_conj58_q",
    "check_lemma32",
    "check_q_lucas",
    "check_theorem31_q",
    "check_theorem32_q",
    "cyclotomic",
    "cyclotomic_divides",
    "divides_in_Zq",
    "poly_divrem",
    "q_binomial",
    "q_int",
    "q_int_divides",
    "q_integer",
    "qbinom",
    "reduce_mod_qpow_minus_1",
    "s_q",
    "s_q_poly",
]

Scalar = Union[int, Fraction]


# -- polynomial-level q objects ------------------------------------------------


def q_int(n: int) -> Poly:
    """[n]_q = 1 + q + ... + q^(n-1) for n >= 0 (zero polynomial at n = 0)."""
    if n < 0:
        raise ValueError("q_int: n must be >= 0; use q_integer for negative n")
    return Poly((1,) * n)


_QBIN_ROWS: list[list[Poly]] = _memo_table([[Poly((1,))]])


def _qbinom_grow(start: int, upto: int) -> list[list[Poly]]:
    rows, prev = [], _QBIN_ROWS[start - 1]
    for m in range(start, upto + 1):
        row = [Poly((1,))]
        for j in range(1, m // 2 + 1):
            # [m, j] = [m-1, j-1] + q^j [m-1, j] has j + len([m-1, j]) coefficients
            low, high = prev[j - 1].coeffs, prev[j].coeffs
            out = list(low) + [0] * (j + len(high) - len(low))
            out[j:] = map(operator.add, out[j:], high)
            row.append(Poly(out))
        row += [row[m - j] for j in range(len(row), m + 1)]  # [m, j] = [m, m-j]
        rows.append(row)
        prev = row
    return rows


def qbinom(n: int, k: int) -> Poly:
    """Gaussian binomial [n choose k]_q for n >= 0, from the q-Pascal rule."""
    if n < 0 or k < 0:
        raise ValueError("qbinom: need n >= 0 and k >= 0")
    if k > n:
        return Poly()
    return _memo_grow(_QBIN_ROWS, n, _qbinom_grow)[n][k]


@_memo_cache()
def cyclotomic(d: int) -> Poly:
    """The d-th cyclotomic polynomial, by exact division of q^d - 1."""
    if d < 1:
        raise ValueError("cyclotomic: d must be >= 1")
    got = Poly((-1,) + (0,) * (d - 1) + (1,))  # q^d - 1
    for e in range(1, d):
        if d % e == 0:
            got = _exact_div(got, cyclotomic(e))
    return got


def _fold(coeffs: Sequence[Scalar], n: int) -> list[Scalar]:
    """The n coefficients of a mod q^n - 1: coefficient i goes to slot i mod n."""
    if len(coeffs) <= n:
        return list(coeffs) + [0] * (n - len(coeffs))
    return [sum(coeffs[r::n]) for r in range(n)]


class _FoldRing:
    """Z[q]/(q^n - 1) packed mod 2^(8 nbytes n) - 1, for folds bounded by bound."""

    def __init__(self, n: int, bound: int) -> None:
        self.n = n
        self.nbytes = (bound.bit_length() + 8) // 8  # one sign bit
        self.mask = (1 << 8 * self.nbytes) - 1  # X - 1
        self.modulus = (1 << 8 * self.nbytes * n) - 1

    def all_equal(self, x: int) -> bool:
        """True iff the fold packed as x has n equal coefficients."""
        return x == (x & self.mask) * (self.modulus // self.mask)  # d (X^n - 1) / (X - 1)

    def unpack(self, x: int) -> list[int]:
        signed = x - self.modulus if x > self.modulus >> 1 else x
        return _unpack(signed, self.nbytes, self.n)


def _fold_sum(n: int, prefactor: Sequence[Poly], terms: list) -> tuple[_FoldRing, int]:
    """The packed fold of A = prod(prefactor) * sum sign q^e prod p^a over
    the terms (sign, e, ((p, a), ...)), and the ring that holds it."""
    pre = [_fold(p.coeffs, n) for p in prefactor]
    terms = [(sign, e, [(_fold(p.coeffs, n), a) for p, a in fs if a]) for sign, e, fs in terms]
    pre_norm = prod(sum(map(abs, f)) for f in pre)
    norms = [pre_norm * prod(sum(map(abs, f)) ** a for f, a in fs) for _, _, fs in terms]
    ring = _FoldRing(n, sum(norms))
    m = ring.modulus
    total = 0
    for (sign, e, factors), norm in zip(terms, norms):
        if norm:  # a term of norm 0 is 0, and may hold a factor too wide for a slot
            x = 1 << 8 * ring.nbytes * (e % n)
            for f, a in factors:
                x = x * pow(_pack(f, ring.nbytes), a, m) % m
            total += sign * x
    for f in pre if any(norms) else ():
        total = total * _pack(f, ring.nbytes) % m
    return ring, total % m


def _q_int_residue(n: int, prefactor: Sequence[Poly], terms: list) -> Poly:
    """A mod [n]_q for A as in _fold_sum; unpacked only when it is not 0."""
    ring, x = _fold_sum(n, prefactor, terms)
    return Poly() if ring.all_equal(x) else _mod_q_int(ring.unpack(x))


def _mod_q_int(f: list[int]) -> Poly:
    """A mod [n]_q, from the fold f of A mod q^n - 1 (n = len(f))."""
    return Poly([c - f[-1] for c in f[:-1]])


def reduce_mod_qpow_minus_1(a: Poly, n: int) -> Poly:
    """a mod (q^n - 1): fold coefficient i into slot i mod n."""
    if n < 1:
        raise ValueError("modulus exponent must be >= 1")
    return Poly(_fold(a.coeffs, n))


def q_int_divides(n: int, a: Poly) -> bool:
    """True iff [n]_q divides a in Z[q] (a integral; [n]_q is monic)."""
    if n < 1:
        raise ValueError("q_int_divides: n must be >= 1")
    return _mod_q_int(_fold(a.coeffs, n)).is_zero()


def cyclotomic_divides(d: int, a: Poly) -> bool:
    """True iff Phi_d(q) divides a (fold mod q^d - 1, then one long division)."""
    return (reduce_mod_qpow_minus_1(a, d) % cyclotomic(d)).is_zero()


def poly_divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by b over Q."""
    return divmod(a, b)


def divides_in_Zq(b: Poly, a: Poly) -> bool:
    """True iff b divides a with an integer-coefficient quotient."""
    if b.is_zero():
        return a.is_zero()
    q, r = divmod(a, b)
    return r.is_zero() and q.is_integral()


# -- rational functions in q ---------------------------------------------------


class QRationalFunction:
    """num/den with integer-coefficient polynomials, gcd 1, positive-leading den."""

    __slots__ = ("num", "den")

    num: Poly
    den: Poly

    def __init__(self, num: "Poly | Scalar", den: "Poly | Scalar" = 1) -> None:
        if isinstance(num, (int, Fraction)):
            num = Poly.const(num)
        if isinstance(den, (int, Fraction)):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in QRationalFunction")
        scale = 1
        for p in (num, den):
            for c in p.coeffs:
                if isinstance(c, Fraction):
                    scale = lcm(scale, c.denominator)
        if scale != 1:
            num, den = num * scale, den * scale
        if num.is_zero():
            den = Poly((1,))
        else:
            g = poly_gcd(num, den)
            if g.degree >= 1:
                num, den = num // g, den // g
            c = gcd(int(num.content()), int(den.content()))
            if c > 1:
                num, den = num * Fraction(1, c), den * Fraction(1, c)
            if den.leading() < 0:
                num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QRationalFunction is immutable")

    def is_polynomial(self) -> bool:
        return self.den == Poly((1,))

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError("not a polynomial: %s" % (self.render(),))
        return self.num

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QRationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (Poly, int, Fraction)):
            return self == QRationalFunction(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __mul__(self, other: "QRationalFunction | Poly | Scalar") -> "QRationalFunction":
        if not isinstance(other, QRationalFunction):
            other = QRationalFunction(other)
        return QRationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "QRationalFunction | Poly | Scalar") -> "QRationalFunction":
        if not isinstance(other, QRationalFunction):
            other = QRationalFunction(other)
        return QRationalFunction(self.num * other.den, self.den * other.num)

    def __add__(self, other: "QRationalFunction | Poly | Scalar") -> "QRationalFunction":
        if not isinstance(other, QRationalFunction):
            other = QRationalFunction(other)
        return QRationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "QRationalFunction":
        return QRationalFunction(-self.num, self.den)

    def __sub__(self, other: "QRationalFunction | Poly | Scalar") -> "QRationalFunction":
        return self + (-(other if isinstance(other, QRationalFunction) else QRationalFunction(other)))

    def __call__(self, x: Scalar) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at %r" % (x,))
        return Fraction(self.num(x)) / Fraction(d)

    def render(self) -> str:
        if self.is_polynomial():
            return self.num.render("q")
        num = self.num.render("q")
        den = self.den.render("q")
        if sum(1 for c in self.num.coeffs if c) > 1:
            num = "(%s)" % num
        if sum(1 for c in self.den.coeffs if c) > 1:
            den = "(%s)" % den
        return "%s/%s" % (num, den)

    def __repr__(self) -> str:
        return "QRationalFunction(%s)" % (self.render(),)


def q_integer(n: int) -> QRationalFunction:
    """[n]_q for any integer n; negative n gives -[|n|]_q / q^|n|."""
    if n >= 0:
        return QRationalFunction(q_int(n))
    m = -n
    return QRationalFunction(-q_int(m), Poly.term(1, m))


def q_binomial(n: int, k: int) -> QRationalFunction:
    """[n choose k]_q for any integer n, via the falling product for n < 0."""
    if k < 0:
        raise ValueError("q_binomial: k must be >= 0")
    if n >= 0:
        return QRationalFunction(qbinom(n, k))
    num = Poly((1,))
    den = Poly((1,))
    for j in range(k):
        f = q_integer(n - j)
        num *= f.num
        den *= f.den * q_int(j + 1)
    return QRationalFunction(num, den)


# -- the q-sum families ----------------------------------------------------------


@_memo_cache()
def _central_q_over(k: int) -> Poly:
    """qbinom(2k, k) / [2k-1]_q, exact in Z[q] for k >= 1."""
    return _exact_div(qbinom(2 * k, k), q_int(2 * k - 1))


_SQ_POLY: list[Poly] = _memo_table([])


def _s_q_poly_grow(start: int, upto: int) -> list[Poly]:
    out = []
    for m in range(start, upto + 1):
        total = Poly((0, -1))  # k = 0 term: q^0 / [-1]_q = -q
        for k in range(1, m + 1):
            total += (qbinom(m, k) ** 2 * _central_q_over(k)).shift(k)
        out.append(total)
    return out


def s_q_poly(n: int) -> Poly:
    """Polynomial value of the q-analogue sum s_n(q); see s_q."""
    if n < 0:
        raise ValueError("s_q_poly: n must be >= 0")
    return _memo_grow(_SQ_POLY, n, _s_q_poly_grow)[n]


def s_q(n: int) -> QRationalFunction:
    """sum_k [n choose k]_q^2 [2k choose k]_q q^k / [2k-1]_q.

    The k = 0 term divides by [-1]_q = -1/q and contributes -q; every other
    term is polynomial because [2k-1]_q divides [2k choose k]_q.  The value
    is therefore always a polynomial, returned here in rational-function
    clothing to match the signature of the other q-sums.
    """
    return QRationalFunction(s_q_poly(n))


# -- checkers ---------------------------------------------------------------------


def _poly_note(p: Poly) -> str:
    return _lazy_poly_note(p.degree, lambda: p)


def _lazy_poly_note(degree: int, build: Callable[[], Poly]) -> str:
    """The polynomial of that degree, rendered if it is short; built only then."""
    if degree < 16:
        return build().render("q")
    return "polynomial of degree %d" % degree


def check_q_lucas(a: int, b: int, s: int, t: int, d: int) -> CheckResult:
    """[ad+s choose bd+t]_q == binomial(a,b) [s choose t]_q mod Phi_d(q)."""
    if d < 1 or not (0 <= s < d and 0 <= t < d) or a < 0 or b < 0:
        raise ValueError("check_q_lucas: need d >= 1, 0 <= s,t < d, a,b >= 0")
    # reduction mod Phi_d is linear, so equal residues decide the claim
    lhs = reduce_mod_qpow_minus_1(qbinom(a * d + s, b * d + t), d) % cyclotomic(d)
    rhs = reduce_mod_qpow_minus_1(comb(a, b) * qbinom(s, t), d) % cyclotomic(d)
    return verdict(lhs == rhs, _poly_note(lhs), _poly_note(rhs), "Phi_%d(q)" % d)


def check_lemma32(n: int, k: int) -> CheckResult:
    """Phi_n(q) divides sum_{h<n} q^h [h choose k]_q^2 when k < (n-1)/2."""
    if not (0 <= 2 * k < n - 1):
        raise ValueError("check_lemma32: need 0 <= k < (n-1)/2")
    rows = [(h, qbinom(h, k)) for h in range(k, n)]
    ring, x = _fold_sum(n, (), [(1, h, ((p, 2),)) for h, p in rows])
    ok = cyclotomic_divides(n, Poly(ring.unpack(x)))
    # the top coefficients of the q^h p^2 are squares and cannot cancel
    degree = max(h + 2 * p.degree for h, p in rows)
    lhs = _lazy_poly_note(degree, lambda: sum((p * p).shift(h) for h, p in rows))
    return verdict(ok, lhs, "0", "Phi_%d(q)" % n)


def check_theorem31_q(n: int, k: int) -> CheckResult:
    """[n]_q divides [2k+1]_q [2k choose k]_q sum_{h<n} q^h [h choose k]_q^2."""
    if not 0 <= k < n:
        raise ValueError("check_theorem31_q: need 0 <= k < n")
    terms = [(1, h, ((qbinom(h, k), 2),)) for h in range(k, n)]
    residue = _q_int_residue(n, (q_int(2 * k + 1), qbinom(2 * k, k)), terms)
    return verdict(not residue, _poly_note(residue), "0", "[%d]_q" % n)


def check_theorem32_q(n: int, a: int, b: int, a_prime: int) -> CheckResult:
    """Alternating [2k+1]_q [n-1 choose k]^a [n+k choose k]^b sum is 0 mod [n]_q.

    Terms carry q^(a'k(k+1)/2 - k); the whole sum is multiplied by q^(n-1)
    to clear the negative exponents before the divisibility test.
    """
    if n < 1 or a < 0 or b < 0 or a_prime not in (a, a - 1) or a_prime < 0:
        raise ValueError("check_theorem32_q: need n >= 1, a >= a' >= 0, a' in {a, a-1}")
    terms = []
    for k in range(n):
        e = (n - 1) + a_prime * k * (k + 1) // 2 - k
        factors = ((q_int(2 * k + 1), 1), (qbinom(n - 1, k), a), (qbinom(n + k, k), b))
        terms.append((-1 if (a_prime * k) % 2 else 1, e, factors))
    residue = _q_int_residue(n, (), terms)
    return verdict(
        not residue,
        _poly_note(residue),
        "0",
        "[%d]_q" % n,
        note="sum cleared by q^%d" % (n - 1),
    )


def check_conj57(n: int) -> CheckResult:
    """[n]_q^2 divides (1+q) sum_{k<n} q^k s_k(q) over Q[q]; integrality class noted.

    The underlying claim divides the sum by 2, so the meaningful quotient is
    half of the polynomial quotient computed here; the note records whether
    that half-quotient stays in Z[q] or only in (1/2) Z[q].
    """
    if n < 1:
        raise ValueError("check_conj57: n must be >= 1")
    acc = Poly()
    for k in range(n):
        acc += s_q_poly(k).shift(k)
    total = acc * Poly((1, 1))
    quotient, rem = divmod(total, q_int(n) ** 2)
    ok = rem.is_zero()
    note = ""
    if ok:
        half_integral = any(c % 2 for c in quotient.coeffs)
        note = (
            "PASS in Q[q]; half-quotient in (1/2)Z[q] only"
            if half_integral
            else "PASS in Q[q]; half-quotient in Z[q]"
        )
    return verdict(ok, _poly_note(total), "0", "[%d]_q^2" % n, note=note)


def check_conj58_q(m: int, n: int) -> CheckResult:
    """For every k < n, [n]_q divides the [j]_q-product prefactor times
    sum_{h=k}^{n-1} q^h [h choose k]_q^m."""
    if m < 1 or n < 1:
        raise ValueError("check_conj58_q: need m >= 1 and n >= 1")
    for k in range(n):
        # prod_{j<=km+1} [j]_q / (prod_{j<=k} [j]_q)^m
        #   = [km+1]_q prod_{i=2..m} [ik choose k]_q, so nothing is divided
        prefactor = [q_int(k * m + 1)] + [qbinom(i * k, k) for i in range(2, m + 1)]
        terms = [(1, h, ((qbinom(h, k), m),)) for h in range(k, n)]
        residue = _q_int_residue(n, prefactor, terms)
        if residue:
            return CheckResult(
                status=FAIL,
                lhs=_poly_note(residue),
                rhs="0",
                modulus="[%d]_q" % n,
                witness={"k": k},
            )
    return CheckResult(status=PASS, lhs="all k < %d" % n, rhs="0", modulus="[%d]_q" % n)
