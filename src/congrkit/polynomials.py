"""Dense univariate polynomials with exact coefficients.

One representation serves both the x-polynomials of the sequence families
and the q-polynomials of the q-analogue checks: a tuple of coefficients in
ascending degree order with trailing zeros pruned, so the zero polynomial
is the empty tuple and equality is plain tuple equality.  Coefficients are
ints whenever possible; Fractions appear only when a computation genuinely
leaves the integers (rational division, non-monic divmod): divmod is one
long-division loop, which divides by the leading coefficient only when that
is not 1.  Integral Fractions are collapsed to ints only when a Fraction is
present at all, found by a C-level scan of the coefficient types, so integer
arithmetic pays no per-coefficient Python-level type test.

A constant factor scales the other one; integer polynomials otherwise
multiply through Kronecker substitution (pack into one big int, multiply,
unpack): the coefficient convolution becomes one CPython big-int multiply,
which keeps the degree-1000-plus q-polynomial scans affordable.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = ["Poly", "X", "poly_gcd"]

Scalar = Union[int, Fraction]

_KRONECKER_CUTOFF = 40  # schoolbook below this many output coefficients


def _norm_scalar(c: Scalar) -> Scalar:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class Poly:
    """Immutable dense polynomial; value semantics, hashable."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Scalar, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = list(coeffs)
        if Fraction in map(type, cs):
            cs = [_norm_scalar(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls((c,))

    @classmethod
    def term(cls, c: Scalar, e: int) -> "Poly":
        if e < 0:
            raise ValueError("term exponent must be >= 0")
        return cls((0,) * e + (c,))

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_integral(self) -> bool:
        """True iff every coefficient is an integer."""
        # after normalisation a coefficient is an int or a non-integral Fraction
        return Fraction not in map(type, self.coeffs)

    def leading(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Scalar:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return "Poly(%r)" % (list(self.coeffs),)

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly(list(map(operator.add, a, b)) + list(a[len(b) :]))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(list(map(operator.neg, self.coeffs)))

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Poly":
        return Poly.const(other) + (-self)

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        a = self.coeffs
        b = (other,) if isinstance(other, (int, Fraction)) else other.coeffs
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return Poly()
        if len(a) == 1:  # a scalar or a constant scales the other factor
            return Poly(tuple(a[0] * c for c in b))
        if len(a) + len(b) >= _KRONECKER_CUTOFF and self.is_integral() and other.is_integral():
            return Poly(_kronecker_convolve(a, b))
        out: list[Scalar] = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.const(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def shift(self, e: int) -> "Poly":
        """Multiply by x**e."""
        if e < 0:
            raise ValueError("shift exponent must be >= 0")
        if not self.coeffs:
            return self
        return Poly((0,) * e + self.coeffs)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact long division over Q; a monic divisor keeps integer coefficients."""
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a, b = list(self.coeffs), other.coeffs
        db = len(b) - 1
        if len(a) <= db:
            return Poly(), self
        lead = b[-1]
        q: list[Scalar] = [0] * (len(a) - db)
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i]
            if c:
                if lead != 1:
                    c = Fraction(c) / lead
                q[i - db] = c
                a[i] = 0
                for j in range(db):
                    a[i - db + j] -= c * b[j]
        return Poly(q), Poly(a)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        """True iff self divides other exactly (over Q)."""
        if self.is_zero():
            return other.is_zero()
        return divmod(other, self)[1].is_zero()

    # -- evaluation and calculus ----------------------------------------

    def __call__(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _norm_scalar(acc if isinstance(acc, (int, Fraction)) else Fraction(acc))

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    # -- integer-content helpers ----------------------------------------

    def content(self) -> Fraction:
        """gcd of coefficients over Q (positive), 0 for the zero polynomial."""
        from math import gcd

        if not self.coeffs:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.coeffs:
            f = Fraction(c)
            num = gcd(num, f.numerator)
            den = den * f.denominator // gcd(den, f.denominator)
        return Fraction(num, den)

    def primitive(self) -> "Poly":
        """self / content, normalized to a positive leading coefficient."""
        c = self.content()
        if c == 0:
            return self
        p = self * (1 / c)
        return -p if p.leading() < 0 else p

    # -- rendering -------------------------------------------------------

    def render(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if e == 0:
                body = str(mag)
            else:
                xe = var if e == 1 else "%s^%d" % (var, e)
                body = xe if mag == 1 else "%s*%s" % (mag, xe)
            if not parts:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append("%s %s" % (sign, body))
        return " ".join(parts)


X = Poly((0, 1))


def _kronecker_convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Integer coefficient convolution via one big-int multiply."""
    max_a = max(map(abs, a))
    max_b = max(map(abs, b))
    if max_a == 0 or max_b == 0:
        return []
    # Each product coefficient c_i sums at most min(len(a), len(b)) products,
    # so |c_i| <= bound < 2^L with L = bound.bit_length().  A slot of 8 nbytes
    # >= L + 1 bits puts c_i + 2^(8 nbytes - 1) in [0, 2^(8 nbytes)), so no
    # slot carries into the next.
    bound = min(len(a), len(b)) * max_a * max_b
    nbytes = (bound.bit_length() + 8) // 8  # one sign bit
    product = _pack(a, nbytes) * _pack(b, nbytes)
    return _unpack(product, nbytes, len(a) + len(b) - 1)


def _bias(nbytes: int, count: int) -> int:
    """2^(8 nbytes - 1), half a slot, in each of count slots."""
    return int.from_bytes((b"\0" * (nbytes - 1) + b"\x80") * count, "little")


def _pack(cs: Sequence[int], nbytes: int) -> int:
    """sum_i c_i 256^(nbytes i), for |c_i| < 2^(8 nbytes - 1): each slot is
    written as c_i + 2^(8 nbytes - 1), and the sum of those halves taken off."""
    half = 1 << (8 * nbytes - 1)
    raw = b"".join([(c + half).to_bytes(nbytes, "little") for c in cs])
    return int.from_bytes(raw, "little") - _bias(nbytes, len(cs))


def _unpack(value: int, nbytes: int, count: int) -> list[int]:
    """The count slots of value = sum_i c_i 256^(nbytes i), bounded as in _pack."""
    # slot i of value + bias is c_i + half; its top bit flipped, c_i itself
    bias = _bias(nbytes, count)
    raw = ((value + bias) ^ bias).to_bytes(nbytes * count, "little")
    return [
        int.from_bytes(raw[i : i + nbytes], "little", signed=True)
        for i in range(0, len(raw), nbytes)
    ]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic-free gcd over Q, returned primitive with integer coefficients."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.primitive()
