"""Polynomial core: normalization, ring operations, division, rendering."""

import random
from fractions import Fraction

from congrkit import polynomials
from congrkit.polynomials import _KRONECKER_CUTOFF, Poly, _kronecker_convolve, poly_gcd


def test_trailing_zeros_are_pruned():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert Poly((0, 0)).is_zero()
    assert Poly(()).degree == -1
    assert Poly((0, 0, 3)).degree == 2


def test_integral_fractions_collapse_to_ints():
    assert Poly((Fraction(4, 2),)) == Poly((2,))
    assert Poly((1, 2)).is_integral()
    assert not Poly((Fraction(1, 2), 1)).is_integral()
    assert Poly(c for c in (3, 0, 1, 0)) == Poly((3, 0, 1))
    mixed = Poly((1, Fraction(6, 3), 5))
    assert mixed.coeffs == (1, 2, 5)
    assert all(type(c) is int for c in mixed.coeffs)
    assert mixed.is_integral()
    half = Poly((1, Fraction(1, 2), 0, 0))
    assert half.coeffs == (1, Fraction(1, 2))
    assert not half.is_integral()


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def test_multiplication_matches_naive_convolution():
    rng = random.Random("poly-mul")
    for _ in range(40):
        a = [rng.randint(-99, 99) for _ in range(rng.randint(1, 12))]
        b = [rng.randint(-99, 99) for _ in range(rng.randint(1, 12))]
        assert Poly(a) * Poly(b) == Poly(_schoolbook(a, b))


def test_kronecker_product_matches_schoolbook_across_the_cutoff():
    rng = random.Random("poly-kronecker")
    edges = (0, 1, 255, 256, 2**64, 10**30)

    def coeffs(n):
        if rng.random() < 0.25:
            # one magnitude and sign throughout: the middle coefficients
            # of the product reach the packing bound exactly
            cs = [rng.choice((-1, 1)) * rng.choice(edges[1:])] * n
        else:
            cs = [rng.choice((-1, 1)) * rng.choice(edges) for _ in range(n)]
        if n > 3:
            lo = rng.randrange(1, n - 2)
            hi = rng.randrange(lo + 1, n - 1)
            cs[lo:hi] = [0] * (hi - lo)  # a run of interior zeros
        cs[-1] = cs[-1] or -256
        return cs

    crossed = 0
    for la in range(1, 61):
        for lb in (rng.randint(1, 60), 61 - la, la):
            a, b = coeffs(la), coeffs(lb)
            expected = _schoolbook(a, b)
            crossed += len(expected) >= _KRONECKER_CUTOFF
            assert _kronecker_convolve(a, b) == expected
            assert Poly(a) * Poly(b) == Poly(expected)
    assert crossed > 100

    # Two constant runs of length n meet in a middle coefficient n * x * y,
    # the packing bound itself, here at every bit length up to 80, with both
    # operands nonnegative, one negative and both negative.
    for n in (1, 32):
        for bits in range(1, 80):
            for x in (2**bits - 1, 2**bits):
                for sx, sy in ((1, 1), (1, -1), (-1, -1)):
                    a, b = [sx * x] * n, [sy] * n
                    assert _kronecker_convolve(a, b) == _schoolbook(a, b)


def test_a_constant_factor_never_packs(monkeypatch):
    # a one-coefficient operand scales the other through the scalar path,
    # however long the other operand is
    def refuse(a, b):
        raise AssertionError("a constant factor was packed")

    monkeypatch.setattr(polynomials, "_kronecker_convolve", refuse)
    p = Poly(range(1, 61))
    assert len(p.coeffs) + 1 >= _KRONECKER_CUTOFF
    tripled = Poly(3 * c for c in range(1, 61))
    assert Poly((3,)) * p == tripled
    assert p * Poly((3,)) == tripled
    assert p**1 == p


def test_multiplication_with_fraction_scalars():
    p = Poly((Fraction(1, 2), 3)) * Poly((2, 2))
    assert p == Poly((1, 7, 6))
    assert (Poly((1, 1)) * Fraction(1, 3)) == Poly((Fraction(1, 3), Fraction(1, 3)))


def test_add_sub_negate():
    a = Poly((1, 2, 3))
    b = Poly((5, -2))
    assert a + b == Poly((6, 0, 3))
    assert a - b == Poly((-4, 4, 3))
    assert -a == Poly((-1, -2, -3))
    assert a + 1 == Poly((2, 2, 3))
    assert 1 - a == Poly((0, -2, -3))


def test_divmod_reconstructs_dividend():
    rng = random.Random("poly-div")
    scales = random.Random("poly-div-fractions")
    for _ in range(30):
        b = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 9)])
        a = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 10))])
        monic = Poly(b.coeffs[:-1] + (1,))
        fa = a * Fraction(1, scales.randint(2, 5)) + Fraction(1, 3)
        fb = b * Fraction(scales.randint(1, 4), 7)
        fmonic = Poly(fb.coeffs[:-1] + (1,))
        for x, y in ((a, b), (a, monic), (fa, fb), (a, fb), (fa, b), (fa, fmonic)):
            q, r = divmod(x, y)
            assert q * y + r == x
            assert r.is_zero() or r.degree < y.degree
        # a monic divisor of an integer polynomial leaves both parts integral
        q, r = divmod(a, monic)
        assert q.is_integral() and r.is_integral()


def test_power_shift_eval_derivative():
    p = Poly((1, 1))
    assert p**2 == Poly((1, 2, 1))
    assert p**0 == Poly((1,))
    assert Poly((3, 1)).shift(2) == Poly((0, 0, 3, 1))
    assert Poly((-1, 6, 2))(2) == 19
    assert Poly((5, 0, 3)).derivative() == Poly((0, 6))


def test_content_primitive_gcd():
    p = Poly((4, 8, 12))
    assert p.content() == 4
    assert p.primitive() == Poly((1, 2, 3))
    g = poly_gcd(Poly((-1, 0, 1)), Poly((-3, 2, 1)))
    assert g in (Poly((-1, 1)), Poly((1, -1)))


def test_divides_predicate():
    assert Poly((-1, 1)).divides(Poly((1, -2, 1)))
    assert not Poly((1, 1)).divides(Poly((1, 1, 1)))


def test_render_formats():
    assert Poly((-1, 6, 2)).render() == "2*x^2 + 6*x - 1"
    assert Poly((0, 1, -2)).render("q") == "-2*q^2 + q"
    assert Poly(()).render() == "0"
    assert Poly((5,)).render() == "5"
