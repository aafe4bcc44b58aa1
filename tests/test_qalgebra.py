"""q-polynomial algebra: Gaussian binomials, cyclotomics, division, q-checks."""

import random

import pytest

from congrkit import FAIL, PASS, qalgebra, registry
from congrkit.exactnum import binomial
from congrkit.polynomials import Poly, _pack
from congrkit.qalgebra import (
    QRationalFunction,
    check_conj57,
    check_conj58_q,
    check_lemma32,
    check_q_lucas,
    check_theorem31_q,
    check_theorem32_q,
    cyclotomic,
    cyclotomic_divides,
    divides_in_Zq,
    poly_divrem,
    q_binomial,
    q_int,
    q_int_divides,
    q_integer,
    qbinom,
    reduce_mod_qpow_minus_1,
    s_q,
    s_q_poly,
)
from congrkit.qalgebra import _central_q_over, _fold, _fold_sum
from congrkit.qalgebra import _FoldRing, _poly_note
from congrkit.sequences import s_small


def test_q_integer_examples():
    assert q_int(3) == Poly((1, 1, 1))
    assert q_int(0).is_zero()
    neg = q_integer(-1)
    assert neg.num == Poly((-1,))
    assert neg.den == Poly((0, 1))
    assert q_integer(4) == QRationalFunction(q_int(4))


def test_gaussian_binomial_examples():
    assert qbinom(4, 2) == Poly((1, 1, 2, 1, 1))
    assert qbinom(7, 0) == Poly((1,))
    assert qbinom(2, 1) == Poly((1, 1))


def test_gaussian_binomial_negative_upper():
    assert q_binomial(-1, 2) == QRationalFunction(Poly((1,)), Poly.term(1, 3))
    for n in range(-6, 7):
        for k in range(7):
            assert q_binomial(n, k)(1) == binomial(n, k)


def test_q_pascal_rule():
    for n in range(1, 31):
        for k in range(1, 31):
            lhs = qbinom(n, k)
            assert lhs == qbinom(n - 1, k).shift(k) + qbinom(n - 1, k - 1)


def test_degeneration_at_one_degree_and_positivity():
    for n in range(31):
        assert q_int(n)(1) == n
        for k in range(n + 1):
            p = qbinom(n, k)
            assert p(1) == binomial(n, k)
            assert p.degree == k * (n - k)
            assert all(c >= 0 for c in p.coeffs)


def test_cyclotomic_examples():
    assert cyclotomic(1) == Poly((-1, 1))
    assert cyclotomic(4) == Poly((1, 0, 1))
    assert cyclotomic(6) == Poly((1, -1, 1))


def test_cyclotomic_product_identities():
    for n in range(1, 61):
        prod = Poly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod *= cyclotomic(d)
        assert prod == Poly((-1,) + (0,) * (n - 1) + (1,))
    for n in range(2, 61):
        prod = Poly((1,))
        for d in range(2, n + 1):
            if n % d == 0:
                prod *= cyclotomic(d)
        assert prod == q_int(n)


def test_poly_divrem_examples():
    assert poly_divrem(Poly((-1, 0, 1)), Poly((1, 1))) == (Poly((-1, 1)), Poly(()))
    assert poly_divrem(Poly((0, 0, 0, 1)), Poly((1, 1))) == (Poly((1, -1, 1)), Poly((-1,)))
    assert poly_divrem(Poly((-1, 0, 0, 0, 1)), Poly((1, 0, 1))) == (Poly((-1, 0, 1)), Poly(()))
    with pytest.raises(ZeroDivisionError):
        poly_divrem(Poly((1, 1)), Poly(()))


def test_integer_coefficient_divisibility():
    square = Poly((1, 1)) ** 2
    assert divides_in_Zq(square, square * Poly((-2, 3)))
    assert not divides_in_Zq(Poly((1, 1)), Poly((1, 1, 1)))
    assert divides_in_Zq(q_int(3), q_int(6))
    # rational quotient 1/2 must not count
    assert not divides_in_Zq(Poly((2,)), Poly((1,)))


def test_reduction_mod_qpow_minus_1():
    # q^5 folds onto q^2 when n = 3
    assert reduce_mod_qpow_minus_1(Poly.term(1, 5), 3) == Poly.term(1, 2)
    assert q_int_divides(3, q_int(6))
    assert not q_int_divides(4, q_int(6))
    assert cyclotomic_divides(3, q_int(6))


def test_q_lucas_instances():
    for a, b, s, t, d in ((2, 1, 1, 1, 2), (1, 0, 0, 0, 3), (1, 1, 2, 0, 3)):
        assert check_q_lucas(a, b, s, t, d).status == PASS


def test_cumulative_square_sum_cyclotomic_divisibility():
    assert check_lemma32(5, 1).status == PASS
    assert check_lemma32(3, 0).status == PASS
    assert check_lemma32(7, 2).status == PASS
    with pytest.raises(ValueError):
        check_lemma32(4, 2)


def test_weighted_square_prefix_divisible_by_q_integer():
    for n, k in ((1, 0), (4, 1), (6, 2)):
        assert check_theorem31_q(n, k).status == PASS


def test_alternating_mixed_power_sum():
    assert check_theorem32_q(1, 2, 2, 1).status == PASS
    r = check_theorem32_q(3, 1, 1, 1)
    assert r.status == PASS
    assert "q^2" in (r.note or "")
    assert check_theorem32_q(4, 2, 0, 1).status == PASS
    with pytest.raises(ValueError):
        check_theorem32_q(3, 1, 1, 3)


def test_deformed_sum_examples():
    assert s_q(0) == QRationalFunction(Poly((0, -1)))
    assert s_q(1) == QRationalFunction(Poly.term(1, 2))
    for n in range(26):
        assert s_q(n).is_polynomial()
    for n in range(21):
        assert s_q_poly(n)(1) == s_small(n)


def test_half_weighted_prefix_sum_ring_split():
    assert check_conj57(1).status == PASS
    two = check_conj57(2)
    assert two.status == PASS
    assert "(1/2)Z[q]" in (two.note or "")
    assert check_conj57(3).status == PASS


def test_factorial_weighted_prefix_sums():
    for m, n in ((1, 2), (2, 6), (3, 4)):
        assert check_conj58_q(m, n).status == PASS


# -- folded checkers against the full-degree sums -------------------------------
#
# The reference sums below build A at full degree in Z[q], without any fold.
# They read qalgebra.qbinom at call time, so a monkeypatched qbinom falsifies
# them and the checkers alike.


def _power_sum(m, n, k):
    """sum_{h=k}^{n-1} q^h [h choose k]_q^m at full degree."""
    total = Poly()
    for h in range(k, n):
        total += (qalgebra.qbinom(h, k) ** m).shift(h)
    return total


def _exact_thm31(n, k):
    return q_int(2 * k + 1) * qalgebra.qbinom(2 * k, k) * _power_sum(2, n, k)


def _exact_thm32(n, a, b, a_prime):
    total = Poly()
    for k in range(n):
        base = (
            qalgebra.qbinom(n - 1, k) ** a
            * qalgebra.qbinom(n + k, k) ** b
            * q_int(2 * k + 1)
        )
        term = base.shift((n - 1) + a_prime * k * (k + 1) // 2 - k)
        total = total - term if (a_prime * k) % 2 else total + term
    return total


def _exact_conj58(m, n, k):
    prefactor = q_int(k * m + 1)
    for i in range(2, m + 1):
        prefactor *= qalgebra.qbinom(i * k, k)
    return prefactor * _power_sum(m, n, k)


def _residue_note(total, n):
    return _poly_note(divmod(total, q_int(n))[1])


# -- the packed ring Z[q]/(q^n - 1) -> Z/(2^(8wn) - 1) against list oracles ----------


def _rotate(f, e):
    """The fold of q^e times the polynomial whose fold is f."""
    e %= len(f)
    return f[-e:] + f[:-e] if e else f


def _cyclic_mul(a, b):
    """The product of two folds of one length n, mod q^n - 1."""
    out = [0] * len(a)
    for i, c in enumerate(a):
        if c:
            out = [o + c * x for o, x in zip(out, _rotate(b, i))]
    return out


def _folded_product(n, factors):
    """The fold mod q^n - 1 of the product, with every factor folded first."""
    out = [1] + [0] * (n - 1)
    for p in factors:
        out = _cyclic_mul(out, _fold(p.coeffs, n))
    return out


def _packed(n, prefactor, terms):
    ring, x = _fold_sum(n, prefactor, terms)
    return ring, x, ring.unpack(x)


def test_cyclic_product_matches_fold_of_full_product():
    rng = random.Random(20140820)
    for _ in range(300):
        a = Poly([rng.randint(-50, 50) for _ in range(rng.randint(0, 40))])
        b = Poly([rng.randint(-(10**30), 10**30) for _ in range(rng.randint(0, 40))])
        n = rng.randint(1, 30)
        folded = Poly(_cyclic_mul(_fold(a.coeffs, n), _fold(b.coeffs, n)))
        assert folded == reduce_mod_qpow_minus_1(a * b, n)
        assert Poly(_folded_product(n, (a, b, a))) == reduce_mod_qpow_minus_1(
            a * b * a, n
        )


def test_packed_ring_matches_the_list_oracles():
    rng = random.Random("packed-ring")

    def poly():
        top = rng.choice((1, 9, 10**30))
        return Poly([rng.randint(-top, top) for _ in range(rng.randint(0, 50))])

    verdicts = set()
    for _ in range(400):
        n = rng.randint(1, 40)
        a, b = poly(), poly()
        e, power = rng.randint(-60, 60), rng.randint(1, 3)
        full = reduce_mod_qpow_minus_1(a * b, n)
        product = _folded_product(n, (a, b))
        assert Poly(product) == full
        _, _, got = _packed(n, (), [(1, 0, ((a, 1), (b, 1)))])
        assert Poly(got) == full
        _, _, got = _packed(n, (), [(1, 0, ((a, power),))])
        assert got == _folded_product(n, (a,) * power)
        _, _, got = _packed(n, (), [(1, e, ((a, 1),))])
        assert got == _rotate(_fold(a.coeffs, n), e)
        # A = c (q^e b - q^f b [n]_q), which [n]_q divides about half of the time
        c = a * q_int(n) if rng.random() < 0.5 else a
        f = rng.randint(0, 60)
        terms = [(1, e, ((b, 1),)), (-1, f, ((b, 1), (q_int(n), 1)))]
        ring, x, got = _packed(n, (c,), terms)
        left = _rotate(_fold(b.coeffs, n), e)
        right = _rotate(_folded_product(n, (b, q_int(n))), f)
        expected = _cyclic_mul(_fold(c.coeffs, n), [y - z for y, z in zip(left, right)])
        assert got == expected
        verdict = ring.all_equal(x)
        assert verdict == (len(set(got)) == 1) == q_int_divides(n, c * b)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("bound", (1, 2, 127, 128, 255, 256, 2**63 - 1, 10**30))
def test_packed_ring_edges_round_trip_and_decide(bound):
    rng = random.Random(bound)
    for n in (1, 2, 3, 7, 40):
        ring = _FoldRing(n, bound)

        def pack(f):
            return _pack(f, ring.nbytes) % ring.modulus

        folds = [[c] * n for c in (bound, -bound, 1, -1, 0)]
        folds += [[rng.choice((bound, -bound, 0)) for _ in range(n)] for _ in range(20)]
        for f in folds:
            x = pack(f)
            assert 0 <= x < ring.modulus
            assert ring.unpack(x) == f
            assert ring.all_equal(x) == (len(set(f)) == 1)
        # q^5 times an all-equal fold at +-bound keeps it, through the ring
        for c in (bound, -bound):
            x = pack([c] * n) * pack(_fold(Poly.term(1, 5).coeffs, n)) % ring.modulus
            assert ring.all_equal(x) and ring.unpack(x) == [c] * n
        x = (pack([-bound] * n) + pack([bound] + [0] * (n - 1))) % ring.modulus
        assert ring.all_equal(x) == (n == 1)


def _oracle_sample():
    """Every (n, k) with n <= 12 and a seeded sample of larger n up to 30."""
    rng = random.Random("full-degree-sample")
    small = [(n, k) for n in range(1, 13) for k in range(n)]
    return small + [(n, rng.randrange(n)) for n in range(13, 31) for _ in range(2)]


@pytest.fixture
def ring_widths(monkeypatch):
    """The slot widths, in bytes, of every packed ring built during the test."""
    widths = set()

    class Recording(_FoldRing):
        def __init__(self, n, bound):
            super().__init__(n, bound)
            widths.add(self.nbytes)

    monkeypatch.setattr(qalgebra, "_FoldRing", Recording)
    return widths


def test_thm31q_residue_matches_full_degree_oracle(ring_widths):
    for n, k in _oracle_sample():
        r = check_theorem31_q(n, k)
        assert r.lhs == _residue_note(_exact_thm31(n, k), n)
        assert r.status == (PASS if r.lhs == "0" else FAIL)
    assert len(ring_widths) >= 10


def test_lemma32_matches_full_degree_oracle(ring_widths):
    for n, k in _oracle_sample():
        if 2 * k < n - 1:
            r = check_lemma32(n, k)
            total = _power_sum(2, n, k)
            assert r.lhs == _poly_note(total)
            assert r.status == (PASS if cyclotomic_divides(n, total) else FAIL)
    assert len(ring_widths) >= 5


def test_thm32q_residue_matches_full_degree_oracle():
    grid = registry.instances_for("thm32q", {"max_n": 12})
    assert len(grid) == 12 * 15
    for p in grid:
        r = check_theorem32_q(**p)
        exact = _exact_thm32(p["n"], p["a"], p["b"], p["a_prime"])
        assert r.lhs == _residue_note(exact, p["n"])
        assert r.status == (PASS if r.lhs == "0" else FAIL)


def test_conj58q_matches_full_degree_oracle_for_every_k():
    for m in range(1, 4):
        for n in range(1, 13):
            r = check_conj58_q(m, n)
            notes = [_residue_note(_exact_conj58(m, n, k), n) for k in range(n)]
            failing = [k for k, note in enumerate(notes) if note != "0"]
            if failing:
                assert r.status == FAIL
                assert r.witness == {"k": failing[0]}
                assert r.lhs == notes[failing[0]]
            else:
                assert r.status == PASS
                assert r.lhs == "all k < %d" % n


@pytest.fixture
def falsify_qbinom(monkeypatch):
    """Make qalgebra.qbinom(n, k) one larger at a single (n, k).

    The shared rows are left alone: the checkers read every value through
    qbinom, so the falsified one is served to them alone.
    """

    def patch(n0, k0):
        true = qalgebra.qbinom

        def qbinom(n, k):
            value = true(n, k)
            return value + 1 if (n, k) == (n0, k0) else value

        monkeypatch.setattr(qalgebra, "qbinom", qbinom)

    return patch


def test_thm31q_fails_on_falsified_gaussian_binomial(falsify_qbinom):
    falsify_qbinom(4, 2)
    r = check_theorem31_q(7, 2)
    assert r.status == FAIL
    assert r.lhs not in ("0", "")
    assert r.lhs == _residue_note(_exact_thm31(7, 2), 7)


def test_thm32q_fails_on_falsified_gaussian_binomial(falsify_qbinom):
    falsify_qbinom(6, 1)
    r = check_theorem32_q(7, 1, 1, 1)
    assert r.status == FAIL
    assert r.lhs not in ("0", "")
    assert r.lhs == _residue_note(_exact_thm32(7, 1, 1, 1), 7)


def test_conj58q_fails_on_falsified_gaussian_binomial(falsify_qbinom):
    falsify_qbinom(5, 2)
    r = check_conj58_q(2, 7)
    assert r.status == FAIL
    assert r.witness == {"k": 2}
    assert r.lhs not in ("0", "")
    assert r.lhs == _residue_note(_exact_conj58(2, 7, 2), 7)


def test_lemma32_fails_on_falsified_gaussian_binomial(falsify_qbinom):
    falsify_qbinom(4, 2)
    r = check_lemma32(7, 2)
    assert r.status == FAIL
    assert r.lhs == "polynomial of degree 22"


def test_conj57_fails_on_falsified_s_q_poly(monkeypatch):
    # served values only: the _SQ_POLY table keeps the true s_3(q)
    true = qalgebra.s_q_poly
    monkeypatch.setattr(qalgebra, "s_q_poly", lambda k: true(k) + (1 if k == 3 else 0))
    r = check_conj57(5)
    assert r.status == FAIL
    assert r.lhs == "polynomial of degree 19"


def test_qlucas_status_matches_divisibility_of_the_difference():
    grid = registry.instances_for("qlucas")
    assert len(grid) == 4459
    for params in grid:
        a, b, s, t, d = (params[key] for key in "abstd")
        lhs = qbinom(a * d + s, b * d + t)
        rhs = binomial(a, b) * qbinom(s, t)
        expected = PASS if cyclotomic_divides(d, lhs - rhs) else FAIL
        assert check_q_lucas(a, b, s, t, d).status == expected


def test_qlucas_fails_on_falsified_integer_binomial(monkeypatch):
    # [s choose t]_q with t <= s < d is a nonzero residue mod Phi_d, so adding
    # it once more to the right-hand side must break the congruence
    monkeypatch.setattr(qalgebra, "comb", lambda a, b: binomial(a, b) + 1)
    instances = ((2, 1, 1, 1, 2), (1, 0, 0, 0, 3), (3, 1, 2, 0, 3), (4, 2, 0, 0, 1))
    for a, b, s, t, d in instances:
        r = check_q_lucas(a, b, s, t, d)
        assert r.status == FAIL
        assert r.lhs != r.rhs


def test_q_memo_tables_stay_aligned_under_thread_races(cold_memos, race):
    results = race(lambda: qbinom(40, 20))
    rows = list(qalgebra._QBIN_ROWS)
    cold_memos()
    expected = qbinom(40, 20)
    assert results == [expected] * 4
    assert len(rows) == 41
    assert rows == qalgebra._QBIN_ROWS

    results = race(lambda: s_q_poly(12))  # cold s_q table, warm rows
    table = list(qalgebra._SQ_POLY)
    cold_memos()
    assert results == [s_q_poly(12)] * 4
    assert table == qalgebra._SQ_POLY

    # The keyed memos store pure values: a race may compute an entry twice,
    # but every thread returns, and the cache keeps, the values one thread
    # computes alone.
    divisors = [d for d in range(1, 61) if 60 % d == 0]
    for fn, keys in ((cyclotomic, divisors), (_central_q_over, [12])):
        cold_memos()
        results = race(lambda: fn(keys[-1]))
        size = fn.cache_info().currsize
        table = [fn(k) for k in keys]  # cache hits: the entries the race stored
        cold_memos()
        assert results == [fn(keys[-1])] * 4, fn
        assert size == len(keys), fn
        assert table == [fn(k) for k in keys], fn
