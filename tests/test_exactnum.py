"""Integer and rational arithmetic helpers."""

import random
from fractions import Fraction
from functools import partial

import pytest

from congrkit import displays, exactnum, qalgebra, residues, sequences
from congrkit.exactnum import (
    DenominatorNotInvertible,
    bernoulli_number,
    bernoulli_poly_eval,
    binomial,
    catalan,
    central_binomial_over_2k_minus_1,
    is_prime,
    legendre_symbol,
    pow_compare,
    primes_up_to,
    residue_of_rational,
    residues_congruent,
    two_square_decompose,
)
from congrkit.polynomials import Poly
from congrkit.sequences import R_values, S_values


def test_binomial_basic_values():
    assert binomial(5, 2) == 10
    assert binomial(-3, 2) == 6
    assert binomial(6, 3) == 20
    assert binomial(6, 3) % 5 == 0
    assert binomial(6, 3) // 5 == 2 * catalan(2)


def test_binomial_edge_arguments():
    assert binomial(0, 0) == 1
    assert binomial(4, 7) == 0
    assert binomial(-1, 0) == 1
    with pytest.raises(ValueError):
        binomial(4, -1)


def test_binomial_negation_rule():
    for n in range(31):
        for k in range(31):
            assert binomial(-n, k) == (-1) ** k * binomial(n + k - 1, k)


def test_binomial_pascal_rule_wide_range():
    for n in range(-50, 51):
        for k in range(1, 31):
            assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)


def test_central_binomial_divisibilities():
    for k in range(201):
        c = binomial(2 * k, k)
        assert c % (2 * k - 1) == 0
        assert c % (k + 1) == 0


def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(5) == 42


def test_central_over_odd_values():
    assert central_binomial_over_2k_minus_1(0) == -1
    assert central_binomial_over_2k_minus_1(1) == 2
    assert central_binomial_over_2k_minus_1(4) == 10
    for k in range(120):
        got = central_binomial_over_2k_minus_1(k)
        assert got * (2 * k - 1) == binomial(2 * k, k)


def test_legendre_symbol_values():
    assert legendre_symbol(2, 7) == 1
    assert legendre_symbol(-1, 3) == -1
    assert legendre_symbol(5, 5) == 0


def test_legendre_symbol_multiplicative():
    for p in primes_up_to(499):
        if p == 2:
            continue
        for a in range(-6, 7):
            la = legendre_symbol(a, p)
            for b in range(-6, 7):
                assert legendre_symbol(a * b, p) == la * legendre_symbol(b, p)


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    for m in range(3, 61, 2):
        assert bernoulli_number(m) == 0


def test_bernoulli_denominator_cleared_by_factorial():
    fact = 1
    for m in range(61):
        fact *= m + 1
        assert (bernoulli_number(m) * fact).denominator == 1


def test_bernoulli_polynomial_values():
    assert bernoulli_poly_eval(1, Fraction(1, 3)) == Fraction(-1, 6)
    assert bernoulli_poly_eval(0, Fraction(7, 2)) == 1
    assert bernoulli_poly_eval(2, 0) == Fraction(1, 6)


def test_bernoulli_polynomial_difference_rule():
    # B_m(x+1) - B_m(x) = m x^(m-1)
    for m in range(1, 12):
        for x in (Fraction(0), Fraction(2, 3), Fraction(-5, 7), Fraction(4)):
            step = bernoulli_poly_eval(m, x + 1) - bernoulli_poly_eval(m, x)
            assert step == m * x ** (m - 1)


def test_two_square_examples():
    five = two_square_decompose(5)
    assert (five.x, five.y) == (1, 2)
    thirteen = two_square_decompose(13)
    assert (thirteen.x, thirteen.y) == (-3, 2)
    with pytest.raises(ValueError):
        two_square_decompose(7)


def test_two_square_normalized_below_1e5():
    for p in primes_up_to(100_000):
        if p % 4 != 1:
            continue
        d = two_square_decompose(p)
        assert d.x * d.x + d.y * d.y == p
        assert d.x % 4 == 1
        assert d.y > 0


def test_residue_of_rational_examples():
    assert residue_of_rational(Fraction(7, 8), 5, 2).value == 4
    assert residue_of_rational(3, 7, 1).value == 3
    with pytest.raises(DenominatorNotInvertible):
        residue_of_rational(Fraction(1, 5), 5, 2)


def test_residue_of_rational_roundtrip():
    rng = random.Random("residues")
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13])
        e = rng.randint(1, 3)
        den = rng.randint(1, 60)
        if den % p == 0:
            den += 1
        r = Fraction(rng.randint(-400, 400), den)
        res = residue_of_rational(r, p, e)
        assert 0 <= res.value < p**e
        assert (r.denominator * res.value - r.numerator) % p**e == 0
        assert residues_congruent(r, res.value, p, e)


def test_pow_compare_orderings():
    assert pow_compare(2, 10, 3, 6) == 1
    assert pow_compare(8, 100, 2, 300) == 0
    assert pow_compare(3, 1000, 2, 1586) == -1
    assert pow_compare(3, 1000, 2, 1584) == 1


def test_pow_compare_matches_exact_on_small_grid():
    for a in range(1, 8):
        for b in range(1, 8):
            for ea in range(6):
                for eb in range(6):
                    want = (a**ea > b**eb) - (a**ea < b**eb)
                    assert pow_compare(a, ea, b, eb) == want


# -- pow_compare against the exact powers -----------------------------------------


def _exact_order(a, ea, b, eb):
    x, y = a**ea, b**eb
    return (x > y) - (x < y)


def test_pow_compare_matches_exact_on_random_wide_bases():
    rng = random.Random("pow_compare")
    for _ in range(400):
        a, b = (rng.getrandbits(rng.randint(1, 300)) | 1 for _ in "ab")
        ea, eb = rng.randint(0, 60), rng.randint(0, 60)
        assert pow_compare(a, ea, b, eb) == _exact_order(a, ea, b, eb)


def test_pow_compare_on_bases_narrower_than_the_bracket():
    rng = random.Random("narrow")
    for _ in range(400):
        a, b = (rng.getrandbits(rng.randint(1, 100)) | 1 for _ in "ab")
        ea, eb = rng.randint(0, 60), rng.randint(0, 60)
        assert pow_compare(a, ea, b, eb) == _exact_order(a, ea, b, eb)


def test_pow_compare_decides_near_ties_and_exact_ties():
    assert pow_compare(8, 100, 2, 300) == 0
    assert pow_compare(27, 40, 3, 120) == 0
    rng = random.Random("ties")
    for _ in range(40):
        a = rng.getrandbits(rng.randint(2, 300)) | 1
        e = rng.randint(2, 60)
        assert pow_compare(a, e, a, e) == 0
        assert pow_compare(a**2, e, a, 2 * e) == 0
        # one unit away from a power whose bracket is cut at every step
        for d in (-1, 0, 1):
            assert pow_compare(a, e, a**e + d, 1) == -d
            assert pow_compare(a**e + d, 1, a, e) == d


@pytest.mark.parametrize("values", (R_values, S_values))
def test_pow_compare_on_every_conj52_root_step_pair(values):
    vals = values(301)
    for n in range(1, 301):
        want = _exact_order(vals[n + 1], n, vals[n], n + 1)
        assert pow_compare(vals[n + 1], n, vals[n], n + 1) == want


def test_pow_bracket_encloses_the_power():
    rng = random.Random("bracket")
    for _ in range(300):
        a = rng.getrandbits(rng.randint(1, 300)) or 1
        e = rng.randint(0, 60)
        for bits in (8, 128):
            lo, hi, shift = exactnum._pow_bracket(a, e, bits)
            assert lo << shift <= a**e <= hi << shift
            # rounding hi up may carry into one more bit
            assert hi.bit_length() <= bits + 1


def test_pow_compare_rejects_bad_arguments():
    for args in ((0, 1, 2, 1), (2, 1, -3, 1), (2, -1, 2, 1), (2, 1, 2, -1)):
        with pytest.raises(ValueError):
            pow_compare(*args)


def test_primes_up_to_and_is_prime_agree():
    ps = primes_up_to(1000)
    assert ps[:5] == [2, 3, 5, 7, 11]
    assert ps[-1] == 997
    assert primes_up_to(1) == []
    marked = set(ps)
    for n in range(1001):
        assert is_prime(n) == (n in marked)


def test_bernoulli_table_stays_aligned_under_thread_races(cold_memos, race):
    results = race(lambda: bernoulli_number(120))
    table = list(exactnum._BERNOULLI)
    cold_memos()
    assert results == [bernoulli_number(120)] * 4
    assert len(table) == 121
    assert table == exactnum._BERNOULLI


def test_clear_memos_resets_every_registered_memo(cold_memos):
    bernoulli_number(30)
    qalgebra.qbinom(10, 5)
    sequences.R(20)  # grows the central rows
    qalgebra.cyclotomic(12)
    sequences._poly_prefix(("S_m", 2), 10, partial(sequences.S_m_poly, 2))
    displays._grid_products(2, 5)
    residues.check_thm11(13)  # grows the shared power-sum prefixes and R values
    cold_memos()
    assert exactnum._BERNOULLI == [Fraction(1)]
    assert (sequences._CENTRAL, sequences._CENTRAL_OVER) == ([1], [-1])
    assert exactnum._PREFIX_SUMS == {}
    for memo, seed in exactnum._MEMOS:
        if seed is None:
            assert memo.cache_info().currsize == 0, memo
        else:
            assert memo == seed  # a list's seed, or {} for a dict


def test_exact_div_takes_ints_and_polynomials():
    assert exactnum._exact_div(-12, 4) == -3
    assert exactnum._exact_div(Poly((-1, 0, 1)), Poly((1, 1))) == Poly((-1, 1))
    with pytest.raises(ArithmeticError, match="7 / 2"):
        exactnum._exact_div(7, 2)
    with pytest.raises(ArithmeticError):
        exactnum._exact_div(Poly((1, 0, 1)), Poly((1, 1)))
