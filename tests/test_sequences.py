"""Sequence generators against frozen terminal values and closed-form sums."""

import math
from fractions import Fraction

import pytest

from congrkit import FAIL, PASS, exactnum, sequences
from congrkit.exactnum import binomial
from congrkit.polynomials import Poly
from congrkit.result import show
from congrkit.sequences import (
    R,
    R_poly,
    R_polys,
    R_values,
    S,
    S_cminus,
    S_cplus,
    S_m_poly,
    S_poly,
    S_values,
    T_minus,
    T_plus,
    T_seq,
    check_recurrence_R,
    check_recurrence_R_poly,
    check_recurrence_S,
    _binom_row,
    h,
    ratio_sum,
    s_small,
    schroder,
    t_seq,
    values_of,
)

R_GOLDEN = [
    -1, 1, 7, 25, 87, 329, 1359, 6001, 27759, 132689, 649815, 3242377,
    16421831, 84196761, 436129183, 2278835681, 11996748255,
]
S_GOLDEN = [
    1, 7, 55, 465, 4047, 35673, 316521, 2819295, 25173855, 225157881,
    2016242265, 18070920255, 162071863425,
]
R_POLY_GOLDEN = [
    (-1,),
    (-1, 2),
    (-1, 6, 2),
    (-1, 12, 10, 4),
    (-1, 20, 30, 28, 10),
    (-1, 30, 70, 112, 90, 28),
]
S_POLY_GOLDEN = [
    (1,),
    (1, 6),
    (1, 24, 30),
    (1, 54, 270, 140),
    (1, 96, 1080, 2240, 630),
    (1, 150, 3000, 14000, 15750, 2772),
]


def test_R_terminal_values():
    assert [R(n) for n in range(17)] == R_GOLDEN
    assert R_values(16) == R_GOLDEN
    assert R(0) == -1 and R(2) == 7 and R(16) == 11996748255


def test_S_terminal_values():
    assert [S(n) for n in range(13)] == S_GOLDEN
    assert S_values(12) == S_GOLDEN
    assert S(0) == 1 and S(3) == 465 and S(12) == 162071863425


def test_negative_index_rejected():
    for f in (R, S, schroder, t_seq, s_small):
        with pytest.raises(ValueError):
            f(-1)


def test_R_matches_both_closed_forms():
    for n in range(201):
        first = sum(
            Fraction(math.comb(n, k) * math.comb(n + k, k), 2 * k - 1)
            for k in range(n + 1)
        )
        second = sum(
            Fraction(math.comb(n + k, 2 * k) * math.comb(2 * k, k), 2 * k - 1)
            for k in range(n + 1)
        )
        assert first == second == R(n)


def test_schroder_matches_both_closed_forms():
    assert schroder(0) == 1
    assert schroder(2) == 6
    assert schroder(3) == 22
    for n in range(201):
        first = sum(
            Fraction(math.comb(n, k) * math.comb(n + k, k), k + 1)
            for k in range(n + 1)
        )
        second = sum(
            math.comb(n + k, 2 * k) * math.comb(2 * k, k) // (k + 1)
            for k in range(n + 1)
        )
        assert first == second == schroder(n)


def test_central_delannoy_square_sum():
    assert h(0) == 1
    assert h(2) == 7
    assert h(3) == 33
    for n in range(60):
        assert h(n) == sum(
            math.comb(n, k) ** 2 * math.comb(2 * k, k) // (k + 1) for k in range(n + 1)
        )


def test_polynomial_coefficient_tables():
    for n, coeffs in enumerate(R_POLY_GOLDEN):
        assert R_poly(n) == Poly(coeffs)
    for n, coeffs in enumerate(S_POLY_GOLDEN):
        assert S_poly(n) == Poly(coeffs)
    assert R_polys(5)[-1] == R_poly(5)


def test_polynomial_boundary_evaluations():
    for n in range(301):
        rp = R_poly(n)
        assert rp(1) == R(n)
        assert rp(0) == -1
        sp = S_poly(n)
        assert sp(1) == S(n)
        assert sp[0] == 1
        assert rp.is_integral() and sp.is_integral()


def test_mixed_power_polynomials():
    assert S_m_poly(2, 2) == S_poly(2)
    assert S_m_poly(1, 1) == Poly((1, 2))
    assert S_m_poly(3, 0) == Poly((1,))
    for n in range(101):
        assert S_m_poly(2, n) == S_poly(n)


def test_S_family_matches_definitional_sums():
    # S, S_poly and S_m_poly(2, .) read one shared row, so comparing them with
    # each other cannot catch a row fault; compare each with math.comb instead.
    for n in range(101):
        coeffs = [
            math.comb(n, k) ** 2 * math.comb(2 * k, k) * (2 * k + 1)
            for k in range(n + 1)
        ]
        assert S(n) == sum(coeffs)
        assert S_poly(n) == Poly(coeffs)
        for m in range(1, 5):
            assert S_m_poly(m, n) == Poly(
                math.comb(n, k) ** m
                * math.factorial(k * m + 1)
                // math.factorial(k) ** m
                for k in range(n + 1)
            )


def test_S_m_poly_reads_its_factor_table_cold_warm_and_cleared(cold_memos):
    want = {
        (m, n): Poly(
            math.comb(n, k) ** m * math.factorial(k * m + 1) // math.factorial(k) ** m
            for k in range(n + 1)
        )
        for m in range(1, 5)
        for n in range(61)
    }

    def check(order):
        for m in range(1, 5):
            for n in order:
                assert S_m_poly(m, n) == want[m, n], (m, n)

    check(range(60, -1, -1))  # cold: the first call grows each table to 60
    check(range(61))  # warm: every call reads the table
    cold_memos()
    check(range(61))  # cleared: each call grows the table by one entry


def test_binom_row_matches_generalized_binomial():
    # negative tops feed thm41, thm42, thm15 and remark13
    for top in range(-40, 41):
        assert _binom_row(top, 50) == [binomial(top, k) for k in range(50)]
    assert _binom_row(7, 1) == [1]


def test_ratio_sum_values():
    assert ratio_sum(1, 1, 16) == Fraction(1, 8)
    assert ratio_sum(0, 0, 8) == -1
    # equals (2n+1) C(2n,n) C(2n,n+d) / ((4d^2-1) 16^n) at n=2, d=0
    assert ratio_sum(2, 0, 16) == Fraction(-45, 64)
    with pytest.raises(ValueError):
        ratio_sum(2, 0, 0)


def test_companion_sequence_values():
    assert t_seq(0) == -1 and t_seq(1) == 3
    assert T_seq(0) == 1 and T_seq(1) == 13
    assert T_plus(0) == 1 and T_plus(1) == 37
    assert T_minus(0) == 1 and T_minus(1) == -35
    assert s_small(0) == -1 and s_small(1) == 1
    assert S_cplus(1) == 19 and S_cplus(2) == 223
    assert S_cminus(1) == -17 and S_cminus(2) == 79


def test_companion_sequences_match_direct_sums():
    for n in range(40):
        rows = [
            (math.comb(n, k), math.comb(n + k, k), math.comb(2 * k, k))
            for k in range(n + 1)
        ]
        assert t_seq(n) == sum(
            Fraction(a * a * b * b, 2 * k - 1) for k, (a, b, _) in enumerate(rows)
        )
        assert T_seq(n) == sum(
            a * a * b * b * (2 * k + 1) for k, (a, b, _) in enumerate(rows)
        )
        assert T_plus(n) == sum(
            a * a * b * b * (2 * k + 1) ** 2 for k, (a, b, _) in enumerate(rows)
        )
        assert T_minus(n) == sum(
            (-1) ** k * a * a * b * b * (2 * k + 1) ** 2
            for k, (a, b, _) in enumerate(rows)
        )
        assert s_small(n) == sum(
            Fraction(a * a * c, 2 * k - 1) for k, (a, _, c) in enumerate(rows)
        )
        assert S_cplus(n) == sum(
            a * a * c * (2 * k + 1) ** 2 for k, (a, _, c) in enumerate(rows)
        )
        assert S_cminus(n) == sum(
            (-1) ** k * a * a * c * (2 * k + 1) ** 2 for k, (a, _, c) in enumerate(rows)
        )


def test_recurrences_hold_at_depth():
    assert check_recurrence_R(200).status == PASS
    assert check_recurrence_R_poly(100).status == PASS
    assert check_recurrence_S(200).status == PASS


@pytest.mark.parametrize(
    "check", (check_recurrence_R, check_recurrence_R_poly, check_recurrence_S)
)
def test_recurrence_checks_refuse_a_range_without_a_window(check):
    # the first window reads the terms 0 to 3, so below n_max = 3 a PASS
    # would have checked no relation
    for n_max in (0, 1, 2):
        with pytest.raises(ValueError, match="n_max >= 3"):
            check(n_max)
    assert check(3).status == PASS


# Negative controls: one raised row entry, from a cold value cache, must make
# each recurrence cross-check FAIL at the first window that reads it.


@pytest.mark.parametrize(
    "seam, cache, check, lhs",
    (
        ("_diag_row", "R", check_recurrence_R, "4"),
        ("_diag_row", "_R_POLY_CACHE", check_recurrence_R_poly, "4"),
        ("_binom_row", "S", check_recurrence_S, "-48"),
    ),
)
def test_recurrence_checks_fail_on_raised_row(
    cold_memos, raise_row, seam, cache, check, lhs
):
    # the k = 0 entry of the n = 4 row moves R_4 by -1 and S_4 by 3; the
    # window at n = 1 weighs the fourth value by -(n + 3) or -(n + 3)^2
    raise_row(sequences, seam, 4)
    if cache == "R":  # R's values are the x = 1 row of exactnum's point table
        assert not exactnum._R_AT.get((1, 1))
    elif cache in sequences.SEQUENCES:
        assert cache not in sequences._VALUES
    else:
        assert getattr(sequences, cache) == []
    r = check(10)
    assert r.status == FAIL
    assert r.witness == {"n": 1}
    assert r.lhs == lhs


def test_recurrence_fail_rows_clip_a_long_lhs():
    # a FAIL lhs is shown as result.show shows it: past 80 characters, clipped
    r = sequences._check_recurrence(3, [10**100, 0, 0, 0], lambda n: (1, 0, 0, 0))
    assert r.status == FAIL
    assert (r.lhs, r.rhs, r.witness) == ("100000000000...(101 digits)", "0", {"n": 0})
    long = Poly(range(1, 40))
    r = sequences._check_recurrence(3, [long, 0, 0, 0], lambda n: (Poly((1,)), 0, 0, 0))
    assert r.lhs == show(long) != long.render()


def test_recurrence_prefixes_match_the_defining_sums(cold_memos):
    assert R_values(300) == [R(n) for n in range(301)]
    assert S_values(300) == [S(n) for n in range(301)]
    assert values_of("schroder", 300) == [schroder(n) for n in range(301)]


def test_recurrence_prefix_raises_on_a_moved_seed(cold_memos, monkeypatch):
    # R_values seeds exactnum's x = 1 row from the defining sum: R_1 drops
    # from 1 to 0, and the recurrence leaves a remainder by R_4 at the latest
    seed = exactnum._R_seed_at
    moved = lambda a, b, n: seed(a, b, n) - ((a, b, n) == (1, 1, 1))
    monkeypatch.setattr(exactnum, "_R_seed_at", moved)
    with pytest.raises(ArithmeticError):
        R_values(10)


def test_integer_families_extend_cleanly():
    for f in (R, S, schroder, h, t_seq, T_seq, T_plus, T_minus, s_small, S_cplus, S_cminus):
        for n in range(301):
            assert isinstance(f(n), int)


def test_memo_tables_stay_aligned_under_thread_races(cold_memos, race):
    # Cold tables, so every thread grows them; a check-then-append race
    # leaves values at the wrong index.
    # the recurrence prefixes read the central rows only through their seeds;
    # R(300) grows those rows to full length from every thread
    results = race(lambda: (R_values(300), S_values(300), R(300)))
    assert len(exactnum._R_AT[1, 1]) == 301
    assert len(sequences._VALUES["S"]) == 301
    expected = [R(n) for n in range(301)], [S(n) for n in range(301)], R(300)
    assert results == [expected] * 4
    central = sequences._CENTRAL
    assert central == [math.comb(2 * k, k) for k in range(len(central))]
    assert sequences._CENTRAL_OVER[1:] == [
        c // (2 * k - 1) for k, c in enumerate(central) if k
    ]
