"""Congruence checkers: frozen instances, independent mini-oracles, scans."""

import itertools
import math
from fractions import Fraction
from functools import partial

import pytest

from congrkit import FAIL, ILL_POSED, PASS, exactnum, sequences, verify
from congrkit import displays, framework, identities, prefixes, residues, scans
from congrkit.exactnum import (
    bernoulli_poly_eval,
    legendre_symbol,
    primes_up_to,
    residue_of_rational,
)
from congrkit.kernels import PAPER_KERNELS, KernelSpec, poly_kernel
from congrkit.polynomials import Poly
from congrkit.result import CheckResult, clip, equal, show, summarize, verdict
from congrkit.sequences import (
    R,
    R_poly,
    R_values,
    S,
    S_cminus,
    S_cplus,
    S_values,
    T_seq,
    _central_rows,
    _weighted_prefix,
)
from congrkit.registry import instances_for, run_instance
from congrkit.verify import (
    THM15_VARIANTS,
    check_cor11,
    check_cor41,
    check_lemma22,
    check_lemma23,
    check_lemma42,
    check_remark11,
    check_remark13,
    check_remark52,
    check_thm11,
    check_thm12,
    check_thm13,
    check_thm13_ii,
    check_thm14_i,
    check_thm14_ii,
    check_thm15_i,
    check_thm15_i_grid,
    check_thm15_ii,
    check_thm41,
    check_thm42,
    check_thm43,
    check_thm44,
    check_xval15,
    conj53_witness,
)
from congrkit.prefixes import _thm14ii_members
from congrkit.exactnum import _R_rec_at, _R_seed_at, _R_values_at, _recurrence_prefix
from congrkit.residues import (
    _offset_pair_sums,
    _offset_power_sum,
    _power_sum,
    _prime_table,
    _square_terms,
)
from congrkit.scans import _irreducible_mod


# -- result plumbing --------------------------------------------------------------


def test_result_status_contract():
    with pytest.raises(ValueError):
        CheckResult(family="x", params={}, status="MAYBE")
    r = CheckResult(family="x", params={}, status=FAIL, witness={"k": 3})
    assert r.to_dict()["witness"] == {"k": 3}
    assert not r.ok
    assert CheckResult(family="x", params={}, status=PASS).ok


def test_to_dict_omits_empty_fields():
    d = CheckResult(family="y", params={"n": 1}, status=PASS).to_dict()
    assert "witness" not in d and "note" not in d
    assert list(d)[:3] == ["family", "params", "status"]


def test_summarize_counts():
    rs = [
        CheckResult(family="a", params={}, status=PASS),
        CheckResult(family="a", params={}, status=ILL_POSED),
        CheckResult(family="a", params={}, status=FAIL, witness={"n": 0}),
    ]
    assert summarize(rs) == {"pass": 1, "fail": 1, "ill_posed": 1, "inconclusive": 0}


def test_clip_rendering():
    assert clip("short") == "short"
    assert clip(10**100) == "100000000000...(101 digits)"
    assert "big integer" in clip(1 << 20000)
    assert clip(-(1 << 20000)).startswith("-big integer")


def _fraction_str(v):
    """An exact value as num/den, each part clipped: the reference for show."""
    f = Fraction(v)
    if f.denominator == 1:
        return clip(f.numerator)
    return "%s/%s" % (clip(f.numerator), clip(f.denominator))


@pytest.mark.parametrize(
    "value",
    (0, -7, -(10**80), 1 << 13001, Fraction(-7, 3), Fraction((1 << 13001) + 1, 3)),
)
def test_show_matches_the_reference_fraction_rendering(value):
    assert show(value) == _fraction_str(value)


def test_show_renders_and_clips_a_polynomial():
    p = Poly(range(1, 40))
    assert show(p) == clip(p.render())
    assert show(p).endswith(" digits)")


def test_verdict_drops_the_witness_of_a_pass():
    assert verdict(True, "1", "1", witness={"k": 0}).witness is None
    assert equal(Fraction(2, 4), Fraction(1, 2), {"k": 0}).witness is None


# -- prime congruences for the first sum family -----------------------------------


def test_central_value_congruences_with_two_square_witness():
    five = check_thm11(5)
    assert five.status == PASS
    assert "x = 1, y = 2" in (five.note or "")
    thirteen = check_thm11(13)
    assert thirteen.status == PASS
    assert "x = -3, y = 2" in (thirteen.note or "")
    seven = check_thm11(7)
    assert seven.status == PASS
    with pytest.raises(ValueError):
        check_thm11(9)


def test_offset_ratio_congruences():
    for p in (3, 7, 13):
        r = check_thm12(p)
        assert r.status == PASS
    assert "offsets checked: 4" in (check_thm12(13).note or "")


def test_ratio_sum_identity_instances():
    for n, d in ((1, 1), (0, 0), (3, 2)):
        assert check_remark11(n, d).status == PASS


def test_remark11_fails_on_raised_ratio_sum(monkeypatch):
    original = identities.ratio_sum
    monkeypatch.setattr(identities, "ratio_sum", lambda n, d, b: original(n, d, b) + 1)
    r = check_remark11(3, 2)
    assert r.status == FAIL
    assert r.witness == {"difference": "1"}


def test_prefix_sum_congruences_R():
    # p = 3: R_0 + R_1 + R_2 = 7 and -3 - 1 = -4 agree mod 9? 7 vs 5... the
    # checker carries the exact residues; here we only pin the verdicts.
    for p in (3, 5, 13):
        assert check_thm13(p).status == PASS


def test_evaluation_identities_R():
    for n in (1, 2, 100):
        assert check_thm13_ii(n).status == PASS
    # independent routes to both identities at n = 3
    minus_one = sum(
        Fraction(math.comb(3, k) * math.comb(3 + k, k) * (-1) ** k, 2 * k - 1)
        for k in range(4)
    )
    assert minus_one == -7
    signed = sum(
        Fraction(math.comb(3, k) * (-1) ** k * math.comb(2 + k, k), 2 * k - 1)
        for k in range(4)
    )
    assert signed == -6


def test_prefix_sum_quotients_S():
    one = check_thm14_i(1)
    assert one.status == PASS
    three = check_thm14_i(3)
    assert three.status == PASS
    assert str(three.lhs) == str(three.rhs) == "63"
    assert sum(S(k) for k in range(3)) == 63
    assert check_thm14_i(2).status == PASS


def test_prefix_sum_prime_congruences_S():
    for p in (5, 7, 11):
        assert check_thm14_ii(p).status == PASS
    with pytest.raises(ValueError):
        check_thm14_ii(3)


# -- the product-weight congruence family ------------------------------------------


def test_variant_names_are_stable():
    assert THM15_VARIANTS == (
        "odd_plain",
        "cubic_plain",
        "odd_signed",
        "stepcube_signed",
        "cubic_paired",
        "stepcube_paired",
    )


def test_product_weight_single_instances():
    assert check_thm15_i(2, [1], "odd_plain").status == PASS
    assert check_thm15_i(3, [1, 2], "odd_signed").status == PASS
    paired = check_thm15_i(2, [1], "stepcube_paired")
    assert paired.status == PASS
    assert str(paired.modulus) == "8"
    # hand sum behind the first instance: 1 + 3*C(1,1) = 4, divisible by 2
    assert (1 + 3 * math.comb(1, 1)) % 2 == 0


def test_product_weight_full_grids():
    for variant in THM15_VARIANTS:
        assert check_thm15_i_grid(2, 6, variant).status == PASS
    for m, n in ((1, 0), (0, 3)):
        with pytest.raises(ValueError):
            check_thm15_i_grid(m, n, "odd_plain")


def test_mixed_weight_instances():
    assert check_thm15_ii(2, 1, 1).status == PASS
    assert check_thm15_ii(3, 1, 2).status == PASS
    assert check_thm15_ii(4, 2, 1).status == PASS
    with pytest.raises(ValueError):
        check_thm15_ii(0, 1, 1)


def test_negated_row_sum_evaluates_to_minus_n():
    two = check_remark13(2)
    assert two.status == PASS
    assert str(two.lhs) == "-2"
    # direct: 1*1/(-1) + C(1,1)*C(-3,1)/3 = -1 - 1
    assert Fraction(-1) + Fraction(math.comb(1, 1) * -3, 3) == -2
    assert check_remark13(1).status == PASS
    assert check_remark13(10).status == PASS


def test_cross_validation_against_kernel_route():
    for n, a, b in ((2, 1, 1), (3, 1, 2), (4, 2, 1)):
        assert check_xval15(n, a, b).status == PASS


def test_companion_power_sum_divisibilities():
    assert check_cor11(1).status == PASS
    assert check_cor11(2).status == PASS
    assert sum((2 * k + 1) * T_seq(k) for k in range(2)) == 40
    assert 40 % 8 == 0
    assert check_cor11(3).status == PASS


def test_polynomial_identity_lemma():
    for n in (0, 1, 12):
        assert check_lemma22(n).status == PASS


def test_triangular_sum_lemma():
    r = check_lemma23(2, 1)
    assert r.status == PASS
    assert str(r.lhs) == str(r.rhs) == "4"
    assert check_lemma23(0, 1).status == PASS
    assert check_lemma23(5, 3).status == PASS


def test_lemma23_fails_on_raised_binomial(monkeypatch):
    # binomial(-2, 1) goes from -2 to -1: the signed ratio halves from 4 to 2
    original = identities.binomial
    monkeypatch.setattr(
        identities, "binomial", lambda n, k: original(n, k) + ((n, k) == (-2, 1))
    )
    r = check_lemma23(2, 1)
    assert r.status == FAIL
    assert r.witness == {"middle": "4"}
    assert (r.lhs, r.rhs) == ("2", "4")


# -- difference-kernel framework ----------------------------------------------------


def test_kernel_congruence_instances():
    sq = poly_kernel("sq", (0, 0, 1))
    assert check_thm41(4, sq, [4], [0]).status == PASS
    cube = poly_kernel("cube", (0, 0, 0, 1))
    assert check_thm41(2, cube, [2], [2]).status == PASS
    lin = poly_kernel("lin", (0, 1))
    assert check_thm41(3, lin, [3, 3], [0, 0]).status == PASS
    with pytest.raises(ValueError):
        check_thm41(3, poly_kernel("const", (1,)), [1], [0])
    _assert_bad_shifted_lists(partial(check_thm41, 3, sq), "check_thm41")


def _assert_bad_shifted_lists(check, name):
    for a_list, b_list, message in (
        ([1, 2], [0], "need n >= 1 and matching parameter lists"),
        ([1], [-1], "shifts must be nonnegative"),
    ):
        with pytest.raises(ValueError) as err:
            check(a_list, b_list)
        assert str(err.value) == "%s: %s" % (name, message)


def test_fixed_weight_specializations():
    assert check_cor41(4, [2], [0]).status == PASS
    assert check_cor41(3, [3], [3]).status == PASS
    assert check_cor41(4, [4], [0]).status == PASS
    _assert_bad_shifted_lists(partial(check_cor41, 3), "check_cor41")


def test_cubic_kernel_congruence():
    cube = poly_kernel("cube", (0, 0, 0, 1))
    assert check_thm42(2, cube, [1]).status == PASS
    assert check_thm42(3, cube, [1, 2]).status == PASS
    stepcube = poly_kernel("stepcube", (0, 0, 0, -1, 1))
    assert check_thm42(2, stepcube, [1]).status == PASS


def test_pair_product_integrality():
    assert check_thm43(3, PAPER_KERNELS["f1"], [1], "over_n").status == PASS
    assert check_thm43(2, PAPER_KERNELS["f3"], [1, 2], "over_n").status == PASS
    recip = KernelSpec(name="recip", sign="none", num=(1,), den=(-1, 2))
    assert check_thm43(4, recip, [1], "integral").status == PASS
    with pytest.raises(ValueError):
        check_thm43(4, recip, [2], "integral")
    half = KernelSpec(name="half", sign="none", num=(1,), den=(1, 1))
    prefix = "check_thm43: kernel times the central ratio must "
    for kernel, strength, message in (
        (recip, "strong", "check_thm43: unknown strength 'strong'"),
        (half, "integral", prefix + "be an integer"),
        (recip, "over_n", prefix + "lie in kZ"),
    ):
        with pytest.raises(ValueError) as err:
            check_thm43(4, kernel, [1], strength)
        assert str(err.value) == message


def test_asymmetric_mixed_power_integrality():
    assert check_thm44(3, 1, 2, PAPER_KERNELS["f5"]).status == PASS
    assert check_thm44(2, 1, 1, PAPER_KERNELS["f9"]).status == PASS
    assert check_thm44(4, 2, 1, PAPER_KERNELS["f10"]).status == PASS


def test_telescoping_identity():
    r = check_lemma42(2, [1, 3])
    assert r.status == PASS
    assert str(r.lhs) == str(r.rhs) == "10"
    assert check_lemma42(2, [0, 0]).status == PASS
    frac = check_lemma42(3, [Fraction(1, 2 * k - 1) for k in range(1, 4)])
    assert frac.status == PASS
    assert str(frac.lhs) == "109/9"


def test_half_value_square_congruence():
    for n in (1, 2, 25):
        assert check_remark52(n).status == PASS


# -- negative controls for the framework families
#
# Each control raises one entry of one binomial row of a default-grid instance
# (or lemma42's binomial(n + 1, 1)); every other row is served unchanged.


def _raise_binom_row(raise_row, module, top, index):
    """Raise one entry of the binomial row of top wherever module's checkers
    read it: through module's own _binom_row and through the row helpers of
    sequences (_pair_rows, _mixed_row), which call sequences._binom_row."""
    raise_row(module, "_binom_row", top, index)
    raise_row(sequences, "_binom_row", top, index)


_FRAMEWORK_CONTROLS = (
    # binomial(-3, 2) goes from 6 to 7 on the a = -2 factor
    (
        "thm41",
        3,
        {"n": 2, "a_list": [2, -2], "b_list": [0, 2]},
        -3,
        2,
        {"claim": "gcd congruence", "residue": 1},
        "43",
        "2",
    ),
    # binomial(-4, 3) goes from -20 to -19 on the a = -3 factor, at k = 0
    (
        "cor41",
        98,
        {"n": 3, "a_list": [3, 3, -3], "b_list": [0, 0, 3]},
        -4,
        3,
        {"claim": "plain alternating", "residue": 1},
        "-215",
        "3",
    ),
    # binomial(-121, 1) goes from -121 to -120 on the a = -4 pair
    (
        "thm42",
        0,
        {"n": 30, "a_list": [-4, -1, 1]},
        -121,
        1,
        {"claim": "cube congruence", "residue": 12184},
        "901501515037...(103 digits)",
        "27000",
    ),
    # binomial(-97, 1) goes from -97 to -96 on the a = 4 pair
    (
        "thm43",
        0,
        {"n": 24, "a_list": [1, 4], "strength": "over_n"},
        -97,
        1,
        {"claim": "integrality"},
        "-9768283211209758049202295448450486968877219546786850/3",
        "",
    ),
    # binomial(-9, 1) goes from -9 to -8 in the negative mixed row, kernel f10
    (
        "thm44",
        0,
        {
            "n": 8,
            "a": 2,
            "b": 1,
            "kernel": verify.kernel_descriptor(PAPER_KERNELS["f10"]),
        },
        -9,
        1,
        {"claim": "integrality"},
        "-3314/3",
        "",
    ),
)


@pytest.mark.parametrize(
    "family, index, instance, top, k, witness, lhs, modulus",
    _FRAMEWORK_CONTROLS,
    ids=[control[0] for control in _FRAMEWORK_CONTROLS],
)
def test_framework_families_fail_on_raised_row(
    raise_row, family, index, instance, top, k, witness, lhs, modulus
):
    params = instances_for(family)[index]
    assert {key: params[key] for key in instance} == instance
    assert run_instance(family, params).status == PASS
    _raise_binom_row(raise_row, framework, top, k)
    r = run_instance(family, params)
    assert r.status == FAIL
    assert r.witness == witness
    assert (r.lhs, r.modulus) == (lhs, modulus)


def test_lemma42_fails_on_raised_binomial(monkeypatch):
    # binomial(12, 1) goes from 12 to 13 in the rhs weights
    params = instances_for("lemma42")[0]
    assert params["n"] == 11
    original = framework.binomial
    monkeypatch.setattr(
        framework, "binomial", lambda n, k: original(n, k) + ((n, k) == (12, 1))
    )
    r = run_instance("lemma42", params)
    assert r.status == FAIL
    assert r.witness == {"difference": "-6250/9"}
    assert (r.lhs, r.rhs) == ("50251474110693/44", "452263267271237/396")


# -- open-question scans -------------------------------------------------------------


def test_prime_scan_instances_and_run():
    ins = instances_for("conj51", {"max_p": 20})
    assert ins == [{"p": 3}, {"p": 7}, {"p": 11}, {"p": 19}]
    assert run_instance("conj51", {"p": 3}).status == PASS


def test_growth_scan_run():
    ins = instances_for("conj52", {"max_n": 5})
    assert all(run_instance("conj52", params).status == PASS for params in ins)
    # the surrogate order at n = 4: products of neighbours beat the square
    assert R(6) * R(4) > R(5) ** 2


def _serve_edited(monkeypatch, module, name, index, value):
    """Serve module.values_of(name, n_max) as copies whose entry index is
    value(copy); every other sequence is served unchanged.  The prefix sums
    read sequences.values_of, through sequences._weighted_prefix."""
    original = module.values_of

    def values_of(seq, n_max):
        vals = list(original(seq, n_max))
        if seq == name:
            vals[index] = value(vals)
        return vals

    monkeypatch.setattr(module, "values_of", values_of)


@pytest.mark.parametrize(
    "seq, claim, at, factor",
    (
        # term(n + 1) := term(n): term(n)^n < term(n)^(n + 1), root ratio below 1
        ("R", "root_step", 1, 1),
        ("S", "root_step", 1, 1),
        # term(n + 2) := term(n + 1): the consecutive ratio drops to 1
        ("R", "ratio_step", 2, 1),
        ("S", "ratio_step", 2, 1),
        # the ratio moved onto 6 > 3 + sqrt(8) and onto 9
        ("R", "ratio_bound", 1, 6),
        ("S", "ratio_bound", 1, 9),
    ),
)
@pytest.mark.parametrize("n", (5, 40))
def test_conj52_fails_on_moved_term(monkeypatch, seq, claim, at, factor, n):
    """Serve term(n + at) := factor * term(n + at - 1), which breaks the claim."""
    _serve_edited(
        monkeypatch, scans, seq, n + at, lambda vals: factor * vals[n + at - 1]
    )
    r = run_instance("conj52", {"seq": seq, "claim": claim, "n": n})
    assert r.status == FAIL


def test_irreducibility_verdicts_never_fail():
    assert conj53_witness(1).status == PASS
    two = conj53_witness(2)
    assert two.status == PASS
    assert "irreducible mod" in (two.note or "")
    starved = conj53_witness(4, (2,))
    assert starved.status not in (FAIL, ILL_POSED)
    assert starved.witness is not None


def _monic_polys(p, degree):
    """Every monic polynomial of the degree over GF(p), as coefficient lists."""
    for low in itertools.product(range(p), repeat=degree):
        yield list(low) + [1]


def _has_monic_factor(f, p):
    """Some monic g with 1 <= deg g <= deg f / 2 divides f mod p, found by
    long division by each candidate."""
    d = len(f) - 1
    for e in range(1, d // 2 + 1):
        for g in _monic_polys(p, e):
            r = list(f)
            for i in range(d - e, -1, -1):
                c = r[i + e]
                for k in range(e + 1):
                    r[i + k] = (r[i + k] - c * g[k]) % p
            if not any(r[:e]):
                return True
    return False


# Over GF(2), degree 6 has reducible polynomials whose smallest factor has
# degree 3 = d/2, such as (x^3 + x + 1)(x^3 + x^2 + 1), which only the last
# gcd with x^(p^e) - x rejects, and squares such as (x^3 + x + 1)^2.
@pytest.mark.parametrize("p, top", ((2, 6), (3, 4), (5, 4)))
def test_irreducible_mod_matches_trial_division(p, top):
    polys = [f for d in range(2, top + 1) for f in _monic_polys(p, d)]
    assert len(polys) == sum(p**d for d in range(2, top + 1))
    for f in polys:
        assert _irreducible_mod(f, p) == (not _has_monic_factor(f, p)), f


def test_square_sum_scan():
    ins = instances_for("conj54", {"max_n": 50, "max_p": 0})
    assert len(ins) == 50
    r = run_instance("conj54", {"kind": "divisibility", "n": 3})
    assert r.status == PASS
    assert sum(R(k) ** 2 for k in range(3)) == 51
    assert 51 % 3 == 0
    prime = run_instance("conj54", {"kind": "prime", "p": 13})
    assert prime.status == PASS


def test_weighted_sum_scan():
    r = run_instance("conj55", {"kind": "divisibility", "n": 2})
    assert r.status == PASS
    assert 4 * sum(k * S(k) for k in range(2)) == 28
    assert 28 % 4 == 0
    assert run_instance("conj55", {"kind": "prime", "p": 2}).status == PASS


@pytest.mark.parametrize("family", ("conj54", "conj55"))
@pytest.mark.parametrize(
    "params",
    (
        {"kind": "bogus", "p": 13},
        {"kind": "bogus", "n": 3},
        {"p": 13},
        {"kind": "prime"},
        {"kind": "prime", "n": 3},
        {"kind": "divisibility", "p": 13},
        {"kind": "prime", "p": 13, "n": 3},
    ),
)
def test_kind_scans_reject_unknown_kind_and_wrong_keys(family, params):
    with pytest.raises(ValueError):
        run_instance(family, params)


def test_remaining_scans_pass_on_spot_instances():
    assert run_instance("conj56", {"n": 7}).status == PASS
    assert run_instance("remark52", {"n": 4}).status == PASS
    assert run_instance("remark53", {"n": 9}).status == PASS
    assert sum(S_cplus(k) for k in range(9)) % 9 == 0
    assert sum(S_cminus(k) for k in range(9)) % 9 == 0
    assert run_instance("conj58i", {"m": 2, "n": 5}).status == PASS


def test_scan_selector_validation():
    with pytest.raises(ValueError):
        instances_for("nope")


def test_max_p_is_exclusive_for_scans_and_inclusive_elsewhere():
    def top_prime(name, bounds):
        return instances_for(name, bounds)[-1]["p"]

    assert top_prime("conj51", {"max_p": 19}) == 11
    assert top_prime("conj54", {"max_n": 0, "max_p": 19}) == 17
    assert top_prime("conj55", {"max_n": 0, "max_p": 19}) == 17
    assert top_prime("thm11", {"max_p": 19}) == 19
    assert top_prime("thm14ii", {"max_p": 19}) == 19


# -- exact oracles for the prime sums ------------------------------------------------
#
# These are the sums the prime checkers built before reducing mod p^e term by
# term: exact integers over base^(p-1), reduced once at the end.


def _exact_power_sum(p, base):
    central, over = _central_rows(p - 1)
    acc = 0
    for k in range(p):
        acc = acc * base + central[k] * over[k]
    return Fraction(acc, base ** (p - 1))


def _exact_offset_power_sum(p):
    central, over = _central_rows(p - 1)
    acc = 0
    for k in range(p):
        off = central[k] * k // (k + 1)
        acc = acc * 8 + over[k] * off
    return Fraction(acc, 8 ** (p - 1))


def _exact_R_at_minus_half(n):
    _, over = _central_rows(n)
    num = 0
    c = 1
    sign = 1
    pw = 1 << n
    for k in range(n + 1):
        num += c * over[k] * sign * pw
        sign = -sign
        pw >>= 1
        c = c * (n + k + 1) * (n - k) // ((2 * k + 1) * (2 * k + 2))
    return Fraction(num, 1 << n)


def _exact_offset_pair_sums(p, dmin):
    """sum_{k<p} binomial(2k,k) binomial(2k,k+d) / ((2k-1) 8^k) for d = dmin,
    dmin + 2, ... <= (p-1)/2, each as an exact Fraction."""
    n = (p - 1) // 2
    central, over = _central_rows(p - 1)
    acc = {d: 0 for d in range(dmin, n + 1, 2)}
    denom = 8 ** (p - 1)
    pw = denom
    for k in range(p):
        if k:
            pw //= 8
        if k < dmin:
            continue
        u = central[k] * (k - dmin + 1) // (k + dmin) if dmin else central[k]
        z = over[k] * pw
        d = dmin
        while d <= min(k, n):
            acc[d] += z * u
            u = u * (k - d) * (k - d - 1) // ((k + d + 1) * (k + d + 2))
            d += 2
    return {d: Fraction(v, denom) for d, v in acc.items()}


ODD_PRIMES_BELOW_100 = primes_up_to(99)[1:]


def _mod(value, p, e):
    return residue_of_rational(value, p, e).value


# 997, 1997 and 1999 reach the top of the thm11 grid: 1997 is 1 mod 4, 1999 is 3
@pytest.mark.parametrize("p", ODD_PRIMES_BELOW_100 + [997, 1997, 1999])
def test_residue_sums_match_exact_oracle_mod_p_squared(p):
    n = (p - 1) // 2
    m = p * p
    assert [
        _R_values_at(1, 1, n)[n] % m,
        _R_values_at(-2, 1, n)[n] % m,
        _R_values_at(-1, 2, n)[n] * pow(2, -n, m) % m,
    ] == [
        R(n) % m,
        R_poly(n)(-2) % m,
        _mod(_exact_R_at_minus_half(n), p, 2),
    ]
    assert [_power_sum(_square_terms, base, p) for base in (-16, 8, 32)] == [
        _mod(_exact_power_sum(p, base), p, 2) for base in (-16, 8, 32)
    ]
    assert _offset_power_sum(p) == _mod(_exact_offset_power_sum(p), p, 2)


# the points a/b at which thm11 reads b^n R_poly(n)(a/b)
R_POINTS = ((1, 1), (-2, 1), (-1, 2))


def _R_defining_sums(a, b, n_max):
    """b^n R_poly(n)(a/b) for n <= n_max, from R_poly's coefficients."""
    return [
        sum(c * a**k * b ** (n - k) for k, c in enumerate(poly.coeffs))
        for n, poly in enumerate(sequences.R_polys(n_max))
    ]


def test_R_point_prefixes_match_the_defining_sums(cold_memos):
    for a, b in R_POINTS:
        _R_values_at(a, b, 300)
        assert exactnum._R_AT[a, b] == _R_defining_sums(a, b, 300)


@pytest.mark.parametrize("index", range(4))
@pytest.mark.parametrize("a, b", R_POINTS)
def test_R_point_recurrence_with_a_changed_coefficient_raises_or_mismatches(
    monkeypatch, cold_memos, a, b, index
):
    # the single statement of (1.5) with the constant or the x part of its
    # term index raised by one: rec_r and rec_r_poly, which derive their
    # relations from it, FAIL, and the values it grows at a/b go wrong
    seed = partial(_R_seed_at, a, b)
    assert _recurrence_prefix([], 60, seed, _R_rec_at(a, b)) == _R_defining_sums(
        a, b, 60
    )
    stated = exactnum._R_poly_rec
    for part in (0, 1):

        def changed(n):
            pairs = [list(pair) for pair in stated(n)]
            pairs[index][part] += 1
            return tuple(map(tuple, pairs))

        for module in (exactnum, sequences):
            monkeypatch.setattr(module, "_R_poly_rec", changed)
        cold_memos()
        assert sequences.check_recurrence_R(20).status == FAIL
        assert sequences.check_recurrence_R_poly(20).status == FAIL
        try:
            values = _R_values_at(a, b, 60)
        except ArithmeticError:
            continue
        assert values != _R_defining_sums(a, b, 60)


@pytest.mark.parametrize("p", ODD_PRIMES_BELOW_100)
def test_offset_pair_sums_match_exact_oracle_for_every_offset(p):
    n = (p - 1) // 2
    exact = {**_exact_offset_pair_sums(p, 0), **_exact_offset_pair_sums(p, 1)}
    expected = {d: _mod(exact[d], p, 1) for d in range(n + 1)}
    assert _offset_pair_sums(_prime_table(p), range(n + 1)) == expected
    # the claimed parity vanishes; the other one must not, or this test
    # would compare zeros with zeros
    off_parity = [expected[d] for d in range(1 - n % 2, n + 1, 2)]
    assert any(off_parity)


@pytest.mark.parametrize("p", ODD_PRIMES_BELOW_100)
def test_residue_sums_drop_exactly_the_terms_that_vanish_mod_p_squared(p):
    # Kummer: past h = (p+1)/2 the square and offset terms carry p^2, apart
    # from the offset term at k = p - 1; the boundary terms the sums keep do
    # not vanish, so dropping one moves its sum mod p^2
    m = p * p
    h = (p + 1) // 2
    central, over = _central_rows(p - 1)
    square = [central[k] * over[k] for k in range(p)]
    offset = [over[k] * (central[k] * k // (k + 1)) for k in range(p)]
    assert [k for k in range(h + 1, p) if square[k] % m] == []
    assert [k for k in range(h + 1, p - 1) if offset[k] % m] == []
    assert square[h] % m and offset[h] % m and offset[p - 1] % m


def test_thm12_never_reads_the_exact_rows(monkeypatch):
    def refuse(upto):
        raise AssertionError("exact central rows read through %d" % upto)

    monkeypatch.setattr(sequences, "_central_rows", refuse)
    monkeypatch.setattr(residues, "_central_rows", refuse)
    assert check_thm12(997).status == PASS


def test_thm11_and_conj51_never_build_a_prime_table(monkeypatch):
    # their values come from tables shared by all primes
    def refuse(p):
        raise AssertionError("residue table built for p = %d" % p)

    monkeypatch.setattr(residues, "_prime_table", refuse)
    assert check_thm11(1999).status == PASS
    assert run_instance("conj51", {"p": 983}).status == PASS


def test_thm11_and_thm13_grow_R_once_per_process(monkeypatch, cold_memos):
    # thm13's prefix sums read the x = 1 row of R that thm11 grew, and
    # sequences holds no table of R of its own
    grow, grown = exactnum._memo_grow, []

    def logged(table, upto, fn):
        if len(table) <= upto:
            grown.append((table, upto))
        return grow(table, upto, fn)

    monkeypatch.setattr(exactnum, "_memo_grow", logged)
    assert check_thm11(1999).status == PASS
    assert check_thm13(997).status == PASS
    row = exactnum._R_AT[1, 1]
    assert [upto for table, upto in grown if table is row] == [999]
    assert "R" not in sequences._VALUES


# thm13 summed the exact R_values prefix; thm14ii weighted S over lcm(1..p-1)
# and compared with an exact Bernoulli Fraction, reduced mod p^2 at the end.


def _exact_thm14ii_members(p):
    vals = S_values(p - 1)
    lcm = math.lcm(*range(1, p))
    acc1 = 0
    acc2 = 0
    for k in range(1, p):
        u = lcm // k
        w = vals[k] * u
        acc1 += w
        acc2 += w * u
    closed = (
        -Fraction(p, 2)
        * legendre_symbol(p, 3)
        * bernoulli_poly_eval(p - 2, Fraction(1, 3))
    )
    return [
        ("harmonic weight", Fraction(acc1, lcm)),
        ("p times square-harmonic weight", p * Fraction(acc2, lcm * lcm)),
        ("Bernoulli closed form", closed),
    ]


@pytest.mark.parametrize("p", ODD_PRIMES_BELOW_100 + [997])
def test_collapsed_R_prefix_sum_matches_exact_sum(p):
    # the hockey stick sum_{m<p} binomial(m+j, 2j) = binomial(p+j, 2j+1), and
    # binomial(p+j, 2j+1) = binomial(p+j, 2j) (p-j) / (2j+1) on the diagonal
    _, over = _central_rows(p)
    diag = sequences._diag_row(p)
    hockey = sum(diag[j] * (p - j) // (2 * j + 1) * over[j] for j in range(p))
    assert _weighted_prefix("R", p) == hockey == sum(R_values(p - 1))


@pytest.mark.parametrize("p", ODD_PRIMES_BELOW_100[1:])
def test_thm14ii_residues_match_exact_oracle_mod_p_squared(p):
    assert _thm14ii_members(p) == [
        (label, _mod(value, p, 2)) for label, value in _exact_thm14ii_members(p)
    ]


# -- negative controls: falsified rows must make the prime checkers FAIL ----------


@pytest.fixture
def shifted_over(monkeypatch, cold_memos):
    """Serve copies of the central rows with binomial(2,1)/1 raised by one to
    identities and to residues, whose power-sum prefixes start cold."""

    def rows(upto):
        central, over = _central_rows(upto)
        over = list(over)
        over[1] += 1
        return list(central), over

    monkeypatch.setattr(identities, "_central_rows", rows)
    monkeypatch.setattr(residues, "_central_rows", rows)


@pytest.fixture
def shifted_table(monkeypatch):
    """Serve thm12's residue tables with binomial(2,1)/1 raised by one."""
    original = residues._prime_table

    def table(p):
        t = original(p)
        over = list(t.over)
        over[1] += 1
        return t._replace(over=over)

    monkeypatch.setattr(residues, "_prime_table", table)


@pytest.mark.parametrize("p", (7, 13))
def test_thm11_fails_on_shifted_row(shifted_over, p):
    r = check_thm11(p)
    assert r.status == FAIL
    assert r.witness["claim"] == "base -16"
    assert r.lhs != r.rhs


@pytest.mark.parametrize("p, d", ((7, 1), (13, 0)))
def test_thm12_fails_on_shifted_row_and_names_offset(shifted_table, p, d):
    r = check_thm12(p)
    assert r.status == FAIL
    assert r.witness["d"] == d
    assert r.witness["residue"] == int(r.lhs) != 0


def test_conj51_fails_on_shifted_row(shifted_over):
    r = run_instance("conj51", {"p": 7})
    assert r.status == FAIL
    assert r.witness["claim"] == "base 8"
    assert r.lhs != r.rhs


@pytest.mark.parametrize("p", (7, 13))
def test_thm13_fails_on_shifted_row(monkeypatch, cold_memos, p):
    # R_0 + p moves the prefix sum by p, nonzero mod p^2
    _serve_edited(monkeypatch, sequences, "R", 0, lambda vals: vals[0] + p)
    r = check_thm13(p)
    assert r.status == FAIL
    assert r.witness == {"left": "prefix sum", "right": "closed form"}
    assert int(r.lhs) == (int(r.rhs) + p) % (p * p)


def test_lemma22_fails_on_shifted_row(shifted_over):
    # over[1] + 1 raises central[1] over[1] by 2: x^(n-1) gains 12 * 2, x^n loses 2
    r = check_lemma22(3)
    assert r.status == FAIL
    assert r.witness == {"difference": "-2*x^3 + 24*x^2"}


@pytest.mark.parametrize("p", (7, 13))
def test_thm14ii_fails_on_raised_S_value(monkeypatch, p):
    _raise_listed_value(monkeypatch, prefixes, "S")
    r = check_thm14_ii(p)
    assert r.status == FAIL
    assert r.witness == {
        "left": "harmonic weight",
        "right": "p times square-harmonic weight",
    }
    # S_1 / 1 moves the harmonic sum by 1 and the p-weighted one by p
    assert (int(r.lhs) - int(r.rhs)) % (p * p) == (1 - p) % (p * p)


# -- negative controls: a raised binomial-row entry must make the row readers FAIL
#
# raise_row serves copies of one row with one entry raised by one; the value
# and prefix tables those rows feed start cold (cold_memos).


@pytest.mark.parametrize(
    "module, top, index, witness, lhs",
    (
        # the k = 0 coefficient of R_poly(3) goes from -1 to -2
        (sequences, 3, 0, {"claim": "value at -1"}, "-8"),
        # binomial(-3, 1) goes from -3 to -2
        (prefixes, -3, 1, {"claim": "reciprocal odd-weight sum"}, "-3"),
    ),
)
def test_thm13ii_fails_on_raised_row(raise_row, module, top, index, witness, lhs):
    raise_row(module, "_diag_row" if module is sequences else "_binom_row", top, index)
    r = check_thm13_ii(3)
    assert r.status == FAIL
    assert r.witness == witness
    assert r.lhs == lhs


def test_remark13_fails_on_raised_row(raise_row):
    # binomial(3, 1) goes from 3 to 4 in the second half only
    _raise_binom_row(raise_row, displays, 3, 1)
    r = check_remark13(3)
    assert r.status == FAIL
    assert r.witness == {"halved sum": "-9/2"}
    assert r.lhs == "-3"


def test_cor11_fails_on_raised_row(cold_memos, raise_row):
    # binomial(2, 0) goes from 1 to 2 in the n = 1 diagonal row: t_1 drops to 0
    raise_row(sequences, "_diag_row", 1)
    r = check_cor11(2)
    assert r.status == FAIL
    assert r.witness == {"claim": "t", "residue": 7}


def test_thm14i_fails_on_raised_row(cold_memos, raise_row):
    # binomial(1, 0) goes from 1 to 2: S_1 rises by 3, h(2) is untouched
    raise_row(sequences, "_binom_row", 1)
    r = check_thm14_i(3)
    assert r.status == FAIL
    assert r.witness == {"claim": "scalar prefix sum"}
    assert (r.lhs, r.rhs) == ("66", "63")


def test_prefix_tables_stay_aligned_under_thread_races(cold_memos, race):
    def grow():
        s_polys = sequences._poly_prefix(("S_m", 2), 60, partial(sequences.S_m_poly, 2))
        return sequences._weighted_prefix("S", 301), s_polys

    def tables():
        sums = exactnum._PREFIX_SUMS
        return list(sums["S", "unit", 1]), list(sums["S_m", 2])

    results = race(grow)
    grown = tables()
    cold_memos()
    assert results == [grow()] * 4
    assert [len(t) for t in grown] == [302, 61]
    assert grown == tables()


def test_shared_prime_tables_stay_aligned_under_thread_races(cold_memos, race):
    def grow():
        values = [_R_values_at(a, b, 400)[400] for a, b in R_POINTS]
        sums = [_power_sum(_square_terms, base, 797) for base in (-16, 8, 32)]
        return values, sums, _offset_power_sum(787)

    def tables():
        return {
            key: list(table)
            for memo in (exactnum._R_AT, exactnum._PREFIX_SUMS)
            for key, table in memo.items()
        }

    results = race(grow)
    grown = tables()
    cold_memos()
    assert results == [grow()] * 4
    assert grown == tables()
    # R through n = 400, the square prefixes through h + 1 = 400 at p = 797,
    # the offset prefix through 395 at p = 787
    assert sorted(map(len, grown.values())) == [396] + [401] * 6


# the direct sums of the checkers' weighted prefixes, weights written out here
_DIRECT_WEIGHTS = {
    "unit": lambda j: 1,
    "index": lambda j: j,
    "odd": lambda j: 2 * j + 1,
}


@pytest.mark.parametrize(
    "name, weight, power",
    [("S", "unit", 1), ("S", "index", 1), ("R", "unit", 2), ("R", "odd", 2)]
    + [(name, "odd", 1) for name in ("t", "T", "Tplus", "Tminus")]
    + [(name, "unit", 1) for name in ("s", "Splus", "Sminus")],
)
def test_weighted_prefixes_match_direct_sums(cold_memos, name, weight, power):
    fn, _ = sequences.SEQUENCES[name]
    w = _DIRECT_WEIGHTS[weight]
    direct = [0]
    for j in range(60):
        direct.append(direct[-1] + w(j) * fn(j) ** power)
    # one cold jump to n = 60, then every shorter prefix from the grown table
    assert _weighted_prefix(name, 60, weight, power) == direct[60]
    grown = [_weighted_prefix(name, n, weight, power) for n in range(61)]
    assert grown == direct


# -- negative controls for the divisibility scans --------------------------------
#
# Each control serves one sequence with its entry at index 1 raised by one,
# from cold prefix tables (cold_memos, which clears them again afterwards).


def _raise_listed_value(monkeypatch, module, name):
    """Serve module.values_of(name, n_max) copies with entry 1 raised by one."""
    _serve_edited(monkeypatch, module, name, 1, lambda vals: vals[1] + 1)


def test_conj54_divisibility_fails_on_raised_R_value(monkeypatch, cold_memos):
    # R_1^2 goes from 1 to 4: the tripled square prefix up to n = 4 is 2037
    _raise_listed_value(monkeypatch, sequences, "R")
    r = run_instance("conj54", {"kind": "divisibility", "n": 4})
    assert r.status == FAIL
    assert r.witness == {"claim": "tripled square prefix", "residue": 1}
    assert r.lhs == "2037"


def test_conj54_prime_fails_on_raised_R_value(monkeypatch, cold_memos):
    _raise_listed_value(monkeypatch, sequences, "R")
    r = run_instance("conj54", {"kind": "prime", "p": 13})
    assert r.status == FAIL
    assert r.witness == {
        "left": "square prefix",
        "right": "closed form",
        "claim": "plain",
    }
    assert (int(r.lhs) - int(r.rhs)) % 169 == 3


@pytest.mark.parametrize(
    "params, witness",
    (
        (
            {"kind": "divisibility", "n": 3},
            {"claim": "quadrupled weighted prefix", "residue": 4},
        ),
        (
            {"kind": "prime", "p": 5},
            {"left": "weighted prefix", "right": "closed form"},
        ),
    ),
)
def test_conj55_fails_on_raised_S_value(monkeypatch, cold_memos, params, witness):
    # 1 * S_1 moves the weighted prefix by 1 from n = 2 on
    _raise_listed_value(monkeypatch, sequences, "S")
    r = run_instance("conj55", params)
    assert r.status == FAIL
    assert r.witness == witness


def test_conj56_fails_on_raised_small_value(monkeypatch, cold_memos):
    _raise_listed_value(monkeypatch, sequences, "s")
    r = run_instance("conj56", {"n": 2})
    assert r.status == FAIL
    assert r.witness == {"claim": "plain prefix", "residue": 1}


def test_remark53_fails_on_raised_plus_value(monkeypatch, cold_memos):
    _raise_listed_value(monkeypatch, sequences, "Splus")
    r = run_instance("remark53", {"n": 2})
    assert r.status == FAIL
    assert r.witness == {"claim": "plus prefix", "residue": 1}


def test_remark52_fails_on_raised_R_poly_coefficient(monkeypatch, cold_memos):
    # x added to R_2 adds (2 * 2 + 1) x to the odd-weighted prefix: 3 acc[1]
    # moves by 15
    original = scans.R_poly

    def poly(j):
        return original(j) + (Poly.term(1, 1) if j == 2 else Poly())

    monkeypatch.setattr(scans, "R_poly", poly)
    r = run_instance("remark52", {"n": 4})
    assert r.status == FAIL
    assert r.witness == {"x_power": 1}
    assert int(r.lhs) == int(r.rhs) + 15


def _raise_S_m_poly(monkeypatch, module):
    """Serve module.S_m_poly(m, j) with x^2 added at j = 3: the prefix
    coefficient of x^2 moves by 1 from n = 4 on."""
    original = module.S_m_poly

    def poly(m, j):
        return original(m, j) + (Poly.term(1, 2) if j == 3 else Poly())

    monkeypatch.setattr(module, "S_m_poly", poly)


def test_conj58i_fails_on_raised_S_m_poly_coefficient(monkeypatch, cold_memos):
    _raise_S_m_poly(monkeypatch, scans)
    r = run_instance("conj58i", {"m": 2, "n": 5})
    assert r.status == FAIL
    assert r.witness == {"x_power": 2}
    assert int(r.lhs) % 5 == 1


def test_thm14i_fails_on_raised_S_m_poly_coefficient(monkeypatch, cold_memos):
    # the scalar prefix reads values_of("S"), which the raised polynomial leaves
    _raise_S_m_poly(monkeypatch, prefixes)
    r = check_thm14_i(5)
    assert r.status == FAIL
    assert r.witness == {"claim": "polynomial prefix sum", "x_power": 2}
    assert int(r.lhs) % 5 == 1


# -- the display families against their exact Fraction oracles --------------------
#
# thm15ii and xval15 sum integer numerators over one denominator D_n and
# thm15i reduces its rows mod n^3; each must give the same CheckResult as
# these exact Fraction references.  check_thm15_i is the exact thm15i one.


def _display_sums(n, a, b):
    """The ten integral-sum displays; flag marks the ones scaled by 1/n."""
    central, _ = _central_rows(n)
    same = sequences._mixed_row(n, a, a)
    mixed = sequences._mixed_row(n, a, b)
    tri = displays._triangle
    m = a + b
    sums = []
    q1 = sum(Fraction(same[k], 4 * k * k - 1) for k in range(n))
    q2 = sum(Fraction(same[k], tri(k)) for k in range(n))
    q3 = sum(
        (-1) ** k * (1 + Fraction(2 * k, 4 * k * k - 1)) * same[k] for k in range(n)
    )
    q4 = sum(
        (-1) ** k * (4 - Fraction(2 * k + 3, tri(k))) * same[k] for k in range(n)
    )
    sums.append(("quarter weight", q1 / n, True))
    sums.append(("triangle weight", q2 / n, True))
    sums.append(("alternating quarter weight", q3 / n, True))
    sums.append(("alternating triangle weight", q4 / n, True))

    def sg(k, e):
        return -1 if (k * e) % 2 else 1

    sums.append(
        (
            "mixed quarter weight",
            sum(Fraction(sg(k, m) * mixed[k], 4 * k * k - 1) for k in range(n)),
            False,
        )
    )
    sums.append(
        (
            "mixed quarter k-weight",
            sum(Fraction(sg(k, m - 1) * k * mixed[k], 4 * k * k - 1) for k in range(n)),
            False,
        )
    )
    sums.append(
        (
            "mixed triangle weight",
            sum(Fraction(sg(k, m) * mixed[k], tri(k)) for k in range(n)),
            False,
        )
    )
    sums.append(
        (
            "mixed triangle odd-weight",
            sum(
                Fraction(sg(k, m - 1) * (2 * k + 3) * mixed[k], tri(k))
                for k in range(n)
            ),
            False,
        )
    )
    sums.append(
        (
            "mixed central weight",
            sum(
                Fraction(sg(k, m) * (3 * k + 1) * mixed[k], (2 * k + 1) * central[k])
                for k in range(n)
            ),
            False,
        )
    )
    sums.append(
        (
            "mixed central odd-weight",
            sum(
                Fraction(sg(k, m - 1) * (5 * k + 3) * mixed[k], (2 * k + 1) * central[k])
                for k in range(n)
            ),
            False,
        )
    )
    return sums


def _reference_thm15_ii(n, a, b):
    params = {"n": n, "a": a, "b": b}
    for label, value, _ in _display_sums(n, a, b):
        if value.denominator != 1:
            return CheckResult(
                family="thm15ii",
                params=params,
                status=FAIL,
                lhs=show(value),
                rhs="integer",
                witness={"claim": label},
            )
    m = a + b
    mixed = sequences._mixed_row(n, a, b)
    factor = math.gcd(a + b - 1, 2)
    total = factor * sum(
        (-1 if (k * m) % 2 else 1) * (2 * k + 1) * mixed[k] for k in range(n)
    )
    if total % (n * n):
        return CheckResult(
            family="thm15ii",
            params=params,
            status=FAIL,
            lhs=clip(total),
            rhs="0",
            modulus="%d^2" % n,
            witness={"claim": "gcd-weighted odd sum"},
        )
    return CheckResult(
        family="thm15ii",
        params=params,
        status=PASS,
        lhs="0",
        rhs="0",
        modulus="%d^2" % n,
        note="ten integral sums and one congruence",
    )


def _reference_xval15(n, a, b):
    params = {"n": n, "a": a, "b": b}
    m = a + b
    same = sequences._mixed_row(n, a, a)
    mixed = sequences._mixed_row(n, a, b)
    plans = displays._xval_plans(m % 2)
    for i, (label, kname, signed, c, correction) in enumerate(plans):
        kern = displays.PAPER_KERNELS[kname]
        if signed:
            kvals = [displays.bar(kern, k, m) for k in range(n)]
            row = mixed
        else:
            kvals = [displays.delta(kern, k) for k in range(n)]
            row = same
        w = [displays._xval_weights(k, m % 2)[i] for k in range(n)]
        for k in range(n):
            expected = c * kvals[k] + (correction if k == 0 else 0)
            if w[k] != expected:
                return CheckResult(
                    family="xval15",
                    params=params,
                    status=FAIL,
                    lhs=show(w[k]),
                    rhs=show(expected),
                    witness={"display": label, "k": k},
                )
        display_total = sum(w[k] * row[k] for k in range(n))
        kernel_total = sum(kvals[k] * row[k] for k in range(n))
        if display_total != c * kernel_total + correction * row[0]:
            return CheckResult(
                family="xval15",
                params=params,
                status=FAIL,
                lhs=show(display_total),
                rhs=show(c * kernel_total + correction * row[0]),
                witness={"display": label, "claim": "sum"},
            )
    return CheckResult(
        family="xval15",
        params=params,
        status=PASS,
        note="ten weight families matched against the kernel catalogue",
    )


def _reference_thm15_i_grid(m, n, variant):
    """The grid verdict from check_thm15_i on every pattern, in grid order."""
    patterns = list(itertools.product(displays._GRID_VALUES, repeat=m))
    params = {"m": m, "n": n, "variant": variant}
    for tup in patterns:
        r = check_thm15_i(n, tup, variant)
        if r.status != PASS:
            witness = {"a_list": list(tup), "claim": r.witness["claim"]}
            return CheckResult(
                family="thm15i",
                params=params,
                status=r.status,
                lhs=r.lhs,
                rhs=r.rhs,
                modulus=r.modulus,
                witness=witness,
            )
    note = "patterns checked: %d" % len(patterns)
    return CheckResult(
        family="thm15i", params=params, status=PASS, lhs="0", rhs="0", note=note
    )


_DISPLAY_CHECKS = {
    "thm15ii": _reference_thm15_ii,
    "xval15": _reference_xval15,
    "thm15i": _reference_thm15_i_grid,
}


@pytest.mark.parametrize("family", _DISPLAY_CHECKS)
def test_display_families_match_exact_oracles(cold_memos, family):
    grid = instances_for(family, {"max_n": 20})
    assert len(grid) in (180, 360)
    for params in grid:
        assert run_instance(family, params) == _DISPLAY_CHECKS[family](**params), params


@pytest.mark.parametrize(
    "family, top, index, n",
    (
        # pos row binomial(n - 1, k) and neg row binomial(-n - 1, k) at n = 5
        ("thm15ii", 4, 2, 5),
        ("thm15ii", -6, 1, 5),
        # binomial(3n - 1, k) at n = 5, binomial(n - 1, k) at n = 15
        ("thm15i", 14, 2, 5),
        ("thm15i", 14, 2, 15),
        ("thm15i", -16, 3, 5),
    ),
)
def test_display_families_match_exact_oracles_on_raised_row(
    cold_memos, raise_row, family, top, index, n
):
    _raise_binom_row(raise_row, displays, top, index)
    fails = 0
    for params in instances_for(family, {"max_n": 20}):
        if params["n"] == n:
            got = run_instance(family, params)
            assert got == _DISPLAY_CHECKS[family](**params), params
            fails += got.status == FAIL
    assert fails > 0


@pytest.mark.parametrize(
    "kernel, first_k",
    (
        # f7's numerator 2 becomes 3: the match fails from k = 0
        (KernelSpec("f7", "km", (3,), (1, 1)), 0),
        # f1's numerator k gains k(k-1)(k-2): f(3) moves, so delta from k = 2
        (KernelSpec("f1", "none", (0, 3, -3, 1), (-1, 2)), 2),
    ),
)
def test_xval15_matches_exact_oracle_on_perturbed_kernel(
    monkeypatch, cold_memos, kernel, first_k
):
    monkeypatch.setitem(displays.PAPER_KERNELS, kernel.name, kernel)
    for params in instances_for("xval15", {"max_n": 20}):
        got = run_instance("xval15", params)
        assert got == _reference_xval15(**params), params
        assert (got.status == FAIL) == (params["n"] > first_k), params
        if got.status == FAIL:
            assert got.witness["k"] == first_k


# -- negative controls for the display families


def test_thm15ii_fails_on_raised_row(cold_memos, raise_row):
    # binomial(4, 2) goes from 6 to 7 in the n = 5 row
    _raise_binom_row(raise_row, displays, 4, 2)
    r = check_thm15_ii(5, 1, 1)
    assert r.status == FAIL
    assert r.witness == {"claim": "quarter weight"}
    assert r.lhs == "-18/25"


def test_thm15i_fails_on_raised_row(cold_memos, raise_row):
    # binomial(14, 2) goes from 91 to 92 in the a = 3 row at n = 5
    _raise_binom_row(raise_row, displays, 14, 2)
    r = check_thm15_i_grid(2, 5, "stepcube_paired")
    assert r.status == FAIL
    assert r.witness == {"a_list": [-3, -3], "claim": "gcd-weighted"}
    assert (r.modulus, r.lhs) == ("125", "921526939595217")


def test_xval15_fails_on_perturbed_kernel(monkeypatch, cold_memos):
    # f7 = 2 (-1)^(km) / (k + 1) with numerator 3 instead of 2
    monkeypatch.setitem(
        displays.PAPER_KERNELS, "f7", KernelSpec("f7", "km", (3,), (1, 1))
    )
    r = check_xval15(4, 1, 2)
    assert r.status == FAIL
    assert r.witness == {"display": "mixed triangle weight", "k": 0}
    assert (r.lhs, r.rhs) == ("1", "3/2")


def test_display_caches_agree_under_thread_races(cold_memos, race):
    def run():
        return [
            (
                check_thm15_i_grid(m, n, variant),
                check_thm15_ii(n, a, 1),
                check_xval15(n, a, 1),
            )
            for n in (7, 16)
            for m in (2, 3)
            for a in (1, 2)
            for variant in ("odd_signed", "stepcube_paired")
        ]

    def tables():
        return [
            (
                displays._grid_products(m, n),
                displays._display_weights(n, odd),
                displays._xval_kernel_rows(n, odd),
            )
            for n in (7, 16)
            for m in (2, 3)
            for odd in (0, 1)
        ]

    results = race(lambda: (run(), tables()))
    cold_memos()
    assert results == [(run(), tables())] * 4
