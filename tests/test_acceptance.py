"""Acceptance gate: one test per criterion, each at its full stated range.

The registry sweep is computed once per session and shared; the final
criterion reruns everything through the CLI twice to pin byte determinism.
"""

import hashlib
import json
from math import comb

import pytest

from congrkit import FAIL, ILL_POSED, PASS, registry
from congrkit.exactnum import primes_up_to, two_square_decompose
from congrkit.polynomials import Poly
from congrkit.qalgebra import q_int, qbinom
from congrkit.sequences import R_poly, S_poly
from congrkit.verify import THM15_VARIANTS

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


# sha256 of `verify --all --format json` at the default bounds
GOLDEN_REPORT_SHA256 = "b0ec6fa1453db1e7d742dd642be91f941ba8cc339d2f4059576c7cff095a08d2"

# sha256 of `verify --all --max-p 30 --max-n 10` in csv and in text, taken
# before workers serialized their own chunks of the report
SMALL_REPORT_SHA256 = {
    "csv": "acc78fb524a8f64281ac84fee4ca16c4ee7e123d2fae257402258ce6a9099e5f",
    "text": "0ead9fec6f3cb48f6605f71c89ee161697f28cdd5339c043294584cc038ef834",
}

# sha256 of two prime-family reports at --format json past the default grid,
# taken before thm11 and conj51 read values shared by all primes, and of the
# whole sweep at --max-p 500 over two worker processes
WIDE_REPORT_SHA256 = {
    ("verify", "--all", "--max-p", "500", "--jobs", "2"): (
        "4fb625d6c41c4d22c3e52ea75ab41e921034c140792f1fdc09c3e3ef52c5b0d8"
    ),
    ("verify", "thm11", "--max-p", "3000"): (
        "3f4e49028016138a194abaf3d60d98c3a40d262c6a2015c3c348d341191a2354"
    ),
    ("scan", "conj51", "--max-p", "3000"): (
        "0e862ba995cd045fd2befc1094db5196e251ccc315a25ceba1f2231f947dc467"
    ),
}

# sha256 of `congrkit list`
GOLDEN_LIST_SHA256 = "eb34482d4b7649d82166f4865d443dda7c0d8621b93ba7edcc40966f80c4c682"


@pytest.fixture(scope="session")
def sweep():
    out = {}
    for name in registry.family_names():
        out[name] = [
            (params, registry.run_instance(name, params))
            for params in registry.instances_for(name)
        ]
    return out


def _all_pass(rows):
    bad = [(params, r.status) for params, r in rows if r.status != PASS]
    assert not bad, "non-PASS results: %r" % (bad[:5],)


def test_c01_terminal_values_via_cli(cli):
    run = cli("seq", "R", "--max", "16", "--format", "csv")
    assert run.returncode == 0
    rows = run.stdout.decode().strip().splitlines()[1:]
    assert [int(r.split(",")[1]) for r in rows] == R_GOLDEN
    run = cli("seq", "S", "--max", "12", "--format", "csv")
    assert run.returncode == 0
    rows = run.stdout.decode().strip().splitlines()[1:]
    assert [int(r.split(",")[1]) for r in rows] == S_GOLDEN


def test_c02_polynomial_coefficient_tables():
    for n, coeffs in enumerate(R_POLY_GOLDEN):
        assert R_poly(n) == Poly(coeffs)
    for n, coeffs in enumerate(S_POLY_GOLDEN):
        assert S_poly(n) == Poly(coeffs)


def test_c03_recurrences_hold_to_depth(sweep):
    for fam, depth in (("rec_r", 200), ("rec_r_poly", 100), ("rec_s", 200)):
        rows = sweep[fam]
        assert len(rows) == 1
        params, result = rows[0]
        assert params["n_max"] == depth
        assert result.status == PASS


def test_c04_central_value_congruences_below_2000(sweep):
    rows = sweep["thm11"]
    assert [params["p"] for params, _ in rows] == [
        p for p in primes_up_to(1999) if p != 2
    ]
    _all_pass(rows)
    for params, result in rows:
        p = params["p"]
        if p % 4 == 1:
            d = two_square_decompose(p)
            assert d.x * d.x + d.y * d.y == p
            assert "x = %d" % d.x in (result.note or "")


def test_c05_offset_ratio_congruences_below_1000(sweep):
    rows = sweep["thm12"]
    assert [params["p"] for params, _ in rows] == [
        p for p in primes_up_to(999) if p != 2
    ]
    _all_pass(rows)


def test_c06_prefix_sums_of_R(sweep):
    primes = sweep["thm13"]
    assert [params["p"] for params, _ in primes] == [
        p for p in primes_up_to(999) if p != 2
    ]
    _all_pass(primes)
    divs = sweep["thm13ii"]
    assert [params["n"] for params, _ in divs] == list(range(1, 501))
    _all_pass(divs)


def test_c07_prefix_sums_of_S(sweep):
    rows = sweep["thm14i"]
    assert [params["n"] for params, _ in rows] == list(range(1, 301))
    _all_pass(rows)
    primes = sweep["thm14ii"]
    assert [params["p"] for params, _ in primes] == [
        p for p in primes_up_to(499) if p >= 5
    ]
    _all_pass(primes)


def test_c08_product_weight_families_with_cross_validation(sweep):
    grids = sweep["thm15i"]
    assert len(grids) == 3 * 60 * 6
    assert max(params["n"] for params, _ in grids) == 60
    assert max(params["m"] for params, _ in grids) == 3
    assert {params["variant"] for params, _ in grids} == set(THM15_VARIANTS)
    _all_pass(grids)
    mixed = sweep["thm15ii"]
    assert len(mixed) == 60 * 3 * 3
    _all_pass(mixed)
    _all_pass(sweep["remark13"])
    xval = sweep["xval15"]
    assert sorted((p["n"], p["a"], p["b"]) for p, _ in xval) == sorted(
        (p["n"], p["a"], p["b"]) for p, _ in mixed
    )
    _all_pass(xval)


def test_c09_companion_power_sums_to_150(sweep):
    rows = sweep["cor11"]
    assert [params["n"] for params, _ in rows] == list(range(1, 151))
    _all_pass(rows)


def test_c10_symbolic_identities(sweep):
    poly_rows = sweep["lemma22"]
    assert [params["n"] for params, _ in poly_rows] == list(range(51))
    _all_pass(poly_rows)
    tri_rows = sweep["lemma23"]
    assert len(tri_rows) == sum(range(1, 51))
    assert max(params["n"] for params, _ in tri_rows) == 50
    _all_pass(tri_rows)


def test_c11_q_suite_with_degeneration(sweep):
    lucas = sweep["qlucas"]
    assert len(lucas) == 49 * (1 + 4 + 9 + 16 + 25 + 36)
    _all_pass(lucas)
    _all_pass(sweep["lemma32"])
    assert max(params["n"] for params, _ in sweep["lemma32"]) == 30
    thm31 = sweep["thm31q"]
    assert len(thm31) == sum(range(1, 31))
    _all_pass(thm31)
    thm32 = sweep["thm32q"]
    assert len(thm32) == 300
    assert max(params["n"] for params, _ in thm32) == 20
    _all_pass(thm32)
    # q = 1 degeneration: the q-objects collapse to plain binomials and the
    # integer forms of both divisibility claims hold on the same grids
    for n in range(21):
        assert q_int(n)(1) == n
        for k in range(n + 1):
            assert qbinom(n, k)(1) == comb(n, k)
    for n in range(1, 31):
        for k in range(n):
            total = (2 * k + 1) * comb(2 * k, k) * sum(
                comb(h, k) ** 2 for h in range(n)
            )
            assert total % n == 0
    for n in range(1, 21):
        for a in range(3):
            for b in range(3):
                for ap in {a - 1, a}:
                    if ap < 0:
                        continue
                    total = sum(
                        (-1) ** (ap * k)
                        * (2 * k + 1)
                        * comb(n - 1, k) ** a
                        * comb(n + k, k) ** b
                        for k in range(n)
                    )
                    assert total % n == 0


def test_c12_randomized_kernel_framework(sweep):
    families = ("thm41", "cor41", "thm42", "thm43", "thm44", "lemma42")
    total = 0
    for fam in families:
        rows = sweep[fam]
        _all_pass(rows)
        total += len(rows)
    assert total >= 500
    assert {params["strength"] for params, _ in sweep["thm43"]} == {
        "integral",
        "over_n",
    }
    for fam in ("thm41", "cor41", "thm42", "thm43"):
        for params, _ in sweep[fam]:
            assert 1 <= params["n"] <= 40
            assert params["a_list"]
            assert len(params["a_list"]) <= 3
            assert all(1 <= abs(a) <= 4 for a in params["a_list"])
            for b in params.get("b_list", ()):
                assert 0 <= b <= 3
    for params, _ in sweep["thm44"]:
        assert 1 <= params["n"] <= 40


def test_c13_conjecture_scans_find_no_counterexample(sweep):
    families = (
        "conj51", "conj52", "conj53", "conj54", "conj55", "conj56",
        "conj57", "conj58i", "conj58q", "remark52", "remark53",
    )
    for fam in families:
        rows = sweep[fam]
        assert rows, "empty scan: %s" % fam
        for params, result in rows:
            assert result.status not in (FAIL, ILL_POSED), (fam, params)
    ps = [params["p"] for params, _ in sweep["conj51"]]
    assert all(p % 4 == 3 for p in ps)
    assert max(ps) == 991
    # every growth surrogate window reaches sequence index 1000 exactly
    top_index = max(
        params["n"] + (2 if params["claim"] == "ratio_step" else 1)
        for params, _ in sweep["conj52"]
    )
    assert top_index == 1000
    for fam in ("conj54", "conj55"):
        rows = sweep[fam]
        div_n = [p["n"] for p, _ in rows if p["kind"] == "divisibility"]
        prime_p = [p["p"] for p, _ in rows if p["kind"] == "prime"]
        assert max(div_n) == 200
        assert max(prime_p) == 293
    assert max(params["n"] for params, _ in sweep["conj56"]) == 200
    fifty_seven = sweep["conj57"]
    assert [params["n"] for params, _ in fifty_seven] == list(range(1, 26))
    assert all("Q[q]" in (r.note or "") for _, r in fifty_seven)
    assert max(p["m"] for p, _ in sweep["conj58i"]) == 4
    assert max(p["n"] for p, _ in sweep["conj58i"]) == 60
    assert max(p["m"] for p, _ in sweep["conj58q"]) == 3
    assert max(p["n"] for p, _ in sweep["conj58q"]) == 20
    assert max(p["n"] for p, _ in sweep["remark52"]) == 50
    assert max(p["n"] for p, _ in sweep["remark53"]) == 200


def test_c14_report_bytes_identical_across_worker_counts(cli, tmp_path):
    out1 = tmp_path / "jobs1.json"
    out8 = tmp_path / "jobs8.json"
    r1 = cli("verify", "--all", "--jobs", "1", "--format", "json", "--out", str(out1))
    r8 = cli("verify", "--all", "--jobs", "8", "--format", "json", "--out", str(out8))
    assert r1.returncode == 0
    assert r8.returncode == 0
    payload = out1.read_bytes()
    assert payload == out8.read_bytes()
    assert hashlib.sha256(payload).hexdigest() == GOLDEN_REPORT_SHA256
    report = json.loads(payload)
    assert report["summary"]["fail"] == 0
    assert report["summary"]["ill_posed"] == 0
    assert len(report["results"]) == len(registry.all_jobs())


@pytest.mark.parametrize("fmt", ("csv", "text"))
def test_csv_and_text_report_bytes_identical_across_worker_counts(cli, fmt):
    args = ("verify", "--all", "--max-p", "30", "--max-n", "10", "--format", fmt)
    runs = [cli(*args, "--jobs", jobs) for jobs in ("1", "2", "8")]
    assert [run.returncode for run in runs] == [0, 0, 0]
    payload = runs[0].stdout
    assert runs[1].stdout == payload
    assert runs[2].stdout == payload
    assert hashlib.sha256(payload).hexdigest() == SMALL_REPORT_SHA256[fmt]


@pytest.mark.parametrize("args", sorted(WIDE_REPORT_SHA256))
def test_prime_family_reports_are_pinned_past_the_default_grid(cli, args):
    run = cli(*args, "--format", "json")
    assert run.returncode == 0
    assert hashlib.sha256(run.stdout).hexdigest() == WIDE_REPORT_SHA256[args]


def _dump(params):
    # in key order, as the report writes them
    return json.dumps(params)


def test_results_echo_their_family_and_grid_params(sweep):
    # perfbench/gate.py matches report rows to registry.all_jobs by this echo
    for name, rows in sweep.items():
        for params, r in rows:
            assert r.family == name
            assert _dump(r.params) == _dump(params)
        fam = registry.FAMILIES[name]
        if fam.pins:
            first = rows[0][0]
            pins = {key: val for key, val in first.items() if key in fam.pins}
            params = fam.instance_from_pins(pins)
            assert _dump(params) == _dump(first)
            r = registry.run_instance(name, params)
            assert r.family == name
            assert _dump(r.params) == _dump(first)


def test_list_output_is_pinned(cli):
    run = cli("list")
    assert run.returncode == 0
    assert hashlib.sha256(run.stdout).hexdigest() == GOLDEN_LIST_SHA256
