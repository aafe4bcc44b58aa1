"""Contract completeness: every registered family has a test that makes it FAIL."""

import ast
from pathlib import Path

from congrkit import registry

# family -> the test that falsifies one of its value sources and sees FAIL
FAIL_CONTROLS = {
    "rec_r": "test_recurrence_checks_fail_on_raised_row",
    "rec_r_poly": "test_recurrence_checks_fail_on_raised_row",
    "rec_s": "test_recurrence_checks_fail_on_raised_row",
    "thm11": "test_thm11_fails_on_shifted_row",
    "thm12": "test_thm12_fails_on_shifted_row_and_names_offset",
    "remark11": "test_remark11_fails_on_raised_ratio_sum",
    "thm13": "test_thm13_fails_on_shifted_row",
    "thm13ii": "test_thm13ii_fails_on_raised_row",
    "thm14i": "test_thm14i_fails_on_raised_row",
    "thm14ii": "test_thm14ii_fails_on_raised_S_value",
    "thm15i": "test_thm15i_fails_on_raised_row",
    "thm15ii": "test_thm15ii_fails_on_raised_row",
    "remark13": "test_remark13_fails_on_raised_row",
    "xval15": "test_xval15_fails_on_perturbed_kernel",
    "cor11": "test_cor11_fails_on_raised_row",
    "lemma22": "test_lemma22_fails_on_shifted_row",
    "lemma23": "test_lemma23_fails_on_raised_binomial",
    "thm41": "test_framework_families_fail_on_raised_row",
    "cor41": "test_framework_families_fail_on_raised_row",
    "thm42": "test_framework_families_fail_on_raised_row",
    "thm43": "test_framework_families_fail_on_raised_row",
    "thm44": "test_framework_families_fail_on_raised_row",
    "lemma42": "test_lemma42_fails_on_raised_binomial",
    "qlucas": "test_qlucas_fails_on_falsified_integer_binomial",
    "lemma32": "test_lemma32_fails_on_falsified_gaussian_binomial",
    "thm31q": "test_thm31q_fails_on_falsified_gaussian_binomial",
    "thm32q": "test_thm32q_fails_on_falsified_gaussian_binomial",
    "conj57": "test_conj57_fails_on_falsified_s_q_poly",
    "conj58q": "test_conj58q_fails_on_falsified_gaussian_binomial",
    "conj51": "test_conj51_fails_on_shifted_row",
    "conj52": "test_conj52_fails_on_moved_term",
    "conj54": "test_conj54_divisibility_fails_on_raised_R_value",
    "conj55": "test_conj55_fails_on_raised_S_value",
    "conj56": "test_conj56_fails_on_raised_small_value",
    "remark52": "test_remark52_fails_on_raised_R_poly_coefficient",
    "remark53": "test_remark53_fails_on_raised_plus_value",
    "conj58i": "test_conj58i_fails_on_raised_S_m_poly_coefficient",
}

# conj53 hunts for an irreducibility witness: exhausting its primes is
# INCONCLUSIVE, never FAIL, so no falsified source can make it FAIL.
EXEMPT = {"conj53"}


def _test_functions() -> set[str]:
    names = set()
    for path in Path(__file__).parent.glob("test_*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        names.update(n.name for n in tree.body if isinstance(n, ast.FunctionDef))
    return names


def test_every_family_has_a_fail_control_or_an_exemption():
    assert not set(FAIL_CONTROLS) & EXEMPT
    assert set(FAIL_CONTROLS) | EXEMPT == set(registry.family_names())
    missing = set(FAIL_CONTROLS.values()) - _test_functions()
    assert not missing, sorted(missing)
