"""Contract completeness: every registered family has a test that makes it
FAIL, and names its checker by the module that defines it."""

import ast
import importlib
import json
from pathlib import Path

from congrkit import registry, verify

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


def test_every_checker_is_named_by_the_module_that_defines_it():
    for name, fam in registry.FAMILIES.items():
        check = fam.check
        fn = getattr(importlib.import_module("congrkit." + check.module), check.name)
        assert fn.__module__ == "congrkit." + check.module, name


# congrkit.verify.__all__ before the checkers moved into their theme modules
FACADE = (
    "check_thm11", "check_thm12", "check_remark11", "check_thm13",
    "check_thm13_ii", "check_thm14_i", "check_thm14_ii", "check_thm15_i",
    "check_thm15_i_grid", "check_thm15_ii", "check_remark13", "check_xval15",
    "check_cor11", "check_lemma22", "check_lemma23", "check_thm41",
    "check_cor41", "check_thm42", "check_thm43", "check_thm44",
    "check_lemma42", "check_remark52", "conj53_witness", "check_conj51",
    "check_conj52", "check_conj54", "check_conj55", "check_conj56",
    "check_remark53", "check_conj58i", "kernel_from_descriptor",
    "kernel_descriptor", "CONJ52_START", "THM15_VARIANTS",
)


def test_the_verify_facade_serves_every_name_it_exported():
    assert sorted(verify.__all__) == sorted(FACADE)
    for name in FACADE:
        obj = getattr(verify, name)
        if name in ("CONJ52_START", "THM15_VARIANTS"):
            home = "congrkit.registry"  # plain data, declared with the grids
        else:
            home = obj.__module__
        assert getattr(importlib.import_module(home), name) is obj, name


# the modules whose checkers the facade re-exports
THEMES = ("displays", "framework", "identities", "prefixes", "residues", "scans")


def test_the_verify_facade_loads_a_theme_module_on_the_first_read_of_a_name(python):
    source = """
import json, sys
import congrkit.verify as verify

def loaded():
    return [m for m in %r if "congrkit." + m in sys.modules]

seen = [loaded()]
verify.check_thm12
seen.append(loaded())
print(json.dumps(seen))
""" % (THEMES,)
    assert json.loads(python(source)) == [[], ["residues"]]
