"""Weight-function catalogue: values, differences, divisibility validators."""

from fractions import Fraction

import pytest

from congrkit.kernels import (
    PAPER_KERNELS,
    KernelSpec,
    bar,
    central_times_kernel_in_Z,
    central_times_kernel_in_kZ,
    delta,
    kernel_power_divisible,
    poly_kernel,
)
from congrkit.verify import kernel_descriptor, kernel_from_descriptor


def test_catalogue_membership():
    assert set(PAPER_KERNELS) == {"f%d" % i for i in range(1, 11)}


def test_catalogue_values():
    f1 = PAPER_KERNELS["f1"]
    assert f1.value(2) == Fraction(2, 3)
    assert f1.value(0) == 0
    f2 = PAPER_KERNELS["f2"]
    assert f2.value(1) == -1
    assert f2.value(2) == Fraction(2, 3)
    f3 = PAPER_KERNELS["f3"]
    assert f3.value(3) == Fraction(3, 2)
    f5 = PAPER_KERNELS["f5"]
    assert f5.value(1, m=1) == -1
    assert f5.value(2, m=1) == Fraction(1, 3)
    f9 = PAPER_KERNELS["f9"]
    assert f9.value(0, m=1) == 1
    assert f9.value(2, m=1) == Fraction(1, 3)
    assert f9.value(2, m=2) == Fraction(1, 3)


def test_m_dependence_is_enforced():
    f5 = PAPER_KERNELS["f5"]
    assert f5.needs_m()
    with pytest.raises(ValueError):
        f5.value(3)
    assert not PAPER_KERNELS["f1"].needs_m()


def test_difference_operators():
    f3 = PAPER_KERNELS["f3"]
    assert delta(f3, 1) == Fraction(4, 3) - 1
    f5 = PAPER_KERNELS["f5"]
    assert bar(f5, 1, 2) == Fraction(-2, 3)
    assert bar(f5, 1, 1) == Fraction(1, 3) - (-1) * (-1)


def test_divisibility_validators():
    lin = poly_kernel("lin", (0, 1))
    assert kernel_power_divisible(lin, 20, 1)
    assert not kernel_power_divisible(poly_kernel("const", (2,)), 20, 1)
    sq = poly_kernel("sq", (0, 0, 1))
    assert kernel_power_divisible(sq, 20, 2)
    assert not kernel_power_divisible(sq, 20, 3)
    cube = poly_kernel("cube", (0, 0, 0, 1))
    assert kernel_power_divisible(cube, 20, 3)


def test_central_product_memberships():
    recip = KernelSpec(name="recip", sign="none", num=(1,), den=(-1, 2))
    assert central_times_kernel_in_Z(recip, 30)
    assert central_times_kernel_in_kZ(PAPER_KERNELS["f1"], 30)
    assert central_times_kernel_in_Z(PAPER_KERNELS["f9"], 30, 2)
    assert not central_times_kernel_in_kZ(recip, 30)
    # binomial(2k-1, k) / (k + 1) is 1 at k = 0 and 1/2 at k = 1
    half = KernelSpec(name="half", sign="none", num=(1,), den=(1, 1))
    assert central_times_kernel_in_Z(half, 0)
    assert not central_times_kernel_in_Z(half, 1)
    # binomial(2k-1, k) k (k + 1) / 2 is 0, 1, 9 at k = 0, 1, 2: 2 does not divide 9
    tri = KernelSpec(name="tri", sign="none", num=(0, 1, 1), den=(2,))
    assert central_times_kernel_in_Z(tri, 30)
    assert central_times_kernel_in_kZ(tri, 1)
    assert not central_times_kernel_in_kZ(tri, 2)


def test_specs_are_immutable_and_roundtrip():
    f1 = PAPER_KERNELS["f1"]
    with pytest.raises((AttributeError, TypeError)):
        f1.sign = "k"
    for kernel in PAPER_KERNELS.values():
        assert kernel_from_descriptor(kernel_descriptor(kernel)) == kernel
