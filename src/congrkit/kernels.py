"""Weight-function kernels for the generic divisibility framework.

A kernel is a rational function of k of the shape

    f(k) = sign(k, m) * P(k) / D(k)

where the sign twist is one of 1, (-1)^k, (-1)^(km), (-1)^(k(m-1)) (m is the
number of binomial factors in the hosting sum), P is an integer polynomial
in k, and D is either an integer polynomial in k or the central coefficient
binomial(2k-1, k).  Kernels are plain data: the checkers consume them
through value() and the difference forms delta()/bar(), so a new kernel is
a registry entry, not new code.

The ten named kernels below are exactly the ones whose difference forms
generate the alternating-sum integrality families (the 1/(4k^2-1),
1/binomial(k+2,2) and 1/((2k+1) binomial(2k,k)) weights and their k-scaled
variants).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional

from .exactnum import binomial

__all__ = [
    "KernelSpec",
    "PAPER_KERNELS",
    "bar",
    "delta",
    "central_times_kernel_in_Z",
    "central_times_kernel_in_kZ",
    "kernel_descriptor",
    "kernel_from_descriptor",
    "kernel_power_divisible",
    "poly_kernel",
]

SIGNS = ("none", "k", "km", "k(m-1)")


def _polyval(coeffs: tuple[int, ...], k: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


class _KernelFields(NamedTuple):
    name: str
    sign: str  # one of SIGNS
    num: tuple[int, ...]  # polynomial in k, ascending coefficients
    den: tuple[int, ...] = (1,)
    central_den: bool = False  # denominator binomial(2k-1, k) instead of den


class KernelSpec(_KernelFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> KernelSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.sign not in SIGNS:
            raise ValueError("unknown sign twist %r" % (self.sign,))
        return self

    def needs_m(self) -> bool:
        return self.sign in ("km", "k(m-1)")

    def value(self, k: int, m: Optional[int] = None) -> Fraction:
        if self.sign == "none":
            sgn = 1
        elif self.sign == "k":
            sgn = -1 if k % 2 else 1
        else:
            if m is None:
                raise ValueError("kernel %s requires the factor count m" % self.name)
            e = k * m if self.sign == "km" else k * (m - 1)
            sgn = -1 if e % 2 else 1
        den = binomial(2 * k - 1, k) if self.central_den else _polyval(self.den, k)
        if den == 0:
            raise ZeroDivisionError("kernel %s denominator vanishes at k=%d" % (self.name, k))
        return Fraction(sgn * _polyval(self.num, k), den)


def kernel_descriptor(kernel: KernelSpec) -> dict:
    """JSON-stable encoding of a kernel, as the framework grids hold it."""
    return {
        "name": kernel.name,
        "sign": kernel.sign,
        "num": list(kernel.num),
        "den": "central" if kernel.central_den else list(kernel.den),
    }


def kernel_from_descriptor(data: dict) -> KernelSpec:
    if data.get("den") == "central":
        return KernelSpec(
            data["name"], data["sign"], tuple(data["num"]), central_den=True
        )
    return KernelSpec(
        data["name"], data["sign"], tuple(data["num"]), tuple(data["den"])
    )


def poly_kernel(name: str, coeffs: tuple[int, ...], sign: str = "none") -> KernelSpec:
    """Integer-polynomial kernel (denominator 1)."""
    return KernelSpec(name=name, sign=sign, num=coeffs)


def delta(kernel: KernelSpec, k: int, m: Optional[int] = None) -> Fraction:
    """Forward difference f(k+1) - f(k)."""
    return kernel.value(k + 1, m) - kernel.value(k, m)


def bar(kernel: KernelSpec, k: int, m: int) -> Fraction:
    """Signed difference f(k+1) - (-1)^m f(k)."""
    fk = kernel.value(k, m)
    return kernel.value(k + 1, m) - (-fk if m % 2 else fk)


# Numeric precondition checks, run over 0 <= k <= upto.


def _k_power_multiples(values: Iterable[tuple], power: int) -> bool:
    """v is an integer multiple of k^power for every (k, v), so 0 at k = 0."""
    return all(
        v.denominator == 1 and not (v.numerator % k**power if k else v) for k, v in values
    )


def kernel_power_divisible(
    kernel: KernelSpec, upto: int, power: int, m: Optional[int] = None
) -> bool:
    """f integer-valued with k^power | f(k), so f(0) == 0."""
    if power < 1:
        raise ValueError("kernel_power_divisible: power must be >= 1")
    return _k_power_multiples(((k, kernel.value(k, m)) for k in range(upto + 1)), power)


def _central_times(kernel: KernelSpec, upto: int, m: Optional[int]) -> Iterator[tuple]:
    """(k, binomial(2k-1, k) * f(k)) for 0 <= k <= upto, computed lazily."""
    for k in range(upto + 1):
        yield k, kernel.value(k, m) * binomial(2 * k - 1, k)


def central_times_kernel_in_Z(kernel: KernelSpec, upto: int, m: Optional[int] = None) -> bool:
    """binomial(2k-1, k) * f(k) is an integer for all k <= upto."""
    return all(v.denominator == 1 for _, v in _central_times(kernel, upto, m))


def central_times_kernel_in_kZ(kernel: KernelSpec, upto: int, m: Optional[int] = None) -> bool:
    """binomial(2k-1, k) * f(k) is an integer multiple of k for all k <= upto."""
    return _k_power_multiples(_central_times(kernel, upto, m), 1)


PAPER_KERNELS: dict[str, KernelSpec] = {
    "f1": KernelSpec("f1", "none", (0, 1), (-1, 2)),  # k / (2k-1)
    "f2": KernelSpec("f2", "k", (0, 1), (-1, 2)),  # (-1)^k k / (2k-1)
    "f3": KernelSpec("f3", "none", (0, 2), (1, 1)),  # 2k / (k+1)
    "f4": KernelSpec("f4", "k", (0, 2), (1, 1)),  # (-1)^k 2k / (k+1)
    "f5": KernelSpec("f5", "km", (1,), (-1, 2)),  # (-1)^(km) / (2k-1)
    "f6": KernelSpec("f6", "k(m-1)", (1,), (-1, 2)),
    "f7": KernelSpec("f7", "km", (2,), (1, 1)),  # (-1)^(km) 2 / (k+1)
    "f8": KernelSpec("f8", "k(m-1)", (2,), (1, 1)),
    "f9": KernelSpec("f9", "km", (1,), central_den=True),
    "f10": KernelSpec("f10", "k(m-1)", (1,), central_den=True),
}
