"""Catalogue of every registered check family.

``_TABLE`` declares each family once, in one row under its group: its name,
anchor label, default grid, checker and explicit-parameter pins;
``FAMILIES``, ``GROUPS`` and the scan and q-family selectors derive from it.
A grid maps a bounds dictionary to a list of parameter dictionaries, and the
checker takes those parameters as keyword arguments: ``run_instance`` calls
``check(**params)``, after decoding the two parameters whose JSON form
differs from the checker's argument type (a kernel descriptor, and lemma42's
``[num, den]`` pairs).  A checker returns its verdict alone; ``run_instance``
stamps the result with the family name and the params dict it was given, in
JSON form and key order.  Grids are deterministic, including the randomized
framework sweeps, so repeated runs enumerate identical instances in
identical order; ``run_instance`` takes only picklable arguments and is safe
to fan out across worker processes.

A row names its checker as ``"module.function"``, never through the verify
facade.  The module is imported on the family's first check, in the process
that runs it, so listing or enumerating families compiles no checker module.
kernels loads only in the thm41-thm44 grids and in the kernel decoder of
``run_instance``.

Range overrides are passed as a bounds mapping with keys ``max_n``,
``max_p`` and ``max_m``.  Grids consume the bounds they understand and
ignore the rest; the randomized framework sweeps are fixed and ignore
overrides entirely.  ``max_p`` is inclusive (p <= max_p) for every family
except the conjecture scans conj51, conj54 and conj55, which read it as
exclusive (p < max_p).
"""

from __future__ import annotations

import importlib
import random
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .exactnum import primes_up_to
from .result import CheckResult

if TYPE_CHECKING:
    from .kernels import KernelSpec

__all__ = [
    "Family",
    "FAMILIES",
    "GROUPS",
    "family_names",
    "get_family",
    "instances_for",
    "run_instance",
    "run_pair",
    "all_jobs",
]

_SEED = 20260815


def _cap(bounds: dict, key: str, default: int) -> int:
    value = bounds.get(key)
    return default if value is None else value


def _primes(bounds: dict, default: int, least: int, below: bool = False) -> list[int]:
    """Primes p >= least with p <= max_p, or p < max_p when below."""
    top = _cap(bounds, "max_p", default)
    return [p for p in primes_up_to(top - 1 if below else top) if p >= least]


# -- grid builders shared by several families -------------------------------------


def _n_grid(default: int, bounds: dict, start: int = 1) -> list[dict]:
    """{"n": n} for start <= n <= max_n."""
    return [{"n": n} for n in range(start, _cap(bounds, "max_n", default) + 1)]


def _p_grid(default: int, bounds: dict, least: int = 3) -> list[dict]:
    """{"p": p} for the primes least <= p <= max_p."""
    return [{"p": p} for p in _primes(bounds, default, least)]


def _n_max_grid(default: int, bounds: dict) -> list[dict]:
    """One instance checking indices up to max_n, none below the first
    recurrence window at max_n = 3."""
    top = _cap(bounds, "max_n", default)
    return [{"n_max": top}] if top >= 3 else []


def _mn_grid(m_default: int, n_default: int, bounds: dict) -> list[dict]:
    """{"m": m, "n": n} for 1 <= m <= max_m and 1 <= n <= max_n."""
    return [
        {"m": m, "n": n}
        for m in range(1, _cap(bounds, "max_m", m_default) + 1)
        for n in range(1, _cap(bounds, "max_n", n_default) + 1)
    ]


# -- fixed congruence and identity grids ----------------------------------------


def _grid_remark11(bounds: dict) -> list[dict]:
    top = _cap(bounds, "max_n", 20)
    return [{"n": n, "d": d} for n in range(top + 1) for d in range(n + 1)]


THM15_VARIANTS = (
    "odd_plain",
    "cubic_plain",
    "odd_signed",
    "stepcube_signed",
    "cubic_paired",
    "stepcube_paired",
)


def _grid_thm15i(bounds: dict) -> list[dict]:
    top = _cap(bounds, "max_n", 60)
    mtop = _cap(bounds, "max_m", 3)
    # variant innermost: consecutive instances share the cached product grid
    return [
        {"m": m, "n": n, "variant": variant}
        for m in range(1, mtop + 1)
        for n in range(1, top + 1)
        for variant in THM15_VARIANTS
    ]


def _grid_thm15ii(bounds: dict) -> list[dict]:
    top = _cap(bounds, "max_n", 60)
    return [
        {"n": n, "a": a, "b": b}
        for n in range(1, top + 1)
        for a in range(1, 4)
        for b in range(1, 4)
    ]


def _grid_lemma23(bounds: dict) -> list[dict]:
    top = _cap(bounds, "max_n", 50)
    return [{"n": n, "k": k} for n in range(1, top + 1) for k in range(1, n + 1)]


# -- randomized framework sweeps -------------------------------------------------


def _poly_body(rng: random.Random, degree: int, bound: int = 3) -> tuple[int, ...]:
    while True:
        coeffs = tuple(rng.randint(-bound, bound) for _ in range(degree + 1))
        if any(coeffs):
            return coeffs


def _shifted_draw(rng: random.Random) -> tuple[int, list[int], list[int]]:
    """n, a_list and b_list of a shifted-row instance (thm41, cor41)."""
    d0 = rng.choice((1, 2, 3, 4))
    m = rng.randint(1, 3)
    n = d0 * rng.randint(1, 40 // d0)
    # entries are multiples of d0 so the shared gcd is usually nontrivial
    alphas = list(range(1, 4 // d0 + 1))
    a_list = [d0 * rng.choice(alphas) * rng.choice((-1, 1)) for _ in range(m)]
    b_list = [d0 * rng.randint(0, 3 // d0) for _ in range(m)]
    return n, a_list, b_list


def _grid_thm41(bounds: dict) -> list[dict]:
    from .kernels import KernelSpec, kernel_descriptor

    rng = random.Random("thm41-%d" % _SEED)
    out = []
    for i in range(100):
        n, a_list, b_list = _shifted_draw(rng)
        shift = rng.choice((1, 2))
        kern = KernelSpec(
            name="w%02d" % i,
            sign=rng.choice(("none", "k")),
            num=(0,) * shift + _poly_body(rng, 2),
        )
        out.append(
            {
                "n": n,
                "kernel": kernel_descriptor(kern),
                "a_list": a_list,
                "b_list": b_list,
            }
        )
    return out


def _grid_cor41(bounds: dict) -> list[dict]:
    rng = random.Random("cor41-%d" % _SEED)
    out = []
    for _ in range(100):
        n, a_list, b_list = _shifted_draw(rng)
        out.append({"n": n, "a_list": a_list, "b_list": b_list})
    return out


def _grid_thm42(bounds: dict) -> list[dict]:
    from .kernels import KernelSpec, kernel_descriptor

    rng = random.Random("thm42-%d" % _SEED)
    out = []
    for i in range(100):
        m = rng.randint(1, 3)
        n = rng.randint(1, 40)
        a_list = [rng.randint(1, 4) * rng.choice((-1, 1)) for _ in range(m)]
        kern = KernelSpec(
            name="w%02d" % i,
            sign=rng.choice(("none", "k")),
            num=(0, 0, 0) + _poly_body(rng, 2),
        )
        out.append({"n": n, "kernel": kernel_descriptor(kern), "a_list": a_list})
    return out


def _grid_thm43(bounds: dict) -> list[dict]:
    from .kernels import KernelSpec, kernel_descriptor

    rng = random.Random("thm43-%d" % _SEED)
    out = []
    for i in range(100):
        n = rng.randint(1, 40)
        a_list = [1] + sorted(rng.randint(1, 4) for _ in range(rng.randint(0, 2)))
        strength = rng.choice(("integral", "over_n"))
        body = _poly_body(rng, 2)
        den_kind = rng.choice(("odd", "catalan", "central"))
        if den_kind == "odd":
            den, central = (-1, 2), False
        elif den_kind == "catalan":
            # the central/(k+1) ratio is only half-integral, so double up
            den, central = (1, 1), False
            body = tuple(2 * c for c in body)
        else:
            den, central = (1,), True
        num = body if strength == "integral" else (0,) + body
        kern = KernelSpec(
            name="w%02d" % i,
            sign=rng.choice(("none", "k")),
            num=num,
            den=den,
            central_den=central,
        )
        out.append(
            {
                "n": n,
                "kernel": kernel_descriptor(kern),
                "a_list": a_list,
                "strength": strength,
            }
        )
    return out


def _grid_thm44(bounds: dict) -> list[dict]:
    from .kernels import PAPER_KERNELS, KernelSpec, kernel_descriptor

    rng = random.Random("thm44-%d" % _SEED)
    pool = ("f5", "f6", "f7", "f8", "f9", "f10")
    out = []
    for i in range(100):
        n = rng.randint(1, 40)
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        if rng.random() < 0.5:
            kern = PAPER_KERNELS[rng.choice(pool)]
        else:
            kern = KernelSpec(
                name="w%02d" % i,
                sign=rng.choice(("none", "k", "km", "k(m-1)")),
                num=_poly_body(rng, 2),
                central_den=True,
            )
        out.append({"n": n, "a": a, "b": b, "kernel": kernel_descriptor(kern)})
    return out


def _grid_lemma42(bounds: dict) -> list[dict]:
    rng = random.Random("lemma42-%d" % _SEED)
    out = []
    for _ in range(60):
        n = rng.randint(1, 40)
        seq = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        out.append(
            {"n": n, "a_seq": [[f.numerator, f.denominator] for f in seq]}
        )
    return out


# -- q-polynomial grids -----------------------------------------------------------


def _grid_qlucas(bounds: dict) -> list[dict]:
    return [
        {"a": a, "b": b, "s": s, "t": t, "d": d}
        for d in range(1, 7)
        for a in range(7)
        for b in range(7)
        for s in range(d)
        for t in range(d)
    ]


def _grid_lemma32(bounds: dict) -> list[dict]:
    top = _cap(bounds, "max_n", 30)
    return [
        {"n": n, "k": k}
        for n in range(2, top + 1)
        for k in range(n)
        if 2 * k < n - 1
    ]


def _grid_thm31q(bounds: dict) -> list[dict]:
    top = _cap(bounds, "max_n", 30)
    return [{"n": n, "k": k} for n in range(1, top + 1) for k in range(n)]


def _grid_thm32q(bounds: dict) -> list[dict]:
    top = _cap(bounds, "max_n", 20)
    out = []
    for n in range(1, top + 1):
        for a in range(3):
            for a_prime in (a - 1, a):
                if a_prime < 0:
                    continue
                for b in range(3):
                    out.append({"n": n, "a": a, "b": b, "a_prime": a_prime})
    return out


# -- open-question scans ------------------------------------------------------------


def _grid_conj51(bounds: dict) -> list[dict]:
    return [{"p": p} for p in _primes(bounds, 1000, 3, below=True) if p % 4 == 3]


# The first index of each conj52 claim's conjectured range.
CONJ52_START = {
    ("R", "ratio_step"): 3,
    ("R", "ratio_bound"): 3,
    ("R", "root_step"): 5,
    ("S", "ratio_step"): 3,
    ("S", "ratio_bound"): 3,
    ("S", "root_step"): 1,
}


def _grid_conj52(bounds: dict) -> list[dict]:
    top = _cap(bounds, "max_n", 1000)
    return [
        {"seq": seq, "claim": claim, "n": n}
        for seq in ("R", "S")
        for claim in ("ratio_bound", "ratio_step", "root_step")
        # ratio_step reads the term at n + 2, the others at n + 1: all stop at max_n
        for n in range(
            CONJ52_START[(seq, claim)],
            top - 1 if claim == "ratio_step" else top,
        )
    ]


def _kind_grid(least: int, bounds: dict) -> list[dict]:
    """Divisibility form for n <= max_n, then prime form for least <= p < max_p."""
    out = [
        {"kind": "divisibility", "n": n}
        for n in range(1, _cap(bounds, "max_n", 200) + 1)
    ]
    out.extend(
        {"kind": "prime", "p": p} for p in _primes(bounds, 300, least, below=True)
    )
    return out


def _pin_kind(pins: dict) -> dict:
    """Route explicit n/p pins to the divisibility or prime branch."""
    if "n" in pins and "p" in pins:
        raise ValueError("give --n or --p, not both")
    if "p" in pins:
        return {"kind": "prime", "p": pins["p"]}
    if "n" in pins:
        return {"kind": "divisibility", "n": pins["n"]}
    raise ValueError("need --n or --p")


class _Checker:
    """A checker named as "module.function".  The module is imported on the
    first call (or by load), so enumerating grids imports none."""

    __slots__ = ("module", "name", "_fn")

    def __init__(self, dotted: str) -> None:
        self.module, self.name = dotted.split(".")
        self._fn: Optional[Callable[..., CheckResult]] = None

    def load(self) -> Callable[..., CheckResult]:
        if self._fn is None:
            module = importlib.import_module("." + self.module, __package__)
            self._fn = getattr(module, self.name)
        return self._fn

    def __call__(self, *args, **kwargs) -> CheckResult:
        return (self._fn or self.load())(*args, **kwargs)


class Family(NamedTuple):
    """One registered check family: anchor label, default grid, checker
    (called as check(**params)) and the params the command line may pin."""

    name: str
    group: str
    anchor: str
    grid: Callable[[dict], list[dict]]
    check: Callable[..., CheckResult]
    pins: tuple[str, ...]
    pin_build: Optional[Callable[[dict], dict]] = None

    def instance_from_pins(self, pins: dict) -> dict:
        if not self.pins:
            raise ValueError(
                "family %s takes no explicit parameters; use range bounds" % self.name
            )
        unknown = sorted(set(pins) - set(self.pins))
        if unknown:
            raise ValueError(
                "family %s does not take: %s" % (self.name, ", ".join(unknown))
            )
        if self.pin_build:
            return self.pin_build(pins)
        missing = [key for key in self.pins if key not in pins]
        if missing:
            raise ValueError(
                "family %s also needs: %s" % (self.name, ", ".join(missing))
            )
        return {key: pins[key] for key in self.pins}


# One row per family, by group: name, anchor label, default grid, checker as
# "module.function", the params the command line may pin and, for a family
# whose pins choose between grid branches, the builder of its instance.
_TABLE = {
    "sequences": (
        ("rec_r", "Recurrence (1.3)", partial(_n_max_grid, 200),
         "sequences.check_recurrence_R", ()),
        ("rec_r_poly", "Recurrence (1.5)", partial(_n_max_grid, 100),
         "sequences.check_recurrence_R_poly", ()),
        ("rec_s", "Recurrence (1.18)", partial(_n_max_grid, 200),
         "sequences.check_recurrence_S", ()),
    ),
    "congruences": (
        ("thm11", "Theorem 1.1 (1.6)-(1.11)", partial(_p_grid, 1999),
         "residues.check_thm11", ("p",)),
        ("thm12", "Theorem 1.2 (1.12)", partial(_p_grid, 997),
         "residues.check_thm12", ("p",)),
        ("remark11", "Remark 1.1", _grid_remark11,
         "identities.check_remark11", ("n", "d")),
        ("thm13", "Theorem 1.3 (1.13)", partial(_p_grid, 997),
         "prefixes.check_thm13", ("p",)),
        ("thm13ii", "Theorem 1.3 (1.14)/(1.15)", partial(_n_grid, 500),
         "prefixes.check_thm13_ii", ("n",)),
        ("thm14i", "Theorem 1.4 (1.19)/(1.20)", partial(_n_grid, 300),
         "prefixes.check_thm14_i", ("n",)),
        ("thm14ii", "Theorem 1.4(ii)", partial(_p_grid, 499, least=5),
         "prefixes.check_thm14_ii", ("p",)),
        ("thm15i", "Theorem 1.5(i) (1.21)-(1.26)", _grid_thm15i,
         "displays.check_thm15_i_grid", ("m", "n", "variant")),
        ("thm15ii", "Theorem 1.5(ii) (1.27)-(1.35)", _grid_thm15ii,
         "displays.check_thm15_ii", ("n", "a", "b")),
        ("remark13", "Remark 1.3 (1.36)", partial(_n_grid, 100),
         "displays.check_remark13", ("n",)),
        ("xval15", "Theorem 1.5(ii) via Theorem 4.4 kernels", _grid_thm15ii,
         "displays.check_xval15", ("n", "a", "b")),
        ("cor11", "Corollary 1.1 (1.37)/(1.38)", partial(_n_grid, 150),
         "prefixes.check_cor11", ("n",)),
        ("lemma22", "Lemma 2.2 (2.2)", partial(_n_grid, 50, start=0),
         "identities.check_lemma22", ("n",)),
        ("lemma23", "Lemma 2.3 (2.6)", _grid_lemma23,
         "identities.check_lemma23", ("n", "k")),
    ),
    "framework": (
        ("thm41", "Theorem 4.1 (4.1)/(4.2)", _grid_thm41,
         "framework.check_thm41", ()),
        ("cor41", "Corollary 4.1 (4.4)-(4.8)", _grid_cor41,
         "framework.check_cor41", ()),
        ("thm42", "Theorem 4.2 (4.9)", _grid_thm42,
         "framework.check_thm42", ()),
        ("thm43", "Theorem 4.3 (4.10)-(4.12)", _grid_thm43,
         "framework.check_thm43", ()),
        ("thm44", "Theorem 4.4 (4.14)", _grid_thm44,
         "framework.check_thm44", ()),
        ("lemma42", "Lemma 4.2 (4.16)", _grid_lemma42,
         "framework.check_lemma42", ()),
    ),
    "q-analogues": (
        ("qlucas", "Lemma 3.1 (3.1)", _grid_qlucas,
         "qalgebra.check_q_lucas", ("a", "b", "s", "t", "d")),
        ("lemma32", "Lemma 3.2 (3.2)", _grid_lemma32,
         "qalgebra.check_lemma32", ("n", "k")),
        ("thm31q", "Theorem 3.1 (3.3)/(3.4)", _grid_thm31q,
         "qalgebra.check_theorem31_q", ("n", "k")),
        ("thm32q", "Theorem 3.2 (3.7)/(3.8)", _grid_thm32q,
         "qalgebra.check_theorem32_q", ("n", "a", "b", "a_prime")),
        ("conj57", "Conjecture 5.7 (5.10)", partial(_n_grid, 25),
         "qalgebra.check_conj57", ("n",)),
        ("conj58q", "Conjecture 5.8(ii) (5.13)/(5.14)", partial(_mn_grid, 3, 20),
         "qalgebra.check_conj58_q", ("m", "n")),
    ),
    "conjectures": (
        ("conj51", "Conjecture 5.1 (5.1)/(5.2)", _grid_conj51,
         "residues.check_conj51", ("p",)),
        ("conj52", "Conjecture 5.2 growth surrogates", _grid_conj52,
         "scans.check_conj52", ()),
        ("conj53", "Conjecture 5.3 irreducibility", partial(_n_grid, 8),
         "scans.conj53_witness", ("n",)),
        ("conj54", "Conjecture 5.4 (5.3)-(5.5)", partial(_kind_grid, 3),
         "scans.check_conj54", ("n", "p"), _pin_kind),
        ("conj55", "Conjecture 5.5 (5.7)/(5.8)", partial(_kind_grid, 2),
         "scans.check_conj55", ("n", "p"), _pin_kind),
        ("conj56", "Conjecture 5.6 (5.9)", partial(_n_grid, 200),
         "scans.check_conj56", ("n",)),
        ("remark52", "Remark 5.2 (5.6)", partial(_n_grid, 50),
         "scans.check_remark52", ("n",)),
        ("remark53", "Remark 5.3", partial(_n_grid, 200),
         "scans.check_remark53", ("n",)),
        ("conj58i", "Conjecture 5.8(i) (5.11)/(5.12)", partial(_mn_grid, 4, 60),
         "scans.check_conj58i", ("m", "n")),
    ),
}

FAMILIES: dict[str, Family] = {
    name: Family(name, group, anchor, grid, _Checker(check), *pin_fields)
    for group, rows in _TABLE.items()
    for name, anchor, grid, check, *pin_fields in rows
}

GROUPS = tuple(_TABLE)

# the last two groups: qverify takes the q-analogues, scan the conjectures
Q_FAMILIES, SCAN_SELECTORS = (
    tuple(row[0] for row in rows) for rows in list(_TABLE.values())[-2:]
)


def _decode_kernel(descriptor: dict) -> KernelSpec:
    from .kernels import kernel_from_descriptor

    return kernel_from_descriptor(descriptor)


# Params whose JSON form differs from the checker's argument type.
_DECODE: dict[str, Callable] = {
    "kernel": _decode_kernel,
    "a_seq": lambda pairs: [Fraction(num, den) for num, den in pairs],
}


def family_names() -> list[str]:
    return list(FAMILIES)


def get_family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError("unknown family %r" % (name,)) from None


def instances_for(name: str, bounds: Optional[dict] = None) -> list[dict]:
    """Default (or bounded) parameter grid for one family."""
    return get_family(name).grid(dict(bounds or {}))


def run_instance(name: str, params: dict) -> CheckResult:
    """Execute one instance as check(**params) and stamp the result with name
    and params, as given; everything involved pickles."""
    args = {
        key: _DECODE[key](value) if key in _DECODE else value
        for key, value in params.items()
    }
    result = get_family(name).check(**args)
    result.family = name
    result.params = params
    return result


def run_pair(pair: tuple[str, dict]) -> CheckResult:
    return run_instance(pair[0], pair[1])


def all_jobs(
    names: Optional[list[str]] = None, bounds: Optional[dict] = None
) -> list[tuple[str, dict]]:
    """(family, params) pairs over the given families, in canonical order."""
    out: list[tuple[str, dict]] = []
    for name in names if names is not None else family_names():
        for params in instances_for(name, bounds):
            out.append((name, params))
    return out
