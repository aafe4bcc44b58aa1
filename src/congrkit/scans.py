"""Scans of the open questions of Section 5: the checkers of conj52,
conj53, conj54, conj55, conj56, conj58i, remark52 and remark53.

Each scan checks a conjecture's claim on one instance of a bounded range;
a PASS supports the conjecture there and proves nothing beyond it.  conj52
checks exact surrogates of its growth claims (cross-multiplied ratios and
powers, squared bounds), so no limit is ever asserted.  conj54 and conj55
take n alone for their divisibility form and p alone for their closed form
mod a prime power.  conj53 hunts, for each of the two coefficient
polynomials, for a prime modulo which it is irreducible, and reports
INCONCLUSIVE when no candidate prime certifies one of them.  The prefix-sum scans read the shared prefix
table of sequences._weighted_prefix and sequences._poly_prefix.  conj51,
a residue-table sum, is checked in residues.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .exactnum import (
    binomial,
    catalan,
    is_prime,
    legendre_symbol,
    pow_compare,
    primes_up_to,
)
from .polynomials import X, Poly
from .registry import CONJ52_START
from .result import FAIL, INCONCLUSIVE, PASS, CheckResult
from .result import _chain, _divisibility, _first_failure, equal, show, verdict
from .sequences import R_poly, S_m_poly, S_poly, values_of
from .sequences import _central_rows, _poly_prefix, _weighted_prefix

__all__ = [
    "check_conj52",
    "conj53_witness",
    "check_conj54",
    "check_conj55",
    "check_conj56",
    "check_remark52",
    "check_remark53",
    "check_conj58i",
]


# -- open-conjecture scans -------------------------------------------------------


def check_conj52(seq: str, claim: str, n: int) -> CheckResult:
    """Exact surrogates for the growth of consecutive terms of R or S."""
    if seq not in ("R", "S") or (seq, claim) not in CONJ52_START:
        raise ValueError("conj52: unknown sequence or claim")
    if n < CONJ52_START[(seq, claim)]:
        raise ValueError("conj52: index below the conjectured range")
    vals = values_of(seq, n + 2)
    if claim == "ratio_step":
        left = vals[n + 2] * vals[n]
        right = vals[n + 1] * vals[n + 1]
        return verdict(
            left > right,
            show(left),
            show(right),
            note="consecutive-ratio increase by cross multiplication",
        )
    if claim == "root_step":
        return verdict(
            pow_compare(vals[n + 1], n, vals[n], n + 1) == 1,
            "term(%d)^%d" % (n + 1, n),
            "term(%d)^%d" % (n, n + 1),
            note="root-ratio term exceeds 1; surrogate for the decrease to 1",
        )
    if seq == "S":
        return verdict(
            vals[n + 1] < 9 * vals[n],
            show(vals[n + 1]),
            show(9 * vals[n]),
            note="ratio below 9; limit value itself not asserted",
        )
    gap = vals[n + 1] - 3 * vals[n]
    bound = 8 * vals[n] * vals[n]
    return verdict(
        gap <= 0 or gap * gap < bound,
        show(gap * gap),
        show(bound),
        note="ratio below 3 + sqrt(8) by exact squaring; limit not asserted",
    )


def _check_kind(
    family: str, kind: Optional[str], n: Optional[int], p: Optional[int]
) -> None:
    """conj54 and conj55 take n alone with kind "divisibility", p alone with
    kind "prime"; the result is stamped with the params as given."""
    if kind not in ("divisibility", "prime"):
        raise ValueError("%s: kind must be divisibility or prime" % family)
    key, value, other = ("n", n, p) if kind == "divisibility" else ("p", p, n)
    if value is None or other is not None:
        raise ValueError("%s: kind %s takes %s alone" % (family, kind, key))


def check_conj54(
    kind: Optional[str] = None, n: Optional[int] = None, p: Optional[int] = None
) -> CheckResult:
    """Square prefix sums of R: divisible by n, or closed forms mod p^2, p^3."""
    _check_kind("conj54", kind, n, p)
    if kind == "divisibility":
        if n < 1:
            raise ValueError("conj54: need n >= 1")
        return _divisibility(
            [
                ("tripled square prefix", 3 * _weighted_prefix("R", n, power=2), n),
                ("odd-weighted square prefix", _weighted_prefix("R", n, "odd", 2), n),
            ]
        )
    if p < 3 or not is_prime(p):
        raise ValueError("conj54: p must be an odd prime")
    chi = legendre_symbol(-1, p)
    chains = (
        ("plain", 2, [
            ("square prefix", Fraction(_weighted_prefix("R", p, power=2))),
            ("closed form", Fraction(p, 3) * (11 - 4 * chi)),
        ]),
        ("odd weight", 3, [
            ("odd-weighted prefix", Fraction(_weighted_prefix("R", p, "odd", 2))),
            ("closed form", Fraction(4 * p * chi - p * p)),
        ]),
    )
    return _first_failure(
        _chain(members, p, e, claim=claim) for claim, e, members in chains
    )


def check_conj55(
    kind: Optional[str] = None, n: Optional[int] = None, p: Optional[int] = None
) -> CheckResult:
    """Weighted prefix sums of S: divisible by n^2, or a closed form mod p^3."""
    _check_kind("conj55", kind, n, p)
    if kind == "divisibility":
        if n < 1:
            raise ValueError("conj55: need n >= 1")
        quadrupled = 4 * _weighted_prefix("S", n, "index")
        return _divisibility([("quadrupled weighted prefix", quadrupled, n * n)])
    if not is_prime(p):
        raise ValueError("conj55: p must be prime")
    target = Fraction(p * p, 8) * (5 - 9 * legendre_symbol(p, 3))
    return _chain(
        [
            ("weighted prefix", Fraction(_weighted_prefix("S", p, "index"))),
            ("closed form", target),
        ],
        p,
        3,
    )


def check_conj56(n: int) -> CheckResult:
    """Prefix sums of s, S^+ and S^- are divisible by n^2."""
    if n < 1:
        raise ValueError("conj56: need n >= 1")
    return _divisibility(
        [
            ("plain prefix", _weighted_prefix("s", n), n * n),
            ("plus prefix", _weighted_prefix("Splus", n), n * n),
            ("minus prefix", _weighted_prefix("Sminus", n), n * n),
        ]
    )


def check_remark53(n: int) -> CheckResult:
    """Prefix sums of S^+ and S^- are divisible by n."""
    if n < 1:
        raise ValueError("remark53: need n >= 1")
    return _divisibility(
        [
            ("plus prefix", _weighted_prefix("Splus", n), n),
            ("minus prefix", _weighted_prefix("Sminus", n), n),
        ]
    )


def check_conj58i(m: int, n: int) -> CheckResult:
    """Coefficients of the prefix sum of the S_m polynomials are divisible by n."""
    if n < 1:
        raise ValueError("conj58i: need n >= 1")
    coeffs = _poly_prefix(("S_m", m), n, partial(S_m_poly, m))
    for k, c in enumerate(coeffs):
        if c % n:
            return CheckResult(
                FAIL, lhs=show(c), rhs="0", modulus=str(n), witness={"x_power": k}
            )
    return CheckResult(
        PASS, modulus=str(n), note="coefficient form; covers the per-index tail sums"
    )


def check_remark52(n: int) -> CheckResult:
    """Tripled odd-weighted prefix of the coefficient polynomials equals n
    times an explicitly integral polynomial."""
    if n < 1:
        raise ValueError("check_remark52: need n >= 1")
    _, over = _central_rows(n)
    acc = _poly_prefix(("R_poly", "odd"), n, lambda j: (2 * j + 1) * R_poly(j))
    for k in range(n):
        q = (n - k) * binomial(n + k, 2 * k) * (2 * over[k] - catalan(k))
        if 3 * acc[k] != n * q:
            return equal(3 * acc[k], n * q, {"x_power": k})
    return CheckResult(PASS, note="coefficientwise identity, degrees < n")


# -- irreducibility witness search over prime fields -----------------------------


def _gf(f: Poly, p: int) -> Poly:
    """f with every coefficient reduced mod p."""
    return Poly([c % p for c in f.coeffs])


def _gf_monic(f: Poly, p: int) -> Poly:
    return _gf(f * pow(f.leading(), -1, p), p)


def _gf_powmod(f: Poly, e: int, mod: Poly, p: int) -> Poly:
    """f^e mod (mod, p) for a monic mod.  Every divisor here is monic, so %
    is Poly's integer division, and its remainder reduced mod p is the
    remainder over the field with p elements."""
    out, base = Poly.const(1), _gf(f % mod, p)
    while e:
        if e & 1:
            out = _gf(out * base % mod, p)
        base = _gf(base * base % mod, p)
        e >>= 1
    return out


def _gf_gcd(f: Poly, g: Poly, p: int) -> Poly:
    while g:
        f, g = g, _gf(f % _gf_monic(g, p), p)
    return f


def _irreducible_mod(coeffs: Sequence[int], p: int) -> bool:
    """Distinct-degree irreducibility test in the field with p elements.

    Requires p not to divide the leading coefficient, so reduction keeps
    the degree.  A reducible f of degree d, squarefree or not, has an
    irreducible factor of some degree e <= d/2, and that factor divides
    x^(p^e) - x; so f is irreducible exactly when gcd(f, x^(p^e) - x) = 1
    for every e <= d/2.  The test stops at the first e that finds a factor.
    """
    f = _gf(Poly(coeffs), p)
    d = f.degree
    if d != len(coeffs) - 1:
        return False
    f = _gf_monic(f, p)
    power = X  # x^(p^e) reduced mod f
    for _ in range(d // 2):
        power = _gf_powmod(power, p, f, p)
        h = _gf(power - X, p)
        if not h or _gf_gcd(f, h, p).degree > 0:
            return False
    return True


def conj53_witness(
    n: int, p_candidates: Optional[Sequence[int]] = None
) -> CheckResult:
    """Hunt for a prime modulus certifying that both coefficient polynomials
    of index n are irreducible over the rationals.

    Both polynomials have constant term +-1, hence are primitive, so
    degree-preserving irreducibility mod any single prime suffices.
    Exhausting the candidate list is INCONCLUSIVE, never FAIL: reducibility
    mod every tested prime proves nothing either way.
    """
    if n < 1:
        raise ValueError("conj53_witness: need n >= 1")
    if p_candidates is None:
        p_candidates = primes_up_to(200)
    notes = []
    for label, poly in (("R", R_poly(n)), ("S", S_poly(n))):
        if poly.degree <= 1:
            notes.append("%s: degree %d" % (label, poly.degree))
            continue
        hit = None
        for p in p_candidates:
            if p < 2 or not is_prime(p) or poly.leading() % p == 0:
                continue
            if _irreducible_mod(poly.coeffs, p):
                hit = p
                break
        if hit is None:
            return CheckResult(
                INCONCLUSIVE,
                witness={"polynomial": label},
                note="no candidate prime certified irreducibility",
            )
        notes.append("%s: irreducible mod %d" % (label, hit))
    return CheckResult(PASS, note="; ".join(notes))
