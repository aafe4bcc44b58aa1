"""Uniform check outcome record shared by every verifier family.

Statuses:

* PASS         - the claim holds exactly on the checked instance.
* FAIL         - the claim is violated; ``witness`` localizes the breakage.
* ILL_POSED    - the instance cannot be evaluated (for congruence families,
                 a denominator is not invertible modulo the prime power);
                 never silently skipped.
* INCONCLUSIVE - a witness search exhausted its candidate budget without a
                 verdict either way (only one-sided searches use this).

A checker states its claim and gets its result from ``verdict`` (or
``equal`` for an exact equality), the one place a claim becomes PASS or
FAIL; ``show`` is the one renderer of compared values.  The claim shapes
that several checker modules share build on them: ``_chain`` (members in
one residue class mod p^e), ``_divisibility`` (modulus | value, per claim)
and ``_first_failure`` (the first result that is not PASS).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable, Optional, Sequence

from .exactnum import DenominatorNotInvertible, Rational, residue_of_rational

__all__ = [
    "CheckResult",
    "PASS",
    "FAIL",
    "ILL_POSED",
    "INCONCLUSIVE",
    "clip",
    "equal",
    "show",
    "summarize",
    "verdict",
]

PASS = "PASS"
FAIL = "FAIL"
ILL_POSED = "ILL_POSED"
INCONCLUSIVE = "INCONCLUSIVE"

_STATUSES = (PASS, FAIL, ILL_POSED, INCONCLUSIVE)


class CheckResult:
    """One verified instance: outcome, compared values, modulus, witness.

    A checker returns the verdict fields alone; ``registry.run_instance``
    stamps ``family`` and ``params`` (the instance's JSON-form dict).
    ``__slots__`` lists the fields in constructor order."""

    __slots__ = (
        "status", "lhs", "rhs", "modulus", "witness", "note", "family", "params"
    )

    def __init__(
        self,
        status: str,
        lhs: str = "",
        rhs: str = "",
        modulus: str = "",
        witness: Optional[dict[str, Any]] = None,
        note: str = "",
        family: str = "",
        params: Optional[dict[str, Any]] = None,
    ) -> None:
        if status not in _STATUSES:
            raise ValueError("unknown status %r" % (status,))
        self.status = status
        self.lhs = lhs
        self.rhs = rhs
        self.modulus = modulus
        self.witness = witness
        self.note = note
        self.family = family
        self.params = {} if params is None else params

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # mutable: family and params are stamped after the check

    def __repr__(self) -> str:
        return "CheckResult(%s)" % ", ".join(
            "%s=%r" % pair for pair in zip(self.__slots__, self._values())
        )

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "family": self.family,
            "params": self.params,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "modulus": self.modulus,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


def summarize(results: list[CheckResult]) -> dict[str, int]:
    counts = {"pass": 0, "fail": 0, "ill_posed": 0, "inconclusive": 0}
    for r in results:
        # the four statuses, lower-cased, are exactly its keys
        counts[r.status.lower()] += 1
    return counts


def clip(value: Any) -> str:
    """Deterministic bounded rendering for potentially huge exact values.

    Integers beyond roughly 4000 digits are summarized from the bit length
    alone so the interpreter's int-to-str guard is never tripped.
    """
    if isinstance(value, int) and value.bit_length() > 13000:
        digits = value.bit_length() * 30103 // 100000 + 1
        return "%sbig integer, ~%d digits" % ("-" if value < 0 else "", digits)
    s = str(value)
    if len(s) <= 80:
        return s
    return "%s...(%d digits)" % (s[:12], len(s))


def show(value: Any) -> str:
    """The report form of a value: an int clipped, a Fraction as num/den with
    each part clipped, anything with render() rendered and then clipped."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return clip(value.numerator)
        return "%s/%s" % (clip(value.numerator), clip(value.denominator))
    if hasattr(value, "render"):
        return clip(value.render())
    return clip(value)


def verdict(
    ok: bool,
    lhs: str = "",
    rhs: str = "",
    modulus: str = "",
    witness: Optional[dict[str, Any]] = None,
    note: str = "",
) -> CheckResult:
    """PASS when the claim holds, else FAIL; a PASS never carries a witness."""
    if ok:
        return CheckResult(PASS, lhs, rhs, modulus, None, note)
    return CheckResult(FAIL, lhs, rhs, modulus, witness, note)


def equal(lhs: Any, rhs: Any, witness: Optional[dict[str, Any]] = None) -> CheckResult:
    """The claim lhs == rhs, both sides shown."""
    return verdict(lhs == rhs, show(lhs), show(rhs), witness=witness)


def _chain(
    members: Sequence[tuple[str, Rational]],
    p: int,
    e: int,
    claim: str = "",
    note: str = "",
) -> CheckResult:
    """All member values must land in one residue class mod p**e."""
    modulus = str(p) if e == 1 else "%d^%d" % (p, e)
    reduced = []
    for label, value in members:
        try:
            reduced.append((label, residue_of_rational(value, p, e).value))
        except DenominatorNotInvertible as exc:
            witness = {"term": label}
            if claim:
                witness["claim"] = claim
            return CheckResult(
                ILL_POSED, modulus=modulus, witness=witness, note=str(exc)
            )
    first_label, first = reduced[0]
    label, value = next((m for m in reduced if m[1] != first), reduced[0])
    witness = {"left": first_label, "right": label}
    if claim:
        witness["claim"] = claim
    return verdict(value == first, show(first), show(value), modulus, witness, note)


def _divisibility(claims: Sequence[tuple[str, int, int]]) -> CheckResult:
    """Each claim (label, value, modulus) requires modulus | value."""
    label, value, modulus = next((c for c in claims if c[1] % c[2]), claims[-1])
    residue = value % modulus
    witness = {"claim": label, "residue": residue}
    lhs = show(value) if residue else "0"
    return verdict(not residue, lhs, "0", str(modulus), witness)


def _first_failure(results: Iterable[CheckResult]) -> CheckResult:
    """The first result that is not PASS, else the last one.  A lazy iterable
    builds no result after the first failure."""
    for res in results:
        if not res.ok:
            return res
    return res
