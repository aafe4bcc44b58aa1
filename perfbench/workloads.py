"""The benchmark's workloads: fixed lists of ``congrkit`` invocations.

Each invocation is one CLI run.  Its range bound comes from a narrow band
around a nominal value, picked by the seed, so a claimed gain can be
re-checked on instances the change was not written against.  Seed 0 always
uses the nominal bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

_FLAGS = {"max_p": "--max-p", "max_n": "--max-n", "max_m": "--max-m"}


@dataclass(frozen=True)
class Invocation:
    """One ``congrkit`` run and the registry query that predicts its report."""

    command: str  # verify, scan or qverify
    family: Optional[str]  # None means ``verify --all``
    bounds: dict  # registry bounds: max_n / max_p / max_m, None when unset
    jobs: int

    def argv(self, jobs: Optional[int] = None) -> list[str]:
        out = [self.command]
        out.append("--all" if self.family is None else self.family)
        for key, value in self.bounds.items():
            if value is not None:
                out += [_FLAGS[key], str(value)]
        out += ["--jobs", str(self.jobs if jobs is None else jobs), "--format", "json"]
        return out

    def families(self, all_names: list[str]) -> list[str]:
        return all_names if self.family is None else [self.family]


# (command, family, bound key, nominal bound, half-width of the seed band).
# A bound of None leaves the family's grid alone (qlucas has a fixed grid).
# Band widths are chosen so that the seed moves the instance set but changes
# the work by a few percent at most.  thm31q, thm32q and conj58q keep their
# nominal bounds: their top rows carry about a tenth of their time, and the
# peak RSS of the workload is thm31q's, which grows with max_n.
_SPECS = {
    "prime_congruences": [
        ("verify", "thm11", "max_p", 1999, 20),
        ("verify", "thm12", "max_p", 600, 6),
        ("verify", "thm13", "max_p", 997, 10),
        ("verify", "thm14ii", "max_p", 499, 5),
        ("scan", "conj51", "max_p", 1000, 10),
    ],
    "q_congruences": [
        ("qverify", "qlucas", None, None, 0),
        ("qverify", "lemma32", "max_n", 30, 2),
        ("qverify", "thm31q", "max_n", 30, 0),
        ("qverify", "thm32q", "max_n", 20, 0),
        ("qverify", "conj57", "max_n", 25, 1),
        ("qverify", "conj58q", "max_n", 20, 0),
    ],
    "sweep_parallel": [
        ("verify", None, "max_p", 500, 5),
    ],
}

NAMES = tuple(_SPECS)


def build(name: str, seed: int, nproc: int) -> list[Invocation]:
    """The invocations of one workload for one seed."""
    rng = random.Random("%s:%d" % (name, seed))
    out = []
    for command, family, key, nominal, width in _SPECS[name]:
        bounds = dict.fromkeys(_FLAGS)
        if key is not None:
            offset = rng.randint(-width, width) if seed else 0
            bounds[key] = nominal + offset
        jobs = nproc if family is None else 1
        out.append(Invocation(command, family, bounds, jobs))
    return out
