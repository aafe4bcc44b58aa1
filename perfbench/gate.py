"""Correctness gate for one invocation's JSON report, and its negative control."""

from __future__ import annotations

import json
import random
from typing import Callable, Optional

OK_STATUSES = ("PASS", "INCONCLUSIVE")


def expected_keys(pairs: list[tuple[str, dict]]) -> list[tuple[str, str]]:
    """(family, params as JSON) for every instance, in registry order.

    Checkers may echo their parameters in another key order than the grid
    makes them, so keys are sorted.
    """
    return [(name, json.dumps(params, sort_keys=True)) for name, params in pairs]


def check(
    payload: bytes,
    expected: list[tuple[str, str]],
    reference: Optional[bytes] = None,
) -> tuple[int, Optional[str]]:
    """(failed instances, why) for one report; why is None when it passes.

    The report must parse, hold exactly the expected (family, params) in
    registry order, have no result outside PASS/INCONCLUSIVE, report zero
    fail and ill_posed in its summary, and, when a reference is given, equal
    it byte for byte.  Results not PASS/INCONCLUSIVE count one each; any
    other defect loses every instance of the report.
    """
    lost = len(expected)
    try:
        report = json.loads(payload)
        results = report["results"]
        summary = report["summary"]
    except (ValueError, KeyError, TypeError) as exc:
        return lost, "unreadable report: %s" % exc
    got = [
        (r.get("family"), json.dumps(r.get("params"), sort_keys=True)) for r in results
    ]
    if got != expected:
        return lost, "instances differ from registry.all_jobs (%d vs %d)" % (
            len(got),
            len(expected),
        )
    bad = [r for r in results if r.get("status") not in OK_STATUSES]
    if bad:
        return len(bad), "%d results not PASS/INCONCLUSIVE, first %s %s" % (
            len(bad),
            bad[0].get("family"),
            json.dumps(bad[0].get("params")),
        )
    if summary.get("fail") != 0 or summary.get("ill_posed") != 0:
        return lost, "summary reports failures: %s" % json.dumps(summary)
    if reference is not None and payload != reference:
        return lost, "report bytes differ from the reference report"
    return 0, None


def spot_check(
    payload: bytes,
    pairs: list[tuple[str, dict]],
    run_pair: Callable,
    rng: random.Random,
    share: float = 0.01,
) -> Optional[str]:
    """Recompute a seeded sample of instances in this process.

    Each must serialize to the same result as the report holds, which checks
    a report made by worker processes against a single-process run.
    """
    results = json.loads(payload)["results"]
    count = max(1, int(len(pairs) * share))
    for i in sorted(rng.sample(range(len(pairs)), count)):
        got = json.loads(json.dumps(run_pair(pairs[i]).to_dict()))
        if got != results[i]:
            return "instance %s %s differs from a single-process run" % (
                pairs[i][0],
                json.dumps(pairs[i][1]),
            )
    return None


def negative_control(
    payload: bytes, expected: list[tuple[str, str]], rng: random.Random
) -> Optional[str]:
    """Feed the gate two broken copies of a passing report.

    One copy has a status flipped to FAIL, the other has one result removed;
    both keep the original summary.  Returns why the control failed, or None
    when the gate rejected both.
    """
    report = json.loads(payload)
    index = rng.randrange(len(report["results"]))
    flipped = json.loads(payload)
    flipped["results"][index]["status"] = "FAIL"
    dropped = json.loads(payload)
    del dropped["results"][index]
    for label, broken in (("flipped status", flipped), ("removed result", dropped)):
        if check(json.dumps(broken, indent=2).encode() + b"\n", expected)[1] is None:
            return "gate accepted a report with a %s" % label
    return None
