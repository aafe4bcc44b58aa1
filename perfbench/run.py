"""congrkit benchmark: end-to-end CLI timings and a traced per-layer run.

Run from the root of a checkout (the directory that holds ``src/congrkit``)::

    python3 perfbench/run.py --workload prime_congruences --seed 0 --trace 0
    python3 perfbench/run.py --workload all

One client drives ``python -m congrkit`` as one subprocess per invocation,
in a closed loop: each invocation starts after the previous one has exited.

``--trace 0`` times the workload's invocations, repeated while the next
repetition fits in ``--seconds``, and sums each invocation's median.
``--trace 1`` runs each invocation once untraced, then once more under
perfbench/tracer.py at ``--jobs 1``, and reports per-layer metrics.  Every
report passes through the correctness gate in perfbench/gate.py.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import heapq
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Optional

import gate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0  # a run must end well inside the 180 s a run is allowed
# Fresh-interpreter set-up probes per run, spread over the invocations (at
# least 3 each): one probe varies by +-20% with the host, so a workload of a
# single invocation needs as many probes as one of five or six.
SETUP_PROBES = 15

# Families whose traced time is reported on its own.
FAMILY_METRICS = (
    "thm11",
    "thm12",
    "thm14ii",
    "xval15",
    "conj52",
    "thm15i",
    "thm15ii",
    "thm31q",
    "thm32q",
)

# A traced run of these workloads must see this counter above zero, or the
# wrappers missed the layer the workload exists to exercise.
SELF_CHECKS = {
    "prime_congruences": "sequences.calls",
    "q_congruences": "polynomials.mul_calls",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "instances_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_share": "ratio",
}


@dataclass
class Outcome:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    maxrss_kb: int
    returncode: Optional[int]  # None when it was killed at the deadline
    stdout: bytes
    stderr: bytes


class Runner:
    """Starts children one at a time inside a run-wide deadline."""

    def __init__(self, root: str, tmp: str, started: float) -> None:
        self.tmp = tmp
        self.deadline = started + DEADLINE_S
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=src)

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, argv: list[str]) -> Outcome:
        """Run argv to completion; times and rusage come from os.wait4.

        The client blocks while the child runs, so it takes no CPU from it;
        a timer kills the child at the run deadline.
        """
        out_path = os.path.join(self.tmp, "stdout")
        err_path = os.path.join(self.tmp, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env)
            lock = threading.Lock()
            state = {"exited": False, "killed": False}

            def kill() -> None:
                with lock:
                    if not state["exited"]:
                        # not proc.kill(): its poll() could reap the child
                        os.kill(proc.pid, signal.SIGKILL)
                        state["killed"] = True

            timer = threading.Timer(max(0.0, self.remaining()), kill)
            timer.start()
            try:
                # wait without reaping, so the timer never signals a reused pid
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - start
            except BaseException:  # interrupted: the child must not outlive us
                kill()
                raise
            finally:
                with lock:
                    state["exited"] = True
                timer.cancel()
                timer.join()
                _, status, usage = os.wait4(proc.pid, 0)
            killed = state["killed"]
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return Outcome(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_kb=usage.ru_maxrss,
            returncode=None if killed else proc.returncode,
            stdout=stdout,
            stderr=stderr,
        )

    def congrkit(self, argv: list[str]) -> Outcome:
        return self.run([sys.executable, "-m", "congrkit", *argv])


# -- machine and input record ----------------------------------------------------


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _commit(root: str) -> str:
    # a checkout without .git must not pick up an enclosing repository
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.decode().strip() if done.returncode == 0 else "unknown"


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "congrkit", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def machine_record(root: str) -> dict:
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
    }


# -- one workload ----------------------------------------------------------------


class WorkloadRun:
    """Runs one workload for one seed and keeps the gate's tally."""

    def __init__(self, name: str, seed: int, runner: Runner, log) -> None:
        from congrkit import registry

        self.name = name
        self.seed = seed
        self.runner = runner
        self.log = log
        self.registry = registry
        self.invocations = workloads.build(name, seed, _nproc())
        names = registry.family_names()
        self.pairs = [
            registry.all_jobs(inv.families(names), inv.bounds)
            for inv in self.invocations
        ]
        self.expected = [gate.expected_keys(p) for p in self.pairs]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def argvs(self) -> list[list[str]]:
        return [["congrkit", *inv.argv()] for inv in self.invocations]

    def tally(
        self,
        index: int,
        outcome: Outcome,
        reference: Optional[bytes],
        label: str = "",
    ) -> None:
        """Gate one report of invocation ``index``; count what it lost."""
        expected = self.expected[index]
        self.attempted += len(expected)
        if outcome.returncode is None:
            lost, why = len(expected), "killed at the run deadline"
        else:
            # exit 1 with a readable report is a FAIL: count its bad results
            lost, why = gate.check(outcome.stdout, expected, reference)
            if outcome.returncode != 0:
                stderr = outcome.stderr.decode(errors="replace").strip()[-300:]
                why = "exit %d: %s" % (outcome.returncode, why or stderr)
                lost = lost or len(expected)
        self.failed += lost
        if why:
            argv = " ".join(self.argvs()[index])
            self.problems.append("%s%s: %s" % (argv, label, why))

    def note(self, why: Optional[str]) -> None:
        if why:
            self.problems.append(why)

    # -- set-up --------------------------------------------------------------

    def setup_s(self) -> tuple[float, list[float]]:
        """Mean over invocations of the median fresh-interpreter set-up time."""
        probe = os.path.join(HERE, "probe.py")
        argvs = []
        for inv in self.invocations:
            families = [inv.family] if inv.family else []
            spec = {"families": families, "bounds": inv.bounds}
            argvs.append([sys.executable, probe, json.dumps(spec)])
        self.runner.run(argvs[0])  # warm-up: byte-compiles the package once
        samples: list[list[float]] = [[] for _ in argvs]
        for _ in range(max(3, -(-SETUP_PROBES // len(argvs)))):
            for i, argv in enumerate(argvs):
                outcome = self.runner.run(argv)
                if outcome.returncode != 0:
                    why = outcome.stderr.decode(errors="replace")[-300:]
                    self.note("set-up probe failed: %s" % why)
                samples[i].append(outcome.wall_s)
        per_invocation = [statistics.median(s) for s in samples]
        return statistics.fmean(per_invocation), per_invocation

    # -- untraced ------------------------------------------------------------

    def repetition(self) -> list[Outcome]:
        return [self.runner.congrkit(inv.argv()) for inv in self.invocations]

    def measure(self, seconds: float) -> dict:
        setup, setup_each = self.setup_s()
        reps: list[list[Outcome]] = []
        started = time.perf_counter()
        while True:
            rep_start = time.perf_counter()
            reps.append(self.repetition())
            rep_s = time.perf_counter() - rep_start
            spent = time.perf_counter() - started
            if spent + rep_s > seconds or self.runner.remaining() < 3 * rep_s:
                break
        for r, rep in enumerate(reps):
            for i, outcome in enumerate(rep):
                self.tally(i, outcome, reps[0][i].stdout if r else None)
        rng = self.negative_control(reps[0])
        # without a traced --jobs 1 reference in this mode, a report made by
        # pool workers is spot-checked against single-process results
        for i, (inv, outcome) in enumerate(zip(self.invocations, reps[0])):
            if inv.jobs > 1 and outcome.returncode == 0:
                why = gate.spot_check(
                    outcome.stdout, self.pairs[i], self.registry.run_pair, rng
                )
                if why:
                    self.failed += len(self.expected[i])
                    self.note(why)
        # each invocation's median over the repetitions, then summed: a slow
        # host phase that hits one invocation of one repetition drops out
        per_invocation = list(zip(*reps))
        wall = sum(statistics.median(o.wall_s for o in runs) for runs in per_invocation)
        instances = statistics.median(
            sum(_result_count(o.stdout) for o in rep) for rep in reps
        )
        metrics = {
            "wall_s": wall,
            "instances_per_s": instances / wall,
            "cpu_s": sum(
                statistics.median(o.cpu_s for o in runs) for runs in per_invocation
            ),
            "peak_rss_mb": max(
                statistics.median(o.maxrss_kb for o in runs) for runs in per_invocation
            )
            / 1024.0,
            "setup_s": setup,
            "ok_share": 1.0 - self.failed / max(1, self.attempted),
        }
        self.log("repetitions: %d" % len(reps))
        for rep in reps:
            self.log("  repetition wall_s: %s" % json.dumps([o.wall_s for o in rep]))
        self.log(
            "setup_s per invocation: %s"
            % json.dumps(dict(zip((" ".join(a) for a in self.argvs()), setup_each)))
        )
        return metrics

    def negative_control(self, rep: list[Outcome]) -> random.Random:
        """Check that the gate rejects broken copies of a seeded report.

        Returns the seeded generator for any further sampling.
        """
        rng = random.Random("controls:%s:%d" % (self.name, self.seed))
        index = rng.randrange(len(rep))
        if rep[index].returncode == 0:
            why = gate.negative_control(rep[index].stdout, self.expected[index], rng)
            self.note(why)
        return rng

    # -- traced ----------------------------------------------------------------

    def traced(self) -> dict:
        """Per-layer metrics from a traced --jobs 1 run of every invocation.

        Each traced run follows its untraced twin directly, so the two see
        nearly the same host speed.  The overhead is taken against an
        untraced --jobs 1 run; a workload run at more jobs gets one extra.
        """
        tracer = os.path.join(HERE, "tracer.py")
        trace_path = os.path.join(self.runner.tmp, "trace.json")
        untraced, traces = [], []
        untraced_wall = traced_wall = 0.0
        for i, inv in enumerate(self.invocations):
            outcome = self.runner.congrkit(inv.argv())
            self.tally(i, outcome, None)
            untraced.append(outcome)
            if inv.jobs > 1:
                outcome = self.runner.congrkit(inv.argv(jobs=1))
                self.tally(i, outcome, untraced[i].stdout, " (at --jobs 1)")
            untraced_wall += outcome.wall_s
            outcome = self.runner.run(
                [sys.executable, tracer, trace_path, "--", *inv.argv(jobs=1)]
            )
            self.tally(i, outcome, untraced[i].stdout, " (traced, --jobs 1)")
            traced_wall += outcome.wall_s
            trace = None
            if os.path.exists(trace_path):  # written even when an instance FAILs
                with open(trace_path) as fh:
                    trace = summarize_trace(json.load(fh))
                os.remove(trace_path)
            traces.append(trace)
        self.negative_control(untraced)
        if None in traces:
            return {}
        metrics = layer_metrics(traces, [inv.jobs for inv in self.invocations])
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        family_sum = sum(sum(t["family_s"].values()) for t in traces)
        rest = traced_wall - family_sum
        self.log(
            "tracing overhead: traced wall_s %.4f - untraced wall_s %.4f = %.4f s"
            % (traced_wall, untraced_wall, metrics["trace.overhead_s"])
        )
        self.log(
            "traced wall_s %.4f = per-family %.4f + all_jobs %.4f + emit_report %.4f"
            " + other %.4f (interpreter start, imports, parsing, wrapping); "
            "per-family sum within the overhead of the traced wall: %s"
            % (
                traced_wall,
                family_sum,
                metrics["registry.all_jobs_s"],
                metrics["cli.emit_report_s"],
                rest - metrics["registry.all_jobs_s"] - metrics["cli.emit_report_s"],
                abs(rest) <= max(0.0, metrics["trace.overhead_s"]),
            )
        )
        slowest = max(
            (t["slowest"] for t in traces if t["slowest"]), key=lambda s: s[2]
        )
        self.log(
            "slowest instance: %s %s %.3f ms"
            % (slowest[0], json.dumps(slowest[1]), slowest[2])
        )
        check = SELF_CHECKS.get(self.name)
        if check and not metrics[check] > 0:
            self.note("self-check failed: %s is %s" % (check, metrics[check]))
        return metrics


def _result_count(payload: bytes) -> int:
    try:
        return len(json.loads(payload)["results"])
    except (ValueError, KeyError, TypeError):
        return 0


# -- per-layer metrics ------------------------------------------------------------


def summarize_trace(raw: dict) -> dict:
    """Reduce one tracer.py output to per-family times and instance durations."""
    family_s: dict[str, float] = {}
    slowest = None
    for family, params, seconds in raw["instances"]:
        family_s[family] = family_s.get(family, 0.0) + seconds
        if slowest is None or seconds * 1000.0 > slowest[2]:
            slowest = [family, params, seconds * 1000.0]
    raw["family_s"] = family_s
    raw["slowest"] = slowest
    raw["durations"] = [seconds for _, _, seconds in raw["instances"]]
    return raw


def pool_makespan(durations: list[float], jobs: int) -> float:
    """Replay ``multiprocessing.Pool.map``: chunks in order to the first free worker."""
    if jobs <= 1 or len(durations) <= 1:
        return sum(durations)
    chunksize = -(-len(durations) // (4 * jobs))
    free = [0.0] * jobs
    for start in range(0, len(durations), chunksize):
        heapq.heappush(
            free, heapq.heappop(free) + sum(durations[start : start + chunksize])
        )
    return max(free)


def layer_metrics(traces: list[dict], jobs: list[int]) -> dict:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    family_s: dict[str, float] = {}
    for t in traces:
        for key, value in t["calls"].items():
            calls[key] = calls.get(key, 0) + value
        for key, value in t["self_s"].items():
            self_s[key] = self_s.get(key, 0.0) + value
        for key, value in t["inclusive_s"].items():
            inclusive[key] = inclusive.get(key, 0.0) + value
        for key, value in t["family_s"].items():
            family_s[key] = family_s.get(key, 0.0) + value

    def layer_calls(layer: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    metrics = {"%s.self_s" % layer: value for layer, value in self_s.items()}
    metrics.update(
        {
            "exactnum.calls": layer_calls("exactnum"),
            "sequences.calls": layer_calls("sequences"),
            "polynomials.mul_calls": calls["polynomials.Poly.__mul__"],
            "polynomials.mul_coeffs_out": sum(t["mul_coeffs_out"] for t in traces),
            "polynomials.divmod_calls": calls["polynomials.Poly.__divmod__"],
            "qalgebra.fold_calls": calls["qalgebra.reduce_mod_qpow_minus_1"],
            "kernels.value_calls": calls["kernels.KernelSpec.value"],
            "registry.all_jobs_s": inclusive.get("registry.all_jobs", 0.0),
            "registry.run_pair_calls": calls["registry.run_pair"],
            "registry.slowest_instance_ms": max(
                (t["slowest"][2] for t in traces if t["slowest"]), default=0.0
            ),
            "cli.emit_report_s": inclusive.get("cli.emit_report", 0.0),
            "cli.report_bytes": sum(t["report_bytes"] for t in traces),
        }
    )
    for family in FAMILY_METRICS:
        metrics["registry.family.%s_s" % family] = family_s.get(family, 0.0)
    busy = [sum(t["durations"]) for t in traces]
    makespan = sum(pool_makespan(t["durations"], j) for t, j in zip(traces, jobs))
    ideal = sum(b / j for b, j in zip(busy, jobs))
    metrics["cli.pool_imbalance"] = makespan / ideal if ideal else 1.0
    return metrics


# -- entry point --------------------------------------------------------------------


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name == "cli.report_bytes":
        return "bytes"
    if name == "cli.pool_imbalance":
        return "ratio"
    return "count"


def run_workload(name: str, args: argparse.Namespace, root: str, log) -> dict:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        runner = Runner(root, tmp, started)
        work = WorkloadRun(name, args.seed, runner, log)
        record = dict(
            machine_record(root),
            workload=name,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            invocations=work.argvs(),
            loop="closed, one client: each invocation starts after the previous exits",
        )
        log("record: %s" % json.dumps(record))
        if args.trace:
            values = work.traced()
            units = {key: per_layer_units(key) for key in values}
        else:
            values = work.measure(args.seconds)
            units = END_TO_END_UNITS
    for problem in work.problems:
        log("GATE: %s" % problem)
    for key, value in values.items():
        log("%s: %r %s" % (key, value, units[key]))
    if not args.trace:
        log("failed_share: %r (1 - ok_share)" % (1.0 - values["ok_share"]))
        log(
            "peak_rss_mb is wait4 ru_maxrss: the largest single process, "
            "not the sum over the process tree"
        )
    log("elapsed: %.1f s" % (time.perf_counter() - started))
    return {
        "correct": not work.problems and work.failed == 0 and bool(values),
        "attempted": max(1, work.attempted),
        "failed": min(work.failed, max(1, work.attempted)),
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in values.items()
        },
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "congrkit", "cli.py")):
        print(
            "perfbench: run from the repository root; src/congrkit is missing",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2_000_000)

    def log(line: str) -> None:
        print(line, flush=True)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        log("== %s (seed %d, trace %d)" % (name, args.seed, args.trace))
        results[name] = run_workload(name, args, root, log)
        if len(names) > 1:
            log(json.dumps(results[name]))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                "%s.%s" % (name, key): metric
                for name, r in results.items()
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
