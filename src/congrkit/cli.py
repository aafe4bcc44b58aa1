"""Command-line front end.

Subcommands: ``list`` (family catalogue), ``seq`` and ``poly`` (exact value
dumps), ``verify`` (one family or the whole default sweep), ``scan`` (open
questions) and ``qverify`` (q-polynomial families).  Reports serialize to
text, JSON or CSV; output bytes depend only on the requested configuration,
never on the worker count, and the timestamp field stays null unless
``--stamp`` is given.

A check run cuts its job list into chunks, about four per worker, in
registry order.  Whoever runs a chunk, a pool worker or at ``--jobs 1`` the
process itself, serializes its results in the requested format and keeps
only those bytes and the status counts; emit_report then joins the header,
the chunks and the summary.  No result object reaches the parent, which
keeps a ``verify --all --jobs 2`` sweep at about 42 MB peak RSS on a
2-core host with Python 3.11, where building and encoding the whole report
in the parent took it to 82 MB.

Exit codes: 0 when no instance FAILs or is ILL_POSED, 1 otherwise, 2 for
usage errors (a ValueError from the checker of an explicitly pinned instance
included) and for an --out path that cannot be written, 3 when a checker
raises anything else: any exception on a grid instance, or one other than
ValueError on a pinned instance.  A crash names its family and params on
stderr, and writes no report to stdout or --out.

Imports follow what the command runs.  At module level this module imports
only the registry, which declares every family without importing a checker
module; a family's checker module loads on its first check.  csv loads only
for a CSV report, datetime only for --stamp, traceback only on a crash and
multiprocessing only for a pool, whose workers each import the checker
modules of the families they run.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from typing import Callable, Iterable, Optional, Sequence

from . import __version__, registry
from .registry import THM15_VARIANTS
from .result import FAIL, ILL_POSED, CheckResult, summarize

__all__ = ["build_parser", "emit_report", "main"]

_QVERIFY_ALIASES = {"thm31": "thm31q", "thm32": "thm32q", "conj58": "conj58q"}

# The names of sequences.SEQUENCES, which the parser offers without
# importing the sequences module.
_SEQUENCE_NAMES = (
    "R", "S", "schroder", "t", "T", "Tplus", "Tminus", "s", "Splus", "Sminus"
)


# -- serialization ---------------------------------------------------------------


def _compact(value) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _text_bytes(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def _csv_bytes(rows: Iterable[Sequence]) -> bytes:
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


def _params_text(params: dict) -> str:
    return " ".join("%s=%s" % (key, _compact(val)) for key, val in params.items())


def _result_line(r: CheckResult) -> str:
    bits = ["%-11s" % r.status, "%-10s" % r.family, _params_text(r.params)]
    if r.modulus:
        bits.append("(mod %s)" % r.modulus)
    if r.status in (FAIL, ILL_POSED):
        bits.append("lhs=%s rhs=%s" % (r.lhs, r.rhs))
        if r.witness is not None:
            bits.append("witness=%s" % _compact(r.witness))
    if r.note:
        bits.append("-- %s" % r.note)
    return "  ".join(bits).rstrip()


def _csv_row(r: CheckResult) -> tuple:
    witness = _compact(r.witness) if r.witness is not None else ""
    params = _compact(r.params)
    return (r.family, params, r.status, r.lhs, r.rhs, r.modulus, witness, r.note)


def _serialize(results: list[CheckResult], fmt: str) -> bytes:
    """One chunk of a report's results, in the bytes emit_report joins: JSON
    list items indented to their depth in the report, CSV rows or text lines."""
    if fmt == "json":
        items = json.dumps([r.to_dict() for r in results], indent=2)[2:-2]
        return ("  " + items.replace("\n", "\n  ")).encode("utf-8")
    if fmt == "csv":
        return _csv_bytes(map(_csv_row, results))
    return "".join(_result_line(r) + "\n" for r in results).encode("utf-8")


def emit_report(
    config: dict,
    chunks: list[bytes],
    summary: dict[str, int],
    fmt: str,
    timestamp: Optional[str] = None,
) -> bytes:
    """The whole report: its header, the chunks of _serialize in registry
    order, then the summary."""
    if fmt == "json":
        obj = {
            "version": __version__,
            "timestamp": timestamp,
            "config": config,
            "results": [],
            "summary": summary,
        }
        # a string in config cannot hold the key's unescaped quotes
        head, key, tail = json.dumps(obj, indent=2).partition('"results": []')
        if chunks:
            head, tail = head + '"results": [\n', "\n  ]" + tail
        else:
            head += key
        body = b",\n".join(chunks)
        return b"".join((head.encode("utf-8"), body, (tail + "\n").encode("utf-8")))
    if fmt == "csv":
        header = b"family,params,status,lhs,rhs,modulus,witness,note\n"
        return b"".join((header, *chunks))
    lines = ["congrkit %s" % __version__]
    if timestamp:
        lines.append("timestamp %s" % timestamp)
    lines.append("config %s" % _compact(config))
    tail = "summary pass=%d fail=%d ill_posed=%d inconclusive=%d" % (
        summary["pass"], summary["fail"], summary["ill_posed"], summary["inconclusive"]
    )
    return b"".join((_text_bytes(lines), *chunks, _text_bytes([tail])))


def _write(payload: bytes, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            message = "cannot write %s: %s" % (out, exc.strerror)
            sys.stderr.write("congrkit: error: %s\n" % message)
            raise SystemExit(2) from None
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


# -- shared command plumbing --------------------------------------------------------


def _stamp(args: argparse.Namespace) -> Optional[str]:
    if getattr(args, "stamp", False):
        from datetime import datetime, timezone

        return datetime.now(timezone.utc).isoformat(timespec="seconds")
    return None


def _pins_from(args: argparse.Namespace) -> dict:
    pins = {}
    for key, _ in _PINS:
        value = getattr(args, key, None)
        if value is not None:
            pins[key] = value
    return pins


def _bounds_from(args: argparse.Namespace) -> dict:
    return {"max_n": args.max_n, "max_p": args.max_p, "max_m": args.max_m}


def _config(
    args: argparse.Namespace,
    family: str,
    params: Optional[dict] = None,
    bounds: Optional[dict] = None,
) -> dict:
    # jobs and --out stay out of the echo so the payload does not depend on them
    config = {"command": args.command, "family": family}
    if params is not None:
        config["params"] = params
    if bounds:
        trimmed = {key: val for key, val in bounds.items() if val is not None}
        if trimmed:
            config["bounds"] = trimmed
    config["format"] = args.format
    return config


class _InstanceCrash(Exception):
    """A checker raised.  args: family, params, the message of a ValueError
    (None for any other exception) and the traceback, all picklable, so a
    crash in a pool worker reaches the parent whole."""


def _run_guarded(pair: tuple[str, dict]) -> CheckResult:
    try:
        return registry.run_pair(pair)
    except Exception as exc:
        import traceback

        message = str(exc) if isinstance(exc, ValueError) else None
        raise _InstanceCrash(*pair, message, traceback.format_exc()) from None


def _run_chunk(task: tuple[list[tuple[str, dict]], str]) -> tuple[bytes, dict]:
    """Run a chunk of the job list; return its serialized results and their
    status counts.  The results themselves die here, in the worker."""
    pairs, fmt = task
    results = [_run_guarded(pair) for pair in pairs]
    return _serialize(results, fmt), summarize(results)


def _execute(
    pairs: list[tuple[str, dict]], jobs: int, fmt: str
) -> tuple[list[bytes], dict[str, int]]:
    # the chunks Pool.map would cut by default, so the schedule is the same
    size = -(-len(pairs) // (4 * jobs)) or 1
    tasks = [(pairs[i : i + size], fmt) for i in range(0, len(pairs), size)]
    if jobs > 1 and len(tasks) > 1:
        import multiprocessing

        with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
            done = pool.map(_run_chunk, tasks, chunksize=1)
    else:
        done = [_run_chunk(task) for task in tasks]
    summary = summarize([])
    for _, counts in done:
        for status, count in counts.items():
            summary[status] += count
    return [chunk for chunk, _ in done], summary


def _run_checks(
    args: argparse.Namespace, parser: argparse.ArgumentParser, family: str
) -> int:
    """Run one family's grid, every family's when family is "all", or the one
    instance the pins name; write the report and return the exit code."""
    pins = _pins_from(args)
    if pins:
        if family == "all":
            parser.error("explicit parameters go with a single family")
        fam = registry.get_family(family)
        try:
            params = fam.instance_from_pins(pins)
        except ValueError as exc:
            parser.error(str(exc))
        pairs = [(family, params)]
        config = _config(args, family, params=params)
    else:
        bounds = _bounds_from(args)
        names = registry.family_names() if family == "all" else [family]
        pairs = registry.all_jobs(names, bounds)
        config = _config(args, family, bounds=bounds)
    try:
        chunks, summary = _execute(pairs, args.jobs, args.format)
    except _InstanceCrash as crash:
        name, params, message, trace = crash.args
        if pins and message is not None:
            parser.error(message)
        sys.stderr.write(
            "congrkit: checker crashed on %s %s\n%s" % (name, _compact(params), trace)
        )
        return 3
    _write(emit_report(config, chunks, summary, args.format, _stamp(args)), args.out)
    return 0 if not summary["fail"] and not summary["ill_posed"] else 1


# -- subcommand handlers -------------------------------------------------------------


def _cmd_list(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    lines = []
    for group in registry.GROUPS:
        lines.append(group)
        for name in registry.family_names():
            fam = registry.FAMILIES[name]
            if fam.group == group:
                lines.append("  %-10s -> %s" % (name, fam.anchor))
    _write(_text_bytes(lines), args.out)
    return 0


def _dump(
    args: argparse.Namespace,
    config: dict,
    key: str,
    header: tuple[str, str],
    values: Sequence,
    text: Callable[[], list[str]],
) -> int:
    """Write a seq or poly dump: the values as strings under key in JSON, as
    (index, value) rows under header in CSV, or the lines of text()."""
    config["format"] = args.format
    if args.format == "json":
        payload = _json_bytes(
            {
                "version": __version__,
                "timestamp": _stamp(args),
                "config": config,
                key: [str(v) for v in values],
            }
        )
    elif args.format == "csv":
        payload = _csv_bytes([header, *enumerate(values)])
    else:
        payload = _text_bytes(text())
    _write(payload, args.out)
    return 0


def _cmd_seq(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import sequences

    values = sequences.values_of(args.name, args.max)
    config = {"command": "seq", "name": args.name, "max": args.max}
    return _dump(
        args,
        config,
        "values",
        ("n", "value"),
        values,
        lambda: ["%s(%d) = %d" % (args.name, n, v) for n, v in enumerate(values)],
    )


def _cmd_poly(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import sequences

    if args.name == "Sm":
        if args.m is None:
            parser.error("poly Sm needs --m")
        poly = sequences.S_m_poly(args.m, args.n)
        label = "Sm(n=%d, m=%d)" % (args.n, args.m)
    else:
        if args.m is not None:
            parser.error("--m only applies to the Sm polynomials")
        maker = sequences.R_poly if args.name == "R" else sequences.S_poly
        poly = maker(args.n)
        label = "%s(n=%d)" % (args.name, args.n)
    config = {"command": "poly", "name": args.name, "n": args.n}
    if args.m is not None:
        config["m"] = args.m
    return _dump(
        args,
        config,
        "coeffs",
        ("power", "coefficient"),
        poly.coeffs,
        lambda: ["%s = %s" % (label, poly.render())],
    )


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.all:
        if args.family:
            parser.error("give a family or --all, not both")
        return _run_checks(args, parser, "all")
    if not args.family:
        parser.error("family required (or --all)")
    return _run_checks(args, parser, _QVERIFY_ALIASES.get(args.family, args.family))


def _cmd_scan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.family in ("conj54", "conj55"):
        # one explicit bound narrows the mixed scan to the matching sweep
        if args.max_n is not None and args.max_p is None:
            args.max_p = 0
        elif args.max_p is not None and args.max_n is None:
            args.max_n = 0
    return _run_checks(args, parser, args.family)


# -- parser assembly -----------------------------------------------------------------


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", metavar="PATH", help="write the report to a file")
    p.add_argument(
        "--stamp", action="store_true", help="include a wall-clock timestamp"
    )


def _run_flags(p: argparse.ArgumentParser) -> None:
    _output_flags(p)
    p.add_argument(
        "--jobs", type=_positive, default=1, help="worker processes for the sweep"
    )


# The params the command line may pin, in flag order, each with its type.
_PINS = (
    ("n", _nonneg),
    ("p", _positive),
    ("d", _nonneg),
    ("k", _nonneg),
    ("a", int),
    ("b", int),
    ("m", _positive),
    ("s", _nonneg),
    ("t", _nonneg),
    ("a_prime", _nonneg),
    ("variant", str),
)


def _pin_flags(p: argparse.ArgumentParser) -> None:
    for key, kind in _PINS:
        choices = THM15_VARIANTS if key == "variant" else None
        p.add_argument("--" + key.replace("_", "-"), type=kind, choices=choices)


def _bound_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", dest="max_n", type=_nonneg)
    p.add_argument("--max-p", dest="max_p", type=_nonneg)
    p.add_argument("--max-m", dest="max_m", type=_positive)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congrkit",
        description="Exact checks for two families of binomial-sum numbers: "
        "sequence dumps, congruence verification, q-analogues and "
        "open-question scans.",
    )
    parser.add_argument(
        "--version", action="version", version="congrkit " + __version__
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_list = sub.add_parser("list", help="show every registered family")
    p_list.add_argument("--out", metavar="PATH")
    p_list.set_defaults(handler=_cmd_list)

    p_seq = sub.add_parser("seq", help="dump one of the integer sequences")
    p_seq.add_argument("name", choices=_SEQUENCE_NAMES, metavar="name")
    p_seq.add_argument("--max", type=_nonneg, required=True, help="largest index")
    _output_flags(p_seq)
    p_seq.set_defaults(handler=_cmd_seq)

    p_poly = sub.add_parser("poly", help="dump one polynomial")
    p_poly.add_argument("name", choices=("R", "S", "Sm"))
    p_poly.add_argument("--n", type=_nonneg, required=True)
    p_poly.add_argument("--m", type=_positive)
    _output_flags(p_poly)
    p_poly.set_defaults(handler=_cmd_poly)

    p_verify = sub.add_parser("verify", help="verify one family, or --all")
    p_verify.add_argument(
        "family", nargs="?", choices=registry.family_names(), metavar="family"
    )
    p_verify.add_argument(
        "--all", action="store_true", help="run every registered family"
    )
    _pin_flags(p_verify)
    _bound_flags(p_verify)
    _run_flags(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_scan = sub.add_parser("scan", help="scan one of the open questions")
    p_scan.add_argument(
        "family", choices=registry.SCAN_SELECTORS, metavar="conjecture"
    )
    _bound_flags(p_scan)
    _run_flags(p_scan)
    p_scan.set_defaults(handler=_cmd_scan)

    p_q = sub.add_parser("qverify", help="verify one q-polynomial family")
    q_names = sorted(registry.Q_FAMILIES + tuple(_QVERIFY_ALIASES))
    p_q.add_argument("family", choices=q_names, metavar="family")
    _pin_flags(p_q)
    _bound_flags(p_q)
    _run_flags(p_q)
    p_q.set_defaults(handler=_cmd_verify, all=False)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2_000_000)
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args, parser)


if __name__ == "__main__":
    raise SystemExit(main())
