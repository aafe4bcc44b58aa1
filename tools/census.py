"""Verdict census: which CheckResult sites a pytest selection reaches, with
which statuses, and which lines of the package it never executes.

Usage, from the root of the repository:

    PYTHONPATH=src python tools/census.py [pytest arguments...]

The selection runs in this process.  A line tracer over the congrkit
package (sys.settrace, and threading.settrace for test threads) records
every executed line; a pytest plugin wraps CheckResult.__init__ and records
each site that builds a result, as "module.py:line function" of the first
frame outside result.py, with the statuses seen there.  Work done in
subprocesses and pool workers is not seen.  pytest's own output goes to
stderr; stdout gets one JSON object with two keys:

* "sites": each site in the package, mapped to its sorted statuses;
* "unexecuted": each module of the package, mapped to the line numbers
  that its compiled code holds and no traced frame executed.

The exit code is pytest's.  Only the standard library and pytest are used.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import sys
import threading
from pathlib import Path

import pytest

_SPEC = importlib.util.find_spec("congrkit")  # locates the package, runs nothing
if _SPEC is None:
    sys.exit("census: congrkit is not importable; run with PYTHONPATH=src")
PACKAGE = Path(_SPEC.origin).parent


def _lines(code) -> set[int]:
    """The lines of code's own instructions.  A function's first line holds
    only its entry instruction, which no line event reports; the enclosing
    code executes that line when it defines the function."""
    lines = {line for _, _, line in code.co_lines() if line}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    return lines


def _code_lines(code) -> set[int]:
    """The lines of code and of every code object nested in it."""
    lines = _lines(code)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


class _LineTracer:
    """Record the executed lines of the package's files.  A code object whose
    lines have all been seen is traced no further."""

    def __init__(self) -> None:
        self.prefix = str(PACKAGE) + "/"
        self.executed: dict[str, set[int]] = {}
        self.pending: dict[object, set[int]] = {}  # code -> lines not yet seen

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        if code not in self.pending:
            self.pending[code] = _lines(code)
        return self._local if self.pending[code] else None

    def _local(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            self.executed.setdefault(code.co_filename, set()).add(frame.f_lineno)
            left = self.pending[code]
            left.discard(frame.f_lineno)
            if not left:
                return None
        return self._local

    def unexecuted(self) -> dict[str, list[int]]:
        out = {}
        for path in sorted(PACKAGE.glob("*.py")):
            code = compile(path.read_text(), str(path), "exec")
            seen = self.executed.get(str(path), set())
            out[path.name] = sorted(_code_lines(code) - seen)
        return out


class _SitePlugin:
    """Wrap CheckResult.__init__ for the session and record its sites."""

    def __init__(self) -> None:
        self.sites: dict[str, set[str]] = {}

    def pytest_configure(self, config) -> None:
        from congrkit import result

        original = result.CheckResult.__init__
        sites = self.sites

        def init(res, status, *args, **kwargs):
            original(res, status, *args, **kwargs)
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_filename == result.__file__:
                frame = frame.f_back
            if frame is None:
                return
            path = Path(frame.f_code.co_filename)
            if path.parent == PACKAGE:
                key = "%s:%d %s" % (path.name, frame.f_lineno, frame.f_code.co_name)
                sites.setdefault(key, set()).add(status)

        result.CheckResult.__init__ = init


def main(argv: list[str]) -> int:
    tracer = _LineTracer()
    plugin = _SitePlugin()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(argv, plugins=[plugin])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report = {
        "sites": {key: sorted(v) for key, v in sorted(plugin.sites.items())},
        "unexecuted": tracer.unexecuted(),
    }
    print(json.dumps(report))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
