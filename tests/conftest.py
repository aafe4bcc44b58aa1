"""Shared test setup.

Some exact values in this suite have tens of thousands of digits; lift the
interpreter's int-to-str guard once so assertion reprs never trip it.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import congrkit
from congrkit.exactnum import clear_memos

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(2_000_000)


def _child(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter with args in a subprocess that imports the same
    congrkit as the tests: the package's parent directory goes first on its
    PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(congrkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, timeout=600, env=env
    )


@pytest.fixture(scope="session")
def cli():
    """Run the command line tool in a subprocess and return the completed run."""
    return lambda *args: _child("-m", "congrkit", *args)


@pytest.fixture(scope="session")
def python():
    """Run Python source in a fresh interpreter; return its stdout, decoded,
    and fail on a nonzero exit."""

    def run(source: str) -> str:
        done = _child("-c", source)
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout.decode()

    return run


@pytest.fixture
def race():
    """Call fn from four threads at a 1 us switch interval; return the results.

    A thread that raises leaves None in its slot.
    """

    def run(fn):
        results = [None] * 4

        def work(i: int) -> None:
            results[i] = fn()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return results

    return run


@pytest.fixture
def raise_row(monkeypatch):
    """Serve module.<seam>(top, ...) as copies with one entry raised by one
    on the row of a single top; every other row is served unchanged."""

    def serve(module, seam: str, top: int, index: int = 0) -> None:
        original = getattr(module, seam)

        def row(n, *rest):
            out = list(original(n, *rest))
            if n == top:
                out[index] += 1
            return out

        monkeypatch.setattr(module, seam, row)

    return serve


@pytest.fixture
def cold_memos():
    """Reset every registered memo before and after the test, and on each call
    of the value: a falsified source reads cold tables and leaves none behind."""
    clear_memos()
    yield clear_memos
    clear_memos()
