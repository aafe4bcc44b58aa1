"""Per-layer tracing of one congrkit invocation, from outside the package.

Run as a script, it imports congrkit, wraps the public functions and
methods of every layer module, calls ``congrkit.cli.main`` in-process with
the given arguments and writes the trace as JSON::

    python perfbench/tracer.py TRACE.json -- verify thm13 --jobs 1 --format json

A layer is a package module.  Each wrapped call is a span; a layer's self
time is the time of its spans minus the time of the wrapped calls they make.
Modules bind each other's functions by name (``from .sequences import
R_values``), so every module namespace that holds a public function gets the
wrapper.  References kept in containers (dicts, closures) are not rebound.
Hot, tiny functions are counted but not timed; their time stays with the
caller's layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "cli",
    "registry",
    "verify",
    "sequences",
    "exactnum",
    "polynomials",
    "qalgebra",
    "kernels",
)

# Arithmetic and call dunders count as public methods.
_DUNDERS = {
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__pow__",
    "__divmod__",
    "__floordiv__",
    "__mod__",
    "__call__",
}

# Called so often, for so little work each, that timing them would swamp the
# trace.
COUNT_ONLY = {
    "exactnum.binomial",
    "polynomials.Poly.__add__",
    "polynomials.Poly.is_zero",
    "polynomials.Poly.is_integral",
    "polynomials.Poly.leading",
}

# Calls whose inclusive time, arguments or results feed a metric.
_OBSERVED = {
    "registry.run_pair",
    "registry.all_jobs",
    "cli.emit_report",
    "polynomials.Poly.__mul__",
}


def _targets(package: str):
    """(layer, key, function, binder) for every public function and method.

    ``binder`` turns the wrapper back into what the class holds (classmethod
    or staticmethod), or is None for plain functions.
    """
    for layer in LAYERS:
        module = importlib.import_module("%s.%s" % (package, layer))
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield layer, "%s.%s" % (layer, name), obj, None
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr not in _DUNDERS:
                        continue
                    key = "%s.%s.%s" % (layer, name, attr)
                    if inspect.isfunction(member):
                        yield layer, key, member, None
                    elif isinstance(member, (classmethod, staticmethod)):
                        yield layer, key, member.__func__, type(member)


class Tracer:
    """Spans and counts for one process; install() wraps, uninstall() restores."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: dict[str, int] = {}
        self.inclusive_s: dict[str, float] = {}
        self.mul_coeffs_out = 0
        self.report_bytes = 0
        self.instances: list[tuple[str, dict, float]] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _observe(self, key: str, args: tuple, result, elapsed: float) -> None:
        """Inclusive time and argument/result counts for the _OBSERVED calls."""
        self.inclusive_s[key] = self.inclusive_s.get(key, 0.0) + elapsed
        if key == "registry.run_pair":
            family, params = args[0]
            self.instances.append((family, params, elapsed))
        elif key == "cli.emit_report":
            self.report_bytes += len(result)
        elif key == "polynomials.Poly.__mul__":
            self.mul_coeffs_out += len(result.coeffs)

    def _timed(self, layer: str, key: str, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        observe = self._observe if key in _OBSERVED else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[key] += 1
            if observe is not None:
                observe(key, args, result, elapsed)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str = "congrkit") -> None:
        wrappers: dict[int, object] = {}
        for layer, key, fn, binder in _targets(package):
            if id(fn) in wrappers:  # an alias such as __radd__ = __add__
                continue
            self.calls[key] = 0
            if key in COUNT_ONLY:
                wrapped = self._counted(key, fn)
            else:
                wrapped = self._timed(layer, key, fn)
            wrappers[id(fn)] = binder(wrapped) if binder else wrapped
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == package or module_name.startswith(package + ".")
            ):
                continue
            for name, obj in list(vars(module).items()):
                self._rebind(module, name, obj, wrappers)
                if inspect.isclass(obj) and obj.__module__ == module_name:
                    for attr, member in list(vars(obj).items()):
                        if isinstance(member, (classmethod, staticmethod)):
                            member = member.__func__
                        self._rebind(obj, attr, member, wrappers)

    def _rebind(self, owner, name: str, obj, wrappers: dict) -> None:
        wrapper = wrappers.get(id(obj))
        if wrapper is None:
            return
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def to_obj(self) -> dict:
        return {
            "self_s": self.self_s,
            "calls": self.calls,
            "inclusive_s": self.inclusive_s,
            "mul_coeffs_out": self.mul_coeffs_out,
            "report_bytes": self.report_bytes,
            "instances": [
                [family, params, seconds] for family, params, seconds in self.instances
            ],
        }


def main(argv: list[str]) -> int:
    trace_path, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE.json -- CONGRKIT-ARGS...")
    from congrkit import cli

    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(cli_argv)
    finally:
        tracer.uninstall()
    with open(trace_path, "w") as fh:
        json.dump(tracer.to_obj(), fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
