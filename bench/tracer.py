"""Traced in-process run of the spectral-qpe command line.

Usage: python3 bench/tracer.py TRACE_JSON CLI_ARG...

Imports the package from the current ``PYTHONPATH`` and, from the outside,
wraps every public function, every public method and every class constructor
of each layer module.  Every call into the package goes through a module
attribute (``sv.apply_gate``, ``oracle.eigendecompose``) or a module global,
so the wrappers see cross-module and same-module calls alike.  It then calls
``cli.main(argv)`` in this process.

Each call is one span (function, parent span, start, end) kept in memory.
When the run ends the spans are aggregated per function into ``calls``,
``total_s`` (outermost calls only, so recursion is not counted twice) and
``self_s`` (duration minus the time covered by wrapped children), and written
to TRACE_JSON together with the command's exit code and the names of all
wrapped functions.  The process exits with
that exit code.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("statevector", "qft", "hamiltonian", "phase_estimation", "oracle",
          "problems", "cli")

# Functions whose first argument is kept, so the run can report how many of
# the calls saw a distinct input.
KEEP_FIRST_ARG = frozenset({"oracle.eigendecompose"})


class Tracer:
    """Span recorder; ``wrap`` returns a traced stand-in for a function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [function id, parent span, start, end]
        self.first_args: dict[str, list] = {}
        self._open: list[int] = []

    def wrap(self, name: str, func):
        fid = len(self.names)
        self.names.append(name)
        spans, open_spans, clock = self.spans, self._open, time.perf_counter
        kept = self.first_args.setdefault(name, []) if name in KEEP_FIRST_ARG else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if kept is not None:
                kept.append(args[0])
            span = [fid, open_spans[-1] if open_spans else -1, clock(), 0.0]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                span[3] = clock()
                open_spans.pop()

        return traced

    def aggregate(self) -> dict:
        covered = [0.0] * len(self.spans)
        for fid, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats = {}
        for index, (fid, parent, start, end) in enumerate(self.spans):
            entry = stats.setdefault(
                self.names[fid], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered[index]
            while parent >= 0 and self.spans[parent][0] != fid:
                parent = self.spans[parent][1]
            if parent < 0:
                entry["total_s"] += end - start
        for name, args in self.first_args.items():
            if args:
                digests = {hashlib.blake2b(_as_bytes(a)).digest() for a in args}
                stats[name]["distinct_ratio"] = len(digests) / len(args)
        return stats


def _as_bytes(value) -> bytes:
    return np.ascontiguousarray(np.asarray(value, dtype=np.complex128)).tobytes()


def install(tracer: Tracer) -> None:
    """Replace each layer's public callables by traced wrappers."""
    for layer in LAYERS:
        module = importlib.import_module(f"spectral_qpe.{layer}")
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                setattr(module, attr, tracer.wrap(f"{layer}.{attr}", value))
            elif inspect.isclass(value):
                for method, func in list(vars(value).items()):
                    if not inspect.isfunction(func):
                        continue
                    if method == "__init__":
                        label = f"{layer}.{attr}"
                    elif method.startswith("_"):
                        continue
                    else:
                        label = f"{layer}.{attr}.{method}"
                    setattr(value, method, tracer.wrap(label, func))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE_JSON CLI_ARG...", file=sys.stderr)
        return 2
    trace_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("spectral_qpe.cli")
    exit_code = cli.main(cli_argv)
    sys.stdout.flush()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": exit_code, "wrapped": tracer.names,
                   "functions": tracer.aggregate()}, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
