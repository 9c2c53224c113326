"""Batch command-line front end.

Subcommands
-----------
solve          run the estimation loop and report the dominant peak
spectrum       report every peak at or above the detection threshold
trotter-bench  operator-error / wall-time sweep over slice counts
resources      qubit-budget estimate for an n-particle run
oracle-check   exact distribution, route and collapse-fidelity audit (small systems)

Configuration is a JSON object; unknown keys are rejected so a typo cannot
silently fall back to a default.  Command-line flags override config values.
A run's outputs are all written to temporary files first, then renamed into
place, and a failed rename removes the outputs already renamed, so a nonzero
exit never leaves a partial artifact behind.

Exit codes: 0 success; 2 config error (the message names the offending key);
3 runtime contract violation (e.g. norm drift); 4 failed oracle audit;
5 an output file could not be written (the message names its path).
:func:`main` returns the code and stays a plain function that can be called
in-process; the process entry, ``spectral_qpe.__main__.console_entry``,
ends a run that returned a code without interpreter teardown, and exits 1
when standard output has no reader or an exception escapes ``main``.

The ``SPECTRAL_QPE_LOG`` environment variable selects the log level
(``error``, ``warn``, ``info``, ``debug``; default ``warn``).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
import tempfile
import time as _time
from collections.abc import Iterable, Iterator

import numpy as np

from . import hamiltonian as ham
from . import phase_estimation as pe
from . import problems
from .errors import AuditFailure, ConfigFieldError, ContractViolation

log = logging.getLogger("spectral_qpe.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_AUDIT = 4
EXIT_OUTPUT = 5

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class ConfigError(Exception):
    """Bad input only the command line sees: the config file, its JSON or
    ``SPECTRAL_QPE_LOG`` (config keys raise ConfigFieldError)."""


class OutputError(Exception):
    """An output file could not be written; the message names its path."""


# ---------------------------------------------------------------------------
# config ingestion


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # malformed JSON, bad UTF-8, an integer too long to parse
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _parse_slices_flag(text: str):
    """The ``--slices`` flag string as an integer where it is one; any other
    string is left to ``problems.parse_slices``, which takes only "exact"."""
    try:
        return int(text)
    except ValueError:
        return text


def _parse_out(cfg: dict, *suffixes: str) -> list[str]:
    """The output paths, the ``out`` stem plus each suffix, refused before any
    work unless the stem's directory exists and no output path is a directory."""
    out = cfg.get("out", "qpe_run")
    if not isinstance(out, str) or not out or "\0" in out:
        raise ConfigFieldError("out", "expected a non-empty path stem")
    directory = os.path.dirname(out) or os.curdir
    if not os.path.isdir(directory):
        raise ConfigFieldError("out", f"directory {directory!r} does not exist")
    paths = [out + suffix for suffix in suffixes]
    for path in paths:
        if os.path.isdir(path):
            raise ConfigFieldError("out", f"output path {path!r} is a directory")
    return paths


# ---------------------------------------------------------------------------
# output files


def _write_atomic(files: dict[str, Iterable[str]]) -> None:
    """Write each ``path: chunks`` pair, all or none: every file's text, an
    iterable of string chunks written one after another (so a large file
    never exists as one string), goes to a temporary file beside its path
    first, then each is renamed into place.  On a failure the temporary
    files and any path already renamed into are removed; an ``OSError`` is
    raised again as :class:`OutputError` naming the path it failed on."""
    temps = []
    renamed = []
    path = None
    try:
        for path in files:
            directory = os.path.dirname(os.path.abspath(path))
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".spectral_qpe_")
            temps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                for chunk in files[path]:
                    fh.write(chunk)
        for tmp, path in zip(temps, files):
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException as exc:
        for leftover in temps + renamed:
            try:
                os.unlink(leftover)
            except OSError:  # a temporary file that was already renamed
                pass
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path!r}: {exc}") from exc
        raise


def _g(x: float) -> str:
    """Locale-independent real formatting at full round-trip precision."""
    return format(float(x), ".17g")


#: Lines per chunk of the histogram CSV: a file of up to this many lines
#: goes out in one write, and a longer one (a 2^20-bin histogram) never
#: exists as one string.
_CSV_CHUNK_ROWS = 2**12


def _histogram_csv(run: pe.Run, counts: np.ndarray) -> Iterator[str]:
    """The histogram CSV, newline-terminated lines joined into chunks of at
    most ``_CSV_CHUNK_ROWS`` lines."""
    config = run.config
    bins = config.layout.num_bins
    lines = ["bin,phase_radians,energy,probability,counts"]
    for j in range(bins):
        if len(lines) == _CSV_CHUNK_ROWS:
            yield "\n".join(lines) + "\n"
            lines = []
        phase = 2.0 * math.pi * j / bins
        energy = pe.phase_to_energy(phase, config.time)
        lines.append(
            f"{j},{_g(phase)},{_g(energy)},{_g(counts[j] / config.trials)},{int(counts[j])}"
        )
    yield "\n".join(lines) + "\n"


def _peak_record(run: pe.Run, bin_index: int, counts: np.ndarray, collapsed) -> dict:
    config = run.config
    bins = config.layout.num_bins
    phase = 2.0 * math.pi * bin_index / bins
    energy = pe.phase_to_energy(phase, config.time)
    fidelity = None
    decomposition = run.problem.decomposition
    if decomposition is not None:
        bin_width = 2.0 * math.pi / (bins * abs(config.time))
        try:
            fidelity = pe.eigenvector_fidelity(collapsed, decomposition, energy, bin_width)
        except ValueError:
            log.warning("peak at bin %d matches no oracle eigenvalue within %.3g",
                        bin_index, bin_width)
    return {
        "bin": bin_index,
        "phase_radians": phase,
        "energy": energy,
        "probability": float(counts[bin_index] / config.trials),
        "counts": int(counts[bin_index]),
        "eigenvector_fidelity": fidelity,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args: argparse.Namespace, *, spectrum: bool) -> int:
    """``solve`` (the dominant peak) or ``spectrum`` (every peak)."""
    cfg = _merged_config(args)
    csv_path, json_path = _parse_out(cfg, ".histogram.csv", ".result.json")
    run = pe.Run(cfg)
    run.warn_if_aliased()

    result = pe.sample_spectrum(run.guess, run.config, threshold=run.threshold)
    counts = result.counts

    # one record per bin: the dominant bin is also the first peak, if any
    dominant_bin = int(np.argmax(counts))
    peak_bins = [b for b, _ in result.peaks] if spectrum else [dominant_bin]
    records = {b: _peak_record(run, b, counts, result.collapsed_states[b])
               for b in dict.fromkeys([dominant_bin, *peak_bins])}
    dominant = records[dominant_bin]
    peaks = [records[b] for b in peak_bins]
    if spectrum and not peaks:
        log.warning("no peaks at or above threshold %.6g", run.threshold)

    trials = run.config.trials
    record = {
        "command": "spectrum" if spectrum else "solve",
        "config": run.resolved_config(),
        "trials": trials,
        "seed": run.config.seed,
        "dominant": dominant,
        "peaks": peaks,
    }
    _write_atomic({
        csv_path: _histogram_csv(run, counts),
        json_path: [json.dumps(record, sort_keys=True, indent=2) + "\n"],
    })

    for entry in peaks:
        print(
            f"bin {entry['bin']}: energy {entry['energy']:.10g}, "
            f"weight {entry['probability']:.6g} ({entry['counts']}/{trials})"
        )
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_trotter_bench(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    problems.check_keys(cfg, problems.BENCH_KEYS)
    problem = problems.build_problem(cfg)
    t = problems.require(cfg, "time")
    pe.check_time(t, problem.source)
    t = float(t)
    sweep_raw = problems.require(cfg, "slice_sweep")
    if not isinstance(sweep_raw, list) or not sweep_raw:
        raise ConfigFieldError("slice_sweep", "expected a non-empty list of integers")
    sweep = [problems.as_int(r, "slice_sweep", minimum=1) for r in sweep_raw]
    if any(b <= a for a, b in zip(sweep, sweep[1:])):
        raise ConfigFieldError("slice_sweep", "slice counts must be strictly increasing")
    steps = [pe.step_time(t, r, "slice_sweep") for r in sweep]
    (csv_path,) = _parse_out(cfg, ".trotter.csv")
    decomposition = problem.require_decomposition()  # the last refusal; it runs eigh

    exact = ham.unitary_from_decomposition(decomposition, t).matrix
    lines = ["r,operator_error,wall_seconds"]
    for r, dt in zip(sweep, steps):
        started = _time.perf_counter()
        power = problem.source.step_matrix(dt, r)  # checked as a unitary, so finite
        power -= exact
        error = float(np.abs(power).max())
        elapsed = _time.perf_counter() - started
        lines.append(f"{r},{_g(error)},{_g(elapsed)}")
        log.info("r=%d operator error %.3e (%.3fs)", r, error, elapsed)
    _write_atomic({csv_path: ["\n".join(lines) + "\n"]})
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_resources(args: argparse.Namespace) -> int:
    estimate = problems.resource_estimate(
        args.particles,
        args.qubits_per_particle,
        args.index_qubits,
        args.scratch_qubits,
        position_space_qubits_per_particle=args.position_qubits_per_particle,
        interacting_pair_in_position_space=args.pair_in_position_space,
    )
    for name in estimate.__slots__:
        value = getattr(estimate, name)
        if isinstance(value, bool):
            value = "yes" if value else "no"
        print(f"{name:<36} {value}")
    return EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    _parse_out(cfg)
    run = pe.Run(cfg)
    report = pe.audit(run, _corrupt_qft_sign=args.corrupt_qft_sign)
    print(f"distribution check: max per-bin deviation {report.distribution_deviation:.3e}")
    print(f"route check: {run.config.power_method} vs {report.other_route}, "
          f"max per-amplitude deviation {report.route_deviation:.3e}")
    if report.worst_bin >= 0:
        print(f"eigenvector-fidelity audit: worst fidelity {report.worst_fidelity:.12f} "
              f"at bin {report.worst_bin}")
    print("oracle check passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _merged_config(args: argparse.Namespace) -> dict:
    """The config file with each given flag whose ``dest`` is a run key set under it."""
    cfg = _load_config(args.config)
    for key, value in vars(args).items():
        if key in problems.RUN_KEYS and value is not None:
            cfg[key] = _parse_slices_flag(value) if key == "slices" else value
    return cfg


def _add_run_flags(parser: argparse.ArgumentParser, *, sampling: bool) -> None:
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--time", type=float, metavar="F",
                        help="override evolution time")
    parser.add_argument("--out", metavar="PATH", help="override output path stem")
    if sampling:
        parser.add_argument("--index-qubits", type=int, dest="m_index", metavar="N",
                            help="override m_index")
        parser.add_argument("--seed", type=int, metavar="U64",
                            help="override the sampling seed")
        parser.add_argument("--slices", metavar="N|exact",
                            help="override the slice count")
        parser.add_argument("--trials", type=int, metavar="N",
                            help="override the trial count")
        parser.add_argument("--threshold", type=float, metavar="F",
                            help="override the peak detection threshold")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-qpe",
        description="Eigenvalue estimation runs, benchmarks, and audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="estimate the dominant eigenvalue")
    _add_run_flags(solve, sampling=True)
    solve.set_defaults(handler=functools.partial(cmd_sample, spectrum=False))

    spectrum = sub.add_parser("spectrum", help="report all peaks above threshold")
    _add_run_flags(spectrum, sampling=True)
    spectrum.set_defaults(handler=functools.partial(cmd_sample, spectrum=True))

    bench = sub.add_parser("trotter-bench",
                           help="operator-error sweep over slice counts")
    _add_run_flags(bench, sampling=False)
    bench.set_defaults(handler=cmd_trotter_bench)

    resources = sub.add_parser("resources", help="qubit budget for a run")
    resources.add_argument("--particles", type=int, required=True)
    resources.add_argument("--qubits-per-particle", type=int, required=True)
    resources.add_argument("--index-qubits", type=int, required=True)
    resources.add_argument("--scratch-qubits", type=int, default=3)
    resources.add_argument("--position-qubits-per-particle", type=int, default=0)
    resources.add_argument("--pair-in-position-space", action="store_true")
    resources.set_defaults(handler=cmd_resources)

    check = sub.add_parser("oracle-check",
                           help="audit the pipeline against closed-form results")
    _add_run_flags(check, sampling=True)
    check.add_argument("--corrupt-qft-sign", action="store_true",
                       help=argparse.SUPPRESS)
    check.set_defaults(handler=cmd_oracle_check)
    return parser


class _StderrHandler(logging.StreamHandler):
    """A stream handler on whatever ``sys.stderr`` is when a record is
    emitted, so each in-process ``main`` call logs to its own stderr."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def _configure_logging() -> None:
    name = os.environ.get("SPECTRAL_QPE_LOG", "warn")
    level = _LOG_LEVELS.get(name)
    if level is None:
        raise ConfigError(
            'environment variable "SPECTRAL_QPE_LOG" must be one of '
            f"error, warn, info, debug; got {name!r}"
        )
    package_log = logging.getLogger("spectral_qpe")
    if not package_log.handlers:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        package_log.addHandler(handler)
    package_log.setLevel(level)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_logging()
        return args.handler(args)
    except (ConfigFieldError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ContractViolation as exc:
        print(f"runtime contract violation: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except AuditFailure as exc:
        print(f"oracle check failed: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT

