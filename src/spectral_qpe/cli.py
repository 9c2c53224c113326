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
File outputs are written to a temporary file and renamed into place, so a
nonzero exit never leaves a partial artifact behind.

Exit codes: 0 success; 2 config error (the message names the offending key);
3 runtime contract violation (e.g. norm drift); 4 failed oracle audit.

The ``SPECTRAL_QPE_LOG`` environment variable selects the log level
(``error``, ``warn``, ``info``, ``debug``; default ``warn``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
import os
import sys
import tempfile
import time as _time

import numpy as np

from . import hamiltonian as ham
from . import oracle
from . import phase_estimation as pe
from . import problems
from . import statevector as sv
from .errors import ConfigFieldError, ContractViolation

log = logging.getLogger("spectral_qpe.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_AUDIT = 4

DISTRIBUTION_TOL = 1e-10
ROUTE_TOL = 1e-10
COLLAPSE_FIDELITY_TOL = 1e-9
POPULATED_BIN_FLOOR = 1e-9

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

_PROBLEM_KEYS = {
    "tfim": {"sites", "coupling", "field"},
    "grid": {"system_qubits", "mass", "potential"},
    "explicit_terms": {"system_qubits", "terms"},
    "explicit_unitary": {"unitary"},
}
_RUN_KEYS = {
    "problem", "m_index", "time", "slices", "trials", "seed",
    "power_method", "threshold", "guess", "out",
}
_BENCH_KEYS = {"problem", "time", "slice_sweep", "out"}


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


class AuditFailure(Exception):
    """An oracle-check invariant did not hold; the message names it."""


# ---------------------------------------------------------------------------
# config ingestion


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f'missing required key "{key}"')
    return cfg[key]


def _as_int(value, key: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f'key "{key}": expected an integer, got {value!r}')
    if minimum is not None and value < minimum:
        raise ConfigError(f'key "{key}": must be >= {minimum}, got {value}')
    return value


def _as_real(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f'key "{key}": expected a number, got {value!r}')
    if not math.isfinite(value):
        raise ConfigError(f'key "{key}": must be finite, got {value!r}')
    return float(value)


def _as_complex(value, key: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(value[0], value[1])
    raise ConfigError(f'key "{key}": entries must be numbers or [re, im] pairs')


def _as_complex_matrix(value, key: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(f'key "{key}": expected a non-empty matrix (list of rows)')
    rows = []
    width = None
    for row in value:
        if not isinstance(row, list):
            raise ConfigError(f'key "{key}": expected a matrix (list of rows)')
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ConfigError(f'key "{key}": rows have inconsistent lengths')
        rows.append([_as_complex(entry, key) for entry in row])
    return np.asarray(rows, dtype=np.complex128)


def _as_complex_vector(value, key: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(f'key "{key}": expected a non-empty list')
    return np.asarray([_as_complex(v, key) for v in value], dtype=np.complex128)


def _parse_slices(value):
    """Config slice count: a positive integer or the string "exact"."""
    if value == "exact":
        return "exact"
    return _as_int(value, "slices", minimum=1)


def _parse_slices_flag(text: str | None):
    """The ``--slices`` flag string: None (absent), "exact" or an integer."""
    try:
        return text if text in (None, "exact") else int(text)
    except ValueError:
        raise ConfigError(f'key "slices": expected an integer or "exact", got {text!r}') from None


# ---------------------------------------------------------------------------
# problem construction


class _Problem:
    """A validated problem: an evolution source (a local Hamiltonian or a
    grid recipe) or an explicit unitary."""

    def __init__(self, kind, source=None, unitary=None):
        self.kind = kind
        self.source = source
        self.unitary = unitary

    @property
    def norm_bound(self) -> float | None:
        """Cheap upper bound on ||H||, or None for an explicit unitary."""
        return self.source.norm_bound() if self.source is not None else None

    @functools.cached_property
    def decomposition(self) -> oracle.SpectralDecomposition | None:
        """Spectral decomposition of the dense Hamiltonian when the oracle is
        feasible, else None; computed at most once per run."""
        if self.source is None or self.source.num_qubits > oracle.MAX_DENSE_QUBITS:
            return None
        return oracle.eigendecompose(self.source.dense_hamiltonian())


def _problem_kind(cfg: dict) -> str:
    """The "problem" value, refused unless it names a known problem."""
    kind = _require(cfg, "problem")
    if not isinstance(kind, str) or kind not in _PROBLEM_KEYS:
        choices = ", ".join(sorted(_PROBLEM_KEYS))
        raise ConfigError(f'key "problem": must be one of {choices}, got {kind!r}')
    return kind


def _build_problem(cfg: dict) -> _Problem:
    kind = _problem_kind(cfg)
    try:
        if kind == "tfim":
            sites = _as_int(_require(cfg, "sites"), "sites", minimum=2)
            coupling = _as_real(cfg.get("coupling", 1.0), "coupling")
            field = _as_real(cfg.get("field", 1.0), "field")
            hs = problems.build_transverse_ising(sites, coupling, field)
            return _Problem(kind, source=hs)
        if kind == "grid":
            l_system = _as_int(_require(cfg, "system_qubits"), "system_qubits", minimum=1)
            mass = _as_real(cfg.get("mass", 1.0), "mass")
            potential = cfg.get("potential", "zero")
            if isinstance(potential, list):
                potential = [_as_real(v, "potential") for v in potential]
            elif not isinstance(potential, str):
                raise ConfigError(
                    'key "potential": expected a builtin name or a list of samples'
                )
            recipe = problems.build_grid_particle(l_system, potential, mass)
            return _Problem(kind, source=recipe)
        if kind == "explicit_terms":
            l_system = _as_int(_require(cfg, "system_qubits"), "system_qubits", minimum=1)
            raw_terms = _require(cfg, "terms")
            if not isinstance(raw_terms, list) or not raw_terms:
                raise ConfigError('key "terms": expected a non-empty list')
            terms = []
            for i, spec in enumerate(raw_terms):
                label = f"terms[{i}]"
                if not isinstance(spec, dict):
                    raise ConfigError(f'key "{label}": expected an object')
                for sub in spec:
                    if sub not in ("support", "matrix"):
                        raise ConfigError(f'key "{label}": unknown key "{sub}"')
                support = _require_term_support(spec, label)
                if "matrix" not in spec:
                    raise ConfigError(f'key "{label}": missing required key "matrix"')
                matrix = _as_complex_matrix(spec["matrix"], f"{label}.matrix")
                terms.append(ham.LocalTerm(support, matrix))
            hs = ham.HamiltonianSum(terms, l_system)
            return _Problem(kind, source=hs)
        # explicit_unitary
        matrix = _as_complex_matrix(_require(cfg, "unitary"), "unitary")
        return _Problem(kind, unitary=sv.GateMatrix(matrix))
    except ValueError as exc:
        raise ConfigError(f'problem "{kind}" is invalid: {exc}') from exc


def _parse_time(cfg: dict, problem: _Problem) -> float:
    """The "time" key: finite, nonzero, and with |time| * ||H|| finite, so the
    evolution phases cannot overflow (checked before anything is allocated)."""
    t = _as_real(_require(cfg, "time"), "time")
    if t == 0.0:
        raise ConfigError('key "time": must be nonzero')
    bound = problem.norm_bound
    if bound is not None and not math.isfinite(abs(t) * bound):
        raise ConfigError(
            f'key "time": |time| * ||H|| is not finite ({t!r} times a norm bound '
            f"of {bound:.6g}); reduce the time"
        )
    return t


def _parse_out(cfg: dict) -> str:
    out = cfg.get("out", "qpe_run")
    if not isinstance(out, str) or not out:
        raise ConfigError('key "out": expected a non-empty path stem')
    return out


def _require_term_support(spec: dict, label: str) -> list[int]:
    if "support" not in spec:
        raise ConfigError(f'key "{label}": missing required key "support"')
    support = spec["support"]
    if not isinstance(support, list) or not support:
        raise ConfigError(f'key "{label}.support": expected a non-empty list of qubits')
    return [_as_int(q, f"{label}.support", minimum=0) for q in support]


def _build_guess(cfg: dict, l_system: int) -> tuple[sv.StateVector, object]:
    """Initial system state V_a from the "guess" key; default uniform (+)^l."""
    raw = cfg.get("guess", "plus")
    try:
        if raw == "plus":
            dim = 2**l_system
            return sv.load_amplitudes(l_system, np.full(dim, 1 / math.sqrt(dim))), raw
        if raw == "zero":
            return sv.new_basis_state(l_system, 0), raw
        if isinstance(raw, dict):
            keys = set(raw)
            if keys == {"amplitudes"}:
                amps = _as_complex_vector(raw["amplitudes"], "guess.amplitudes")
                return sv.load_amplitudes(l_system, amps), raw
            if keys == {"product"}:
                factors = raw["product"]
                if not isinstance(factors, list):
                    raise ConfigError('key "guess.product": expected a list of pairs')
                pairs = [_as_complex_vector(f, "guess.product") for f in factors]
                return problems.product_state_guess(l_system, pairs), raw
            raise ConfigError(
                'key "guess": object form must have exactly one of '
                '"amplitudes" or "product"'
            )
        raise ConfigError(
            f'key "guess": expected "plus", "zero", or an object, got {raw!r}'
        )
    except ValueError as exc:
        raise ConfigError(f'key "guess": {exc}') from exc


# ---------------------------------------------------------------------------
# run assembly (solve / spectrum / oracle-check share this)


class _Run:
    """Everything a sampling command needs, validated and materialized.

    ``pe_config`` is the one validator of ``m_index``, ``trials``, ``seed``
    and ``power_method``.  An exact-evolution run is validated with its
    source first, so every refusal precedes the eigendecomposition that
    builds its unitary.
    """

    def __init__(self, cfg: dict, *, need_exact: bool = False):
        self.problem = _build_problem(cfg)
        self.slices = _parse_slices(cfg["slices"]) if "slices" in cfg else "exact"
        if self.problem.unitary is not None and "slices" in cfg:
            raise ConfigError('key "slices": not meaningful for an explicit unitary')
        if need_exact:
            # only explicit_terms can exceed the limit: tfim and grid builders cap lower
            source = self.problem.source
            if source is not None and source.num_qubits > oracle.MAX_DENSE_QUBITS:
                raise ConfigError(
                    'key "system_qubits": the oracle audit diagonalizes the dense '
                    f"Hamiltonian, limited to {oracle.MAX_DENSE_QUBITS} qubits; "
                    f"got {source.num_qubits}"
                )
            if self.slices != "exact":
                log.info("oracle audit always runs exact evolution; ignoring slices=%r",
                         self.slices)
                self.slices = "exact"
        self.pe_config = self._make_pe_config(cfg)
        if "threshold" in cfg:
            self.threshold = _as_real(cfg["threshold"], "threshold")
            if self.threshold <= 0:
                raise ConfigError(f'key "threshold": must be > 0, got {self.threshold}')
        else:
            self.threshold = pe.default_peak_threshold(self.pe_config.trials)
        self.out = _parse_out(cfg)
        self.guess, self.guess_json = _build_guess(cfg, self.pe_config.layout.l_system)
        if self.slices == "exact" and self.problem.source is not None:
            decomposition = self.problem.decomposition
            if decomposition is None:
                raise ConfigError(
                    'key "slices": "exact" needs a system of at most '
                    f"{oracle.MAX_DENSE_QUBITS} qubits; set an explicit slice count"
                )
            unitary = ham.unitary_from_decomposition(decomposition, self.pe_config.time)
            self.pe_config = dataclasses.replace(self.pe_config, source=None, unitary=unitary)

    def _make_pe_config(self, cfg: dict) -> pe.PhaseEstimationConfig:
        problem = self.problem
        if problem.unitary is not None:
            evolution = dict(unitary=problem.unitary)
        else:
            slices = 1 if self.slices == "exact" else self.slices
            evolution = dict(source=problem.source, slices=slices)
        try:
            return pe.PhaseEstimationConfig(
                m_index=_as_int(_require(cfg, "m_index"), "m_index"),
                time=_parse_time(cfg, problem),
                trials=_as_int(cfg.get("trials", 1), "trials"),
                seed=_as_int(cfg.get("seed", 0), "seed"),
                power_method=cfg.get("power_method", "block"),
                **evolution,
            )
        except ConfigFieldError as exc:
            raise ConfigError(f'key "{exc.field}": {exc}') from exc

    def resolved_config(self, cfg: dict) -> dict:
        """Canonical post-override config for the result record.

        Execution knobs that cannot change result content (output path,
        thread count) are deliberately left out so reruns stay
        byte-identical.
        """
        config = self.pe_config
        resolved = {
            "problem": self.problem.kind,
            "m_index": config.m_index,
            "time": config.time,
            "slices": self.slices,
            "trials": config.trials,
            "seed": config.seed,
            "power_method": config.power_method,
            "threshold": self.threshold,
            "guess": self.guess_json,
        }
        for key in sorted(_PROBLEM_KEYS[self.problem.kind]):
            if key in cfg:
                resolved[key] = cfg[key]
        return resolved

    def warn_if_aliased(self) -> None:
        decomposition = self.problem.decomposition
        if decomposition is None:
            return
        window = math.pi / abs(self.pe_config.time)
        extreme = float(np.abs(decomposition.eigenvalues).max())
        if extreme > window:
            log.warning(
                "spectral radius %.6g exceeds the unaliased window (-%.6g, %.6g]; "
                "reported energies may be aliased — reduce time below %.6g",
                extreme, window, window, math.pi / extreme,
            )


# ---------------------------------------------------------------------------
# output files


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".spectral_qpe_")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _g(x: float) -> str:
    """Locale-independent real formatting at full round-trip precision."""
    return format(float(x), ".17g")


def _histogram_csv(run: _Run, counts: np.ndarray) -> str:
    config = run.pe_config
    bins = config.layout.num_bins
    lines = ["bin,phase_radians,energy,probability,counts"]
    for j in range(bins):
        phase = 2.0 * math.pi * j / bins
        energy = pe.phase_to_energy(phase, config.time)
        lines.append(
            f"{j},{_g(phase)},{_g(energy)},{_g(counts[j] / config.trials)},{int(counts[j])}"
        )
    return "\n".join(lines) + "\n"


def _peak_record(run: _Run, bin_index: int, counts: np.ndarray,
                 collapsed: sv.StateVector) -> dict:
    config = run.pe_config
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


def _cmd_sample(args: argparse.Namespace, *, spectrum: bool) -> int:
    cfg = _merged_config(args, _RUN_KEYS)
    run = _Run(cfg)
    run.warn_if_aliased()

    result = pe.sample_spectrum(run.guess, run.pe_config, threshold=run.threshold)
    counts = result.histogram.counts

    dominant_bin = int(np.argmax(counts))
    dominant = _peak_record(
        run, dominant_bin, counts, result.collapsed_states[dominant_bin]
    )

    if spectrum:
        peaks = [
            _peak_record(run, b, counts, vec)
            for (b, _), vec in zip(result.peaks, result.eigenvectors)
        ]
        if not peaks:
            log.warning("no peaks at or above threshold %.6g", run.threshold)
    else:
        peaks = [dominant]

    trials = run.pe_config.trials
    record = {
        "command": "spectrum" if spectrum else "solve",
        "config": run.resolved_config(cfg),
        "trials": trials,
        "seed": run.pe_config.seed,
        "dominant": dominant,
        "peaks": peaks,
    }
    csv_path = f"{run.out}.histogram.csv"
    json_path = f"{run.out}.result.json"
    _write_atomic(csv_path, _histogram_csv(run, counts))
    _write_atomic(json_path, json.dumps(record, sort_keys=True, indent=2) + "\n")

    for entry in peaks:
        print(
            f"bin {entry['bin']}: energy {entry['energy']:.10g}, "
            f"weight {entry['probability']:.6g} ({entry['counts']}/{trials})"
        )
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    return _cmd_sample(args, spectrum=False)


def cmd_spectrum(args: argparse.Namespace) -> int:
    return _cmd_sample(args, spectrum=True)


def cmd_trotter_bench(args: argparse.Namespace) -> int:
    cfg = _merged_config(args, _BENCH_KEYS)
    problem = _build_problem(cfg)
    if problem.source is None:
        raise ConfigError(
            'key "problem": trotter-bench needs a Hamiltonian-bearing problem'
        )
    t = _parse_time(cfg, problem)
    sweep_raw = _require(cfg, "slice_sweep")
    if not isinstance(sweep_raw, list) or not sweep_raw:
        raise ConfigError('key "slice_sweep": expected a non-empty list of integers')
    sweep = [_as_int(r, "slice_sweep", minimum=1) for r in sweep_raw]
    if any(b <= a for a, b in zip(sweep, sweep[1:])):
        raise ConfigError('key "slice_sweep": slice counts must be strictly increasing')
    out = _parse_out(cfg)
    if problem.decomposition is None:  # the last refusal; otherwise it runs eigh
        raise ConfigError(
            'key "system_qubits": system too large for the exact reference '
            f"(needs <= {oracle.MAX_DENSE_QUBITS} qubits)"
        )

    exact = ham.unitary_from_decomposition(problem.decomposition, t).matrix
    lines = ["r,operator_error,wall_seconds"]
    for r in sweep:
        started = _time.perf_counter()
        step = problem.source.step_matrix(t / r)
        error = float(np.abs(np.linalg.matrix_power(step, r) - exact).max())
        elapsed = _time.perf_counter() - started
        lines.append(f"{r},{_g(error)},{_g(elapsed)}")
        log.info("r=%d operator error %.3e (%.3fs)", r, error, elapsed)
    csv_path = f"{out}.trotter.csv"
    _write_atomic(csv_path, "\n".join(lines) + "\n")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_resources(args: argparse.Namespace) -> int:
    try:
        estimate = problems.resource_estimate(
            args.particles,
            args.qubits_per_particle,
            args.index_qubits,
            args.scratch_qubits,
            position_space_qubits_per_particle=args.position_qubits_per_particle,
            interacting_pair_in_position_space=args.pair_in_position_space,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = [
        ("particles", estimate.particles),
        ("qubits_per_particle", estimate.qubits_per_particle),
        ("index_qubits", estimate.index_qubits),
        ("scratch_qubits", estimate.scratch_qubits),
        ("position_space_qubits_per_particle",
         estimate.position_space_qubits_per_particle),
        ("interacting_pair_in_position_space",
         "yes" if estimate.interacting_pair_in_position_space else "no"),
        ("total", estimate.total),
    ]
    for name, value in rows:
        print(f"{name:<36} {value}")
    return EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    cfg = _merged_config(args, _RUN_KEYS)
    run = _Run(cfg, need_exact=True)
    if run.problem.source is None:
        raise ConfigError(
            'key "problem": oracle-check needs a Hamiltonian-bearing problem'
        )
    decomposition = run.problem.decomposition  # the exact-mode run ensured it exists
    corrupt = bool(getattr(args, "corrupt_qft_sign", False))
    config = run.pe_config

    components = oracle.spectral_components(run.guess, decomposition, config.time)
    analytic = pe.analytic_bin_distribution(components, config.m_index)

    pre = pe.pre_measurement_state(run.guess, config, _corrupt_qft_sign=corrupt)
    simulated = sv.register_distribution(pre, config.layout.index_qubits)
    deviation = float(np.abs(simulated - analytic).max())
    if not (deviation <= DISTRIBUTION_TOL):
        raise AuditFailure(
            f"distribution check: max per-bin deviation {deviation:.3e} "
            f"exceeds {DISTRIBUTION_TOL:g}"
        )

    # Route check: the block engine against a gate-level route, amplitude by
    # amplitude (binary_power stands in when the engine is the configured route).
    # A flag_loop state carries a flag qubit on top: its flag-free half must
    # match the narrower engine state and its flag half must be zero.
    other = "binary_power" if config.power_method == "block" else "block"
    cross = pe.pre_measurement_state(
        run.guess, dataclasses.replace(config, power_method=other),
        _corrupt_qft_sign=corrupt,
    ).amplitudes
    gaps = np.concatenate([cross - pre.amplitudes[: cross.size],
                           pre.amplitudes[cross.size:]])
    route_deviation = float(np.abs(gaps).max())
    if not (route_deviation <= ROUTE_TOL):
        raise AuditFailure(
            f"route check: {config.power_method} and {other} differ by up to "
            f"{route_deviation:.3e} per amplitude, above {ROUTE_TOL:g}"
        )

    # Collapse audit: conditioning on each populated readout bin must land on
    # the spectrally predicted mixture of eigenvectors.
    populated = [int(j) for j in np.nonzero(analytic > POPULATED_BIN_FLOOR)[0]]
    collapsed = pe._collapse_bins(pre, config.layout, populated)
    predicted = pe.analytic_collapsed_states(
        run.guess, decomposition, config.time, config.m_index, populated
    )
    worst_bin, worst = -1, 1.0
    for j in populated:
        fidelity = float(abs(np.vdot(predicted[j], collapsed[j].amplitudes)) ** 2)
        if fidelity < worst:
            worst_bin, worst = j, fidelity
        if not (fidelity >= 1.0 - COLLAPSE_FIDELITY_TOL):
            raise AuditFailure(
                f"eigenvector-fidelity audit: bin {j} fidelity {fidelity:.12f} "
                f"below 1 - {COLLAPSE_FIDELITY_TOL:g}"
            )
    print(f"distribution check: max per-bin deviation {deviation:.3e}")
    print(f"route check: {config.power_method} vs {other}, max per-amplitude "
          f"deviation {route_deviation:.3e}")
    if worst_bin >= 0:
        print(f"eigenvector-fidelity audit: worst fidelity {worst:.12f} "
              f"at bin {worst_bin}")
    print("oracle check passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _merged_config(args: argparse.Namespace, command_keys: set[str]) -> dict:
    """Config file contents with command-line overrides folded in; keys other
    than ``command_keys`` and the problem's own are refused."""
    cfg = _load_config(args.config)
    overrides = {
        "seed": getattr(args, "seed", None),
        "m_index": getattr(args, "index_qubits", None),
        "time": getattr(args, "time", None),
        "slices": _parse_slices_flag(getattr(args, "slices", None)),
        "trials": getattr(args, "trials", None),
        "threshold": getattr(args, "threshold", None),
        "out": getattr(args, "out", None),
    }
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    allowed = command_keys | _PROBLEM_KEYS[_problem_kind(cfg)]
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f'unknown key "{key}"')
    return cfg


def _add_run_flags(parser: argparse.ArgumentParser, *, sampling: bool) -> None:
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--time", type=float, metavar="F",
                        help="override evolution time")
    parser.add_argument("--out", metavar="PATH", help="override output path stem")
    if sampling:
        parser.add_argument("--index-qubits", type=int, metavar="N",
                            help="override m_index")
        parser.add_argument("--seed", type=int, metavar="U64",
                            help="override the sampling seed")
        parser.add_argument("--slices", metavar="N|exact",
                            help="override the slice count")
        parser.add_argument("--trials", type=int, metavar="N",
                            help="override the trial count")
        parser.add_argument("--threshold", type=float, metavar="F",
                            help="override the peak detection threshold")
        parser.add_argument("--threads", type=int, default=1, metavar="N",
                            help="accepted for compatibility; sampling is one "
                             "vectorized pass and ignores it")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-qpe",
        description="Eigenvalue estimation runs, benchmarks, and audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="estimate the dominant eigenvalue")
    _add_run_flags(solve, sampling=True)
    solve.set_defaults(handler=cmd_solve)

    spectrum = sub.add_parser("spectrum", help="report all peaks above threshold")
    _add_run_flags(spectrum, sampling=True)
    spectrum.set_defaults(handler=cmd_spectrum)

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
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        package_log.addHandler(handler)
    package_log.setLevel(level)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_logging()
        if getattr(args, "threads", 1) < 1:
            raise ConfigError('flag "--threads": must be >= 1')
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ContractViolation as exc:
        print(f"runtime contract violation: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except AuditFailure as exc:
        print(f"oracle check failed: {exc}", file=sys.stderr)
        return EXIT_AUDIT


if __name__ == "__main__":
    sys.exit(main())
