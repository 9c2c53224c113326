"""Benchmark for the spectral-qpe command line.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to run each in turn.  The
package is run from ``src/`` of this checkout (``PYTHONPATH=src``); nothing
needs to be installed or built.

One client runs one CLI process at a time, back to back (a closed loop), for
``--seconds`` seconds.  Every process is timed from spawn to exit, and its own
CPU time and peak resident memory are read from ``os.wait4``.  Between CLI
processes the loop runs a fixed reference job (``bench/reference_job.py``,
no package code); each CLI time divided by the mean of the reference times
just before and after it is that run's relative time, which cancels most of
the speed drift of a shared host.  Every run's
outputs pass a correctness gate: per-bin counts and the peak-bin list must
equal references recorded from the seed commit (``bench/references.json``),
and ``oracle-check`` must exit 0.  Two negative controls show that the gate
can fail.  With ``--trace 1`` the timed loop is followed by traced runs
(``bench/tracer.py``) that give the per-layer metrics.

Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.  A
fuller record, with the machine description and every sample, is written to
``bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
OUT_DIR = ROOT / "bench_out"
REFERENCES = BENCH_DIR / "references.json"
TRACER = BENCH_DIR / "tracer.py"
REFERENCE_JOB = BENCH_DIR / "reference_job.py"

#: CLI seeds with recorded references; run ``i`` of a benchmark started with
#: ``--seed n`` uses CLI seed ``(n + i) % REFERENCE_SEEDS``.
REFERENCE_SEEDS = 8
#: An import-only child is timed for ``setup_s`` after every this many CLI
#: runs, so that set-up is sampled across the whole window like the runs are.
SETUP_EVERY = 2
#: Traced runs per ``--trace 1`` run; times are their medians.
TRACE_REPEATS = 2
#: The tail percentile is the highest one with this many samples beyond it.
TAIL_BEYOND = 10
#: A CLI process that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0

EXIT_AUDIT = 4


@dataclass(frozen=True)
class Workload:
    """One CLI subcommand on one config; ``seed`` is filled in per run."""

    name: str
    command: str
    config: dict

    @property
    def sampling(self) -> bool:
        return self.command != "oracle-check"

    def state_bytes(self) -> int:
        """Bytes of the full state vector: 16 * 2^(m + l + w), computed."""
        cfg = self.config
        system = cfg["sites"] if cfg["problem"] == "tfim" else cfg["system_qubits"]
        work = 1 if cfg.get("power_method") == "flag_loop" else 0
        return 16 * 2 ** (cfg["m_index"] + system + work)


_TFIM = {"problem": "tfim", "coupling": 1.0, "field": 0.7}
_GRID = {"problem": "grid", "system_qubits": 6, "potential": "harmonic:0.05,31.5",
         "mass": 1.0, "time": 0.4, "threshold": 0.05}

# Each workload loads a different layer; why each was chosen is in
# BENCHMARK.json and bench/README.md.  Sizes are cut from the full
# configurations so that one CLI process takes well under a second and a run
# collects enough samples for a median and a tail.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-split-step", "spectrum",
                 {**_GRID, "m_index": 6, "slices": 2, "trials": 2000}),
        Workload("tfim-exact-spectrum", "spectrum",
                 {**_TFIM, "sites": 8, "m_index": 8, "time": 0.2, "trials": 2000}),
        Workload("bulk-draws", "solve",
                 {**_TFIM, "sites": 3, "m_index": 8, "time": 0.5, "trials": 15000}),
        Workload("oracle-audit", "oracle-check",
                 {**_TFIM, "sites": 7, "m_index": 7, "time": 0.25,
                  "power_method": "flag_loop"}),
    )
}

# Tiny variants of the same shapes, for the self-test and negative controls.
TINY = {
    w.name: w
    for w in (
        Workload("tiny-grid-split-step", "spectrum",
                 {**_GRID, "m_index": 3, "slices": 1, "trials": 200}),
        Workload("tiny-tfim-exact-spectrum", "spectrum",
                 {**_TFIM, "sites": 4, "m_index": 3, "time": 0.2, "trials": 200}),
        Workload("tiny-bulk-draws", "solve",
                 {**_TFIM, "sites": 3, "m_index": 3, "time": 0.5, "trials": 200}),
        Workload("tiny-oracle-audit", "oracle-check",
                 {**_TFIM, "sites": 3, "m_index": 3, "time": 0.25,
                  "power_method": "flag_loop"}),
    )
}


class HarnessError(Exception):
    """The benchmark cannot run here (missing sources, bad references)."""


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def spawn(argv: list[str], env: dict, workdir: Path) -> Child:
    """Run one child to completion; usage is that child's own, via wait4."""
    out_path, err_path = workdir / "child.stdout", workdir / "child.stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=workdir)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            exit_code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
        )


def child_env() -> dict:
    """This process's environment with the checkout's sources first on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_argv(workload: Workload, config_path: Path, stem: Path) -> list[str]:
    return [workload.command, "--config", str(config_path), "--out", str(stem)]


def write_configs(workload: Workload, workdir: Path) -> dict[int, Path]:
    paths = {}
    for seed in range(REFERENCE_SEEDS):
        path = workdir / f"{workload.name}.seed{seed}.json"
        path.write_text(json.dumps({**workload.config, "seed": seed}), encoding="utf-8")
        paths[seed] = path
    return paths


def clear_outputs(stem: Path) -> None:
    for suffix in (".histogram.csv", ".result.json"):
        Path(f"{stem}{suffix}").unlink(missing_ok=True)


def read_outputs(stem: Path) -> dict:
    """Per-bin counts and the peak-bin list of a sampling run."""
    lines = Path(f"{stem}.histogram.csv").read_text(encoding="utf-8").splitlines()
    counts = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
    record = json.loads(Path(f"{stem}.result.json").read_text(encoding="utf-8"))
    return {"counts": counts, "peaks": [peak["bin"] for peak in record["peaks"]]}


# ---------------------------------------------------------------------------
# correctness gate


def load_references() -> dict:
    try:
        return json.loads(REFERENCES.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise HarnessError(f"cannot read {REFERENCES}: {exc}") from exc


def reference_for(references: dict, workload: Workload, seed: int) -> dict:
    entry = references.get(workload.name)
    if entry is None or entry["config"] != workload.config:
        raise HarnessError(
            f"no reference recorded for workload {workload.name} with this config; "
            "run bench/record_references.py at the seed commit"
        )
    return entry["seeds"][str(seed)]


def gate(workload: Workload, child: Child, stem: Path, expected: dict | None) -> str | None:
    """None when the run is correct, else the reason it is not."""
    if child.exit_code != 0:
        return f"exit code {child.exit_code}: {child.stderr.strip()[-300:]}"
    if not workload.sampling:
        if "oracle check passed" not in child.stdout:
            return "oracle-check exited 0 without reporting a pass"
        return None
    try:
        got = read_outputs(stem)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable outputs: {exc}"
    if got["counts"] != expected["counts"]:
        return "per-bin counts differ from the reference"
    if got["peaks"] != expected["peaks"]:
        return f"peak bins {got['peaks']} differ from the reference {expected['peaks']}"
    return None


def negative_controls(references: dict, env: dict, workdir: Path, seed: int) -> dict:
    """Two runs the gate must reject; each entry is True when it fired."""
    python = sys.executable
    audit = TINY["tiny-oracle-audit"]
    config = write_configs(audit, workdir)[seed]
    corrupt = spawn([python, "-m", "spectral_qpe", *cli_argv(audit, config, workdir / "ctl"),
                     "--corrupt-qft-sign"], env, workdir)

    draws = TINY["tiny-bulk-draws"]
    stem = workdir / "ctl"
    clear_outputs(stem)
    config = write_configs(draws, workdir)[seed]
    drawn = spawn([python, "-m", "spectral_qpe", *cli_argv(draws, config, stem)], env, workdir)
    wrong = reference_for(references, draws, (seed + 1) % REFERENCE_SEEDS)
    right = reference_for(references, draws, seed)
    return {
        "corrupt_qft_sign_exit_4": corrupt.exit_code == EXIT_AUDIT,
        "wrong_seed_reference_flagged": (
            gate(draws, drawn, stem, wrong) is not None
            and gate(draws, drawn, stem, right) is None
        ),
    }


# ---------------------------------------------------------------------------
# measurement


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest order statistic with
    ``TAIL_BEYOND`` samples above it; never below the median's index."""
    return max(n - 1 - TAIL_BEYOND, n // 2)


def tail(values: list[float]) -> float:
    return sorted(values)[tail_index(len(values))]


def import_child(env: dict, workdir: Path) -> Child:
    child = spawn([sys.executable, "-c", "import spectral_qpe.cli"], env, workdir)
    if child.exit_code != 0:
        raise HarnessError(f"cannot import spectral_qpe.cli: {child.stderr.strip()[-300:]}")
    return child


def reference_child(env: dict, workdir: Path) -> Child:
    child = spawn([sys.executable, str(REFERENCE_JOB)], env, workdir)
    if child.exit_code != 0:
        raise HarnessError(f"reference job failed: {child.stderr.strip()[-300:]}")
    return child


def relative(samples: list[Child], references: list[Child], field: str) -> list[float]:
    """Each sample's ``field`` over the mean of the reference runs around it."""
    return [
        getattr(child, field) / ((getattr(before, field) + getattr(after, field)) / 2)
        for child, before, after in zip(samples, references, references[1:])
    ]


@dataclass
class TracedRun:
    child: Child
    trace: dict
    output_bytes: int  # standard output plus the files the command wrote


def traced_runs(workload: Workload, config: Path, env: dict, workdir: Path,
                expected: dict | None) -> tuple[list[TracedRun], list[str]]:
    runs, failures = [], []
    stem = workdir / "traced"
    for i in range(TRACE_REPEATS):
        clear_outputs(stem)
        trace_path = workdir / f"trace{i}.json"
        child = spawn([sys.executable, str(TRACER), str(trace_path),
                       *cli_argv(workload, config, stem)], env, workdir)
        reason = gate(workload, child, stem, expected)
        if reason is not None:
            failures.append(f"traced run {i}: {reason}")
        try:
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise HarnessError(f"traced run {i} wrote no trace: {exc}") from exc
        written = [Path(f"{stem}{s}") for s in (".histogram.csv", ".result.json")]
        output_bytes = len(child.stdout.encode()) + sum(
            p.stat().st_size for p in written if p.exists()
        )
        runs.append(TracedRun(child, trace, output_bytes))
    return runs, failures


FUNCTION_STATS = ("calls", "total_s", "self_s", "distinct_ratio")

E2E_UNITS = {
    "wall_rel": "ratio", "wall_rel_tail": "ratio", "cpu_rel": "ratio", "cpu_rel_tail": "ratio",
    "wall_s": "s", "wall_s_tail": "s", "cpu_s": "s", "cpu_s_tail": "s", "reference_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s", "pass_ratio": "ratio",
}


def layer_metrics(workload: Workload, runs: list[TracedRun],
                  untraced_wall: float) -> tuple[dict, list[str]]:
    """Per-function statistics (medians over the traced runs) and computed counts."""
    problems = []
    functions = [r.trace["functions"] for r in runs]
    calls = [{name: f["calls"] for name, f in fs.items()} for fs in functions]
    if any(c != calls[0] for c in calls[1:]):
        problems.append("call counts differ between traced runs")
    metrics = {}
    for name in functions[0]:
        for stat in FUNCTION_STATS:
            if stat in functions[0][name]:
                values = [fs.get(name, {}).get(stat, 0) for fs in functions]
                # Call counts are equal across the runs (checked above).
                metrics[f"{name}.{stat}"] = (
                    values[0] if stat == "calls" else statistics.median(values)
                )
    kernel_calls = sum(
        metrics.get(f"statevector.{k}.calls", 0)
        for k in ("apply_gate", "apply_controlled_gate", "apply_diagonal_phase")
    )
    state_bytes = workload.state_bytes()
    metrics["statevector.state_bytes"] = state_bytes
    metrics["statevector.bytes_moved_computed"] = kernel_calls * state_bytes * 2
    metrics["cli.output_bytes"] = statistics.median(r.output_bytes for r in runs)
    metrics["trace_overhead_s"] = (
        statistics.median(r.child.wall_s for r in runs) - untraced_wall
    )
    return metrics, problems


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 references: dict, spec: dict) -> dict:
    """One benchmark run of one workload; returns the full record."""
    env = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        configs = write_configs(workload, workdir)
        expected = {
            s: reference_for(references, workload, s) if workload.sampling else None
            for s in configs
        }
        import_child(env, workdir)  # fills the bytecode and page caches
        controls = negative_controls(references, env, workdir, seed % REFERENCE_SEEDS)

        stem = workdir / "run"
        samples, failures, setup = [], [], []

        def invoke(run_index: int) -> Child:
            cli_seed = (seed + run_index) % REFERENCE_SEEDS
            clear_outputs(stem)
            child = spawn([sys.executable, "-m", "spectral_qpe",
                           *cli_argv(workload, configs[cli_seed], stem)], env, workdir)
            reason = gate(workload, child, stem, expected[cli_seed])
            if reason is not None:
                failures.append(f"run {run_index} (CLI seed {cli_seed}): {reason}")
            return child

        invoke(-1)  # warm-up, gated but not timed
        reference_child(env, workdir)  # warm-up
        refs = [reference_child(env, workdir)]
        started = time.perf_counter()
        while not samples or time.perf_counter() - started < seconds:
            samples.append(invoke(len(samples)))
            refs.append(reference_child(env, workdir))
            if len(samples) % SETUP_EVERY == 1:
                setup.append(import_child(env, workdir).wall_s)

        walls = [c.wall_s for c in samples]
        cpus = [c.cpu_s for c in samples]
        wall_rel = relative(samples, refs, "wall_s")
        cpu_rel = relative(samples, refs, "cpu_s")
        wall_median = statistics.median(walls)
        attempted = len(samples) + 1
        e2e = {
            "wall_rel": statistics.median(wall_rel),
            "wall_rel_tail": tail(wall_rel),
            "cpu_rel": statistics.median(cpu_rel),
            "cpu_rel_tail": tail(cpu_rel),
            "wall_s": wall_median,
            "wall_s_tail": tail(walls),
            "cpu_s": statistics.median(cpus),
            "cpu_s_tail": tail(cpus),
            "reference_s": statistics.median(r.wall_s for r in refs),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in samples),
            "setup_s": statistics.median(setup),
            "pass_ratio": (attempted - len(failures)) / attempted,
        }
        bounded = {m["name"] for m in spec["end_to_end"]}
        record = {
            "workload": workload.name,
            "command": workload.command,
            "config": workload.config,
            "seed": seed,
            "seconds": seconds,
            "machine": machine_description(),
            "samples": {
                "wall_s": walls,
                "cpu_s": cpus,
                "wall_rel": wall_rel,
                "cpu_rel": cpu_rel,
                "reference_s": [r.wall_s for r in refs],
                "peak_rss_mb": [c.peak_rss_mb for c in samples],
                "setup_s": setup,
            },
            "tail_percentile": 100.0 * (tail_index(len(samples)) + 1) / len(samples),
            "controls": controls,
            "failures": failures,
            "attempted": attempted,
            "end_to_end": select(e2e, spec["end_to_end"], set()),
            "unbounded": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()
                          if k not in bounded},
        }
        if trace:
            runs, traced_failures = traced_runs(
                workload, configs[seed % REFERENCE_SEEDS], env, workdir,
                expected[seed % REFERENCE_SEEDS],
            )
            failures.extend(traced_failures)
            record["attempted"] += len(runs)
            layers, problems = layer_metrics(workload, runs, wall_median)
            failures.extend(problems)
            record["functions"] = dict(sorted(layers.items()))
            record["per_layer"] = select(layers, spec["per_layer"],
                                         set(runs[0].trace["wrapped"]))
        record["failed"] = len(failures)
        record["correct"] = not failures and all(controls.values())
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def select(values: dict, wanted: list[dict], wrapped: set[str]) -> dict:
    """The metrics named in BENCHMARK.json, with their units.

    A statistic of a wrapped function that was never called is 0; a name
    that matches nothing is an error, so a renamed function cannot turn its
    metrics into silent zeros.
    """
    out = {}
    for metric in wanted:
        name = metric["name"]
        function, _, stat = name.rpartition(".")
        if name in values:
            value = values[name]
        elif stat in FUNCTION_STATS and function in wrapped:
            value = 0
        else:
            raise HarnessError(f"metric {name} is not produced by this benchmark")
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


# ---------------------------------------------------------------------------
# reporting


def machine_description() -> dict:
    import numpy as np  # only the description needs it; the harness does not

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(record: dict) -> None:
    print(f"workload {record['workload']} ({record['command']}), seed {record['seed']}, "
          f"{record['seconds']:g} s window")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    n = len(record["samples"]["wall_s"])
    tail_note = f"p{record['tail_percentile']:.0f} of {n} CLI runs"
    rel_note = f"over the reference job around it, median of {n} CLI runs"
    notes = {
        "wall_rel": rel_note,
        "wall_rel_tail": f"over the reference job, {tail_note}",
        "cpu_rel": rel_note,
        "cpu_rel_tail": f"over the reference job, {tail_note}",
        "wall_s": f"median of {n} CLI runs",
        "wall_s_tail": tail_note,
        "cpu_s": f"median of {n} CLI runs",
        "cpu_s_tail": tail_note,
        "reference_s": f"median of {n + 1} reference jobs",
        "peak_rss_mb": f"median of {n} CLI runs",
        "setup_s": f"median of {len(record['samples']['setup_s'])} imports",
        "pass_ratio": f"{record['attempted'] - record['failed']}/{record['attempted']} gated runs"
                      f" (fail_ratio {record['failed'] / record['attempted']:g})",
        "statevector.state_bytes": "computed: 16*2^(m+l+w)",
        "statevector.bytes_moved_computed": "computed: kernel calls * state bytes * 2",
    }
    shown = {**record["end_to_end"], **record["unbounded"], **record.get("per_layer", {})}
    for name, metric in shown.items():
        print(f"  {name:<58} {metric['value']:<14.6g} {metric['unit']:<6} {notes.get(name, '')}")
    for name, fired in record["controls"].items():
        print(f"  negative control {name}: {'fired' if fired else 'DID NOT FIRE'}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def save(record: dict, trace: bool) -> None:
    path = OUT_DIR / f"{record['workload']}-seed{record['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise HarnessError(f"cannot read BENCHMARK.json: {exc}") from exc


def check_checkout() -> None:
    if not (ROOT / "src" / "spectral_qpe" / "cli.py").is_file():
        raise HarnessError(f"no spectral_qpe sources under {ROOT / 'src'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        check_checkout()
        spec = load_spec()
        references = load_references()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        records = []
        for name in names:
            record = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), references, spec)
            report(record)
            save(record, bool(args.trace))
            records.append(record)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    if len(records) == 1:
        metrics = records[0][kind]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r[kind].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
