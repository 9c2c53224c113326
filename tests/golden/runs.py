"""Golden outputs: named CLI runs and what each artifact they leave holds.

Usage (from the repository root):

    python tests/golden/runs.py            # print this build's record as JSON
    python tests/golden/runs.py --write    # rewrite tests/golden/digests.json

Every run goes through ``cli.main`` in this one process, in its own
temporary directory.  Its record is the exit code and a sha256 of each of
stdout, stderr (with every warning raised during the run appended as
``Category: message``) and each file it writes: ``histogram.csv``,
``result.json`` and ``trotter.csv``, the last without its ``wall_seconds``
column.  The temporary directory is masked as ``<tmp>`` first.  The floats
of ``histogram.csv`` are formatted from integer counts, so its whole text is
hashed.  Any other artifact is hashed with each decimal or exponent number
replaced by ``#``, and its record lists those numbers in order, under
``<artifact> numbers``: the digits float rounding can move on another build.

BLAS is pinned to one thread before numpy loads.  The record names the
build it was made on (Python, numpy and BLAS versions) for information;
``tests/test_golden.py`` compares every build's runs the same way.  To check
the record under another OpenBLAS kernel of an x86-64 CPU, run
``OPENBLAS_CORETYPE=Haswell python -m pytest tests/test_golden.py``.  A
change that moves output on purpose rewrites ``digests.json`` in the same
diff and says which runs moved and why.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[2]
DIGESTS = pathlib.Path(__file__).with_name("digests.json")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from spectral_qpe import cli  # noqa: E402

ROUTES = ("block", "binary_power", "flag_loop")
#: A decimal or exponent number that starts no word: a float as printed.
NUMBER = re.compile(r"(?<![\w.])[-+]?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)")
SEEDS = range(8)

_TFIM = {"problem": "tfim", "coupling": 1.0, "field": 0.7}
_GRID6 = {"problem": "grid", "system_qubits": 6, "potential": "harmonic:0.05,31.5",
          "mass": 1.0, "time": 0.4, "threshold": 0.05}
_TFIM3 = {"problem": "tfim", "sites": 3, "m_index": 4, "time": 0.5}
_GRID3_PROBLEM = {"problem": "grid", "system_qubits": 3, "potential": "harmonic:0.8,3.5",
                  "time": 0.4}
_GRID3 = {**_GRID3_PROBLEM, "m_index": 4}
_TFIM8_M10 = {"problem": "tfim", "sites": 8, "m_index": 10, "time": 0.25}
_UNITARY2 = {"problem": "explicit_unitary", "m_index": 5, "time": 1,
             "unitary": [[0.6, -0.8, 0, 0], [0.8, 0.6, 0, 0], [0, 0, 0, [0, 1]], [0, 0, 1, 0]]}
_PAIR = [[1, 0, 0, 0.5], [0, -1, 0.3, 0], [0, 0.3, 0.2, 0], [0.5, 0, 0, 0.7]]
_TRIPLE = [[0.4 if i == j else 0.1 if abs(i - j) == 3 else 0 for j in range(8)]
           for i in range(8)]
_TERMS3 = {"problem": "explicit_terms", "system_qubits": 3, "m_index": 4, "time": 0.5,
           "slices": 2, "terms": [{"support": [1, 0], "matrix": _PAIR},
                                  {"support": [2, 0, 1], "matrix": _TRIPLE},
                                  {"support": [2], "matrix": [[0, 1], [1, 0]]}]}
_PAULI_Y = {"problem": "explicit_terms", "system_qubits": 2, "m_index": 4, "time": 0.5,
            "terms": [{"support": [0], "matrix": [[0, [0, -1]], [[0, 1], 0]]},
                      {"support": [0, 1], "matrix": np.diag([1, -1, -1, 1]).tolist()}]}
_Z13 = {"problem": "explicit_terms", "system_qubits": 13, "m_index": 2, "time": 10,
        "slices": 1, "trials": 10,
        "terms": [{"support": [q], "matrix": [[1, 0], [0, -1]]} for q in range(13)]}
_SWEEP = [1, 3, 17, 1073741824]


def _term(matrix) -> dict:
    return {"problem": "explicit_terms", "system_qubits": 1,
            "terms": [{"support": [0], "matrix": matrix}]}


#: Configs each refused with exit 2, by the key they name.
_REFUSALS = {
    "overflow-mass": {"problem": "grid", "system_qubits": 3, "mass": 1e-320},
    "overflow-coupling": {"problem": "tfim", "sites": 3, "coupling": 1e308, "field": 1e308},
    "overflow-term": _term([[1e308, 1e308], [1e308, 1e308]]),
    "overflow-unitary": {"problem": "explicit_unitary",
                         "unitary": [[1e308, 1e308], [1e308, 1e308]]},
    "overflow-hermitian": _term([[0, 1e308], [-1e308, 0]]),
    "grid-norm-bound": {"problem": "grid", "system_qubits": 2, "mass": 1e-305,
                        "potential": [1.7976e308, 0, 0, 0]},
    "grid-qubits": {"problem": "grid", "system_qubits": 11},
    "unknown-key": {**_TFIM3, "sites": 3, "site": 4},
    "zero-time": {**_TFIM3, "time": 0},
    "coarse-phases": {**_TFIM3, "coupling": 10**30, "m_index": 2},
    "unitary-slices": {**_UNITARY2, "slices": 2},
    "register-cap": {**_TFIM3, "sites": 2, "m_index": 25},
}


def _runs() -> dict[str, tuple[str, dict, list[str]]]:
    """Every golden run by name: (command, config, extra flags)."""
    runs = {}
    for seed in SEEDS:
        runs[f"bench/grid-split-step/seed{seed}"] = (
            "spectrum", {**_GRID6, "m_index": 6, "slices": 2, "trials": 2000, "seed": seed}, [])
        runs[f"bench/tfim-exact-spectrum/seed{seed}"] = (
            "spectrum", {**_TFIM, "sites": 8, "m_index": 8, "time": 0.2, "trials": 2000,
                         "seed": seed}, [])
        runs[f"bench/bulk-draws/seed{seed}"] = (
            "solve", {**_TFIM, "sites": 3, "m_index": 8, "time": 0.5, "trials": 15000,
                      "seed": seed}, [])
    runs["bench/oracle-audit"] = (
        "oracle-check", {**_TFIM, "sites": 7, "m_index": 7, "time": 0.25,
                         "power_method": "flag_loop"}, [])
    routed = {
        "tfim4": {"problem": "tfim", "sites": 4, "m_index": 6, "time": 0.5},
        "tfim4-m5": {"problem": "tfim", "sites": 4, "m_index": 5, "time": 0.5},
        "tfim3": {**_TFIM3, "slices": 3},
        "grid3": {**_GRID3, "slices": 4},
        "grid4": {**_GRID3, "system_qubits": 4, "m_index": 5, "slices": 2},
        "grid6": {**_GRID6, "m_index": 8, "slices": 2},
        "unitary2": _UNITARY2,
        "terms3": _TERMS3,
        "tfim4-m9": {"problem": "tfim", "sites": 4, "m_index": 9, "time": 0.5},
        "unitary2-m12": {**_UNITARY2, "m_index": 12},
        "tfim8-m10": _TFIM8_M10,
        "tfim3-m10": {**_TFIM3, "m_index": 10, "slices": 1},
        "grid8": {**_GRID6, "system_qubits": 8, "potential": "harmonic:0.02,127.5",
                  "m_index": 5, "slices": 2},
    }
    for name, cfg in routed.items():
        for route in ROUTES:
            runs[f"routes/{name}/{route}"] = (
                "spectrum", {**cfg, "trials": 2000, "power_method": route}, [])
    audited = {"tfim3": _TFIM3, "grid3": _GRID3, "pauli-y": _PAULI_Y}
    for name, cfg in audited.items():
        for route in ROUTES:
            for flags in ([], ["--corrupt-qft-sign"]):
                label = "/corrupt-qft-sign" if flags else ""
                runs[f"oracle-check/{name}/{route}{label}"] = (
                    "oracle-check", {**cfg, "power_method": route}, flags)
    runs["oracle-check/tfim5-m3/flag_loop"] = (
        "oracle-check", {**_TFIM3, "sites": 5, "m_index": 3, "power_method": "flag_loop"}, [])
    for name, cfg in {"tfim9": {"problem": "tfim", "sites": 9, "m_index": 4, "time": 0.25},
                      "tfim8-m10": {**_TFIM8_M10, "trials": 2000}}.items():
        for route in ("block", "flag_loop"):
            runs[f"oracle-check/{name}/{route}"] = (
                "oracle-check", {**cfg, "power_method": route}, [])
    runs["solve/tfim3-sliced"] = ("solve", {**_TFIM3, "slices": 3, "trials": 200}, [])
    runs["solve/grid3-sliced"] = ("solve", {**_GRID3, "slices": 4, "trials": 200}, [])
    runs["solve/tfim3-slices-flag"] = ("solve", {**_TFIM3, "trials": 200}, ["--slices", "3"])
    runs["solve/z13-aliased"] = ("solve", _Z13, [])
    runs["spectrum/tfim4-sliced-m10"] = (
        "spectrum", {"problem": "tfim", "sites": 4, "slices": 2, "m_index": 10, "time": 0.5,
                     "trials": 2000}, [])
    swept = {"tfim3": {"problem": "tfim", "sites": 3, "time": 0.5}, "grid3": _GRID3_PROBLEM}
    for name, cfg in swept.items():
        for label, sweep in (("", _SWEEP), ("-r4", [1, 2, 4])):
            runs[f"trotter-bench/{name}{label}"] = (
                "trotter-bench", {**cfg, "slice_sweep": sweep}, [])
    runs["trotter-bench/tfim10"] = (
        "trotter-bench", {"problem": "tfim", "sites": 10, "time": 0.5, "slice_sweep": [1, 2]}, [])
    for name, cfg in _REFUSALS.items():
        runs[f"refusal/{name}"] = ("spectrum", {"m_index": 4, "time": 0.4, **cfg}, [])
    return runs


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _without_wall_seconds(text: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    drop = rows[0].index("wall_seconds")
    return "".join(",".join(r[:drop] + r[drop + 1:]) + "\n" for r in rows)


def run(command: str, config: dict, flags: list[str], workdir: pathlib.Path) -> dict:
    """One run in ``workdir`` (the current directory while it runs): its exit
    code, each artifact's digest and, but for the histogram, its numbers."""
    (workdir / "config.json").write_text(json.dumps({**config, "out": "run"}))
    stdout, stderr = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main([command, "--config", "config.json", *flags])
            except Exception as exc:  # what the process entry would exit 1 on
                code = 1
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    finally:
        os.chdir(previous)
    err = stderr.getvalue() + "".join(
        f"{w.category.__name__}: {w.message}\n" for w in caught)
    record = {"exit": code}
    texts = {"stdout": stdout.getvalue(), "stderr": err}
    for path in sorted(workdir.glob("run.*")):
        artifact = path.name.removeprefix("run.")
        text = path.read_text()
        texts[artifact] = _without_wall_seconds(text) if artifact == "trotter.csv" else text
    for name, text in texts.items():
        text = text.replace(str(workdir), "<tmp>")
        if name != "histogram.csv":
            record[f"{name} numbers"] = [float(number) for number in NUMBER.findall(text)]
            text = NUMBER.sub("#", text)
        record[name] = _digest(text)
    return record


def build() -> dict:
    """The interpreter, numpy and its BLAS, for information."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def record() -> dict:
    """This build's record: the build and every run's entries."""
    runs = {}
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        for i, (name, (command, config, flags)) in enumerate(_runs().items()):
            workdir = pathlib.Path(tmp, str(i))
            workdir.mkdir()
            runs[name] = run(command, config, flags, workdir)
    return {"build": build(), "runs": runs}


def main(argv: list[str]) -> int:
    result = record()
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if argv == ["--write"]:
        DIGESTS.write_text(text)
        print(f"wrote {len(result['runs'])} runs to {DIGESTS.relative_to(ROOT)}")
    elif argv:
        print(__doc__, file=sys.stderr)
        return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
