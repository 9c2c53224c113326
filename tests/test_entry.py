"""The process entry, ``python -m spectral_qpe``, run in a child process.

The child runs with block-buffered standard streams (no
``PYTHONUNBUFFERED``), so an output left in a buffer at the hard exit would
be lost, and at log level ``info``, so log lines must reach stderr.  Each
run must give the exit code, stdout, stderr and files of ``cli.main`` called
in this process on the same arguments.
"""

import importlib
import json
import logging
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import textwrap

import pytest

import spectral_qpe
from spectral_qpe import cli
from spectral_qpe import phase_estimation as pe

_SRC = str(pathlib.Path(spectral_qpe.__file__).resolve().parent.parent)

TFIM3 = {"problem": "tfim", "sites": 3, "m_index": 4, "time": 0.5, "trials": 200, "out": "run"}
# time 1.5 puts TFIM-3's spectral radius outside the unaliased window, so the
# run logs warnings beside its peaks
ALIASED = dict(TFIM3, m_index=5, time=1.5, trials=300)
FLAG_SLICED = dict(TFIM3, power_method="flag_loop", slices=3)
SWEEP = {"problem": "tfim", "sites": 3, "time": 0.5, "slice_sweep": [1, 2, 4], "out": "run"}
LONG_STEM = "x" * 242  # "<stem>.histogram.csv" is one byte past a 255-byte file name

RESOURCES = ["resources", "--particles", "2", "--qubits-per-particle", "3",
             "--index-qubits", "4"]

CASES = {
    "solve": (["solve"], TFIM3, 0),
    "spectrum": (["spectrum"], ALIASED, 0),
    "oracle-check": (["oracle-check"], FLAG_SLICED, 0),
    "trotter-bench": (["trotter-bench"], SWEEP, 0),
    "resources": (RESOURCES, None, 0),
    "unknown-key": (["solve"], dict(TFIM3, stray=1), 2),
    "failed-audit": (["oracle-check", "--corrupt-qft-sign"], dict(TFIM3, power_method="flag_loop"), 4),
    "unwritable-output": (["spectrum", "--out", LONG_STEM], TFIM3, 5),
    "usage-error": (["solve", "--trials"], None, 2),
    "help": (["--help"], None, 0),
}


def child_env(**extra):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    path = env.get("PYTHONPATH")
    env.update(PYTHONPATH=_SRC + (os.pathsep + path if path else ""),
               SPECTRAL_QPE_LOG="info", COLUMNS="80")
    env.update(extra)
    return env


def run_child(args, cwd, env=None, **kwargs):
    return subprocess.run(args, cwd=cwd, env=env or child_env(), timeout=300, **kwargs)


def run_entry(argv, cwd):
    done = run_child([sys.executable, "-m", "spectral_qpe", *argv], cwd,
                     capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


@pytest.fixture
def in_process(monkeypatch, capsys):
    """``cli.main(argv)`` in this process, as (code, stdout, stderr); the
    package's log handler writes to whatever stderr is, here the captured one."""
    package_log = logging.getLogger("spectral_qpe")
    level = package_log.level
    monkeypatch.setenv("SPECTRAL_QPE_LOG", "info")
    monkeypatch.setenv("COLUMNS", "80")

    def _run(argv, cwd):
        monkeypatch.chdir(cwd)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    yield _run
    package_log.setLevel(level)


def _masked(text):
    """The text with what differs between any two runs masked: the seconds
    ``trotter-bench`` logs and times, and a temporary file's random name."""
    text = re.sub(r"\(\d+\.\d+s\)", "(<s>)", text)
    return re.sub(r"\.spectral_qpe_\w+", ".spectral_qpe_<tmp>", text)


def _outputs(directory):
    files = {}
    for path in sorted(directory.iterdir()):
        text = path.read_text()
        if path.name.endswith(".trotter.csv"):
            text = re.sub(r",[^,\n]+$", ",<s>", text, flags=re.M)
        files[path.name] = text
    return files


@pytest.mark.parametrize("case", list(CASES))
def test_entry_matches_main_in_process(case, tmp_path, in_process):
    argv, cfg, expected_code = CASES[case]
    if cfg is not None:
        argv = [argv[0], "--config", str(tmp_path / "config.json"), *argv[1:]]
    sides = {}
    for side, run in (("entry", run_entry), ("main", in_process)):
        if cfg is not None:
            (tmp_path / "config.json").write_text(json.dumps(cfg))
        code, out, err = run(argv, tmp_path)
        sides[side] = (code, _masked(out), _masked(err), _outputs(tmp_path))
        for path in tmp_path.iterdir():
            path.unlink()
    assert sides["entry"] == sides["main"]
    code, out, err, files = sides["entry"]
    assert code == expected_code
    assert "Traceback" not in err
    if case in ("spectrum", "oracle-check", "trotter-bench"):
        assert err.strip(), "log lines must reach stderr"
    if expected_code == 0:
        assert out.strip()
    if case in ("solve", "spectrum", "trotter-bench"):
        assert len(files) > 1, "outputs written beside the config"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_stdout_without_reader_exits_1_without_traceback(tmp_path, unbuffered):
    (tmp_path / "config.json").write_text(json.dumps(TFIM3))
    env = child_env(SPECTRAL_QPE_LOG="warn", **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_child([sys.executable, "-m", "spectral_qpe", "spectrum", "--config",
                          "config.json"], tmp_path, env, stdout=write_end,
                         stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")
    assert json.loads((tmp_path / "run.result.json").read_text())["command"] == "spectrum"
    assert (tmp_path / "run.histogram.csv").read_text().startswith("bin,")


_PATCHED_ENTRY = """
import atexit, logging, logging.handlers, os, sys
from spectral_qpe import cli
from spectral_qpe.__main__ import console_entry

{code}

cli.cmd_resources = handler
atexit.register(os.write, 2, b"atexit callback ran")
sys.argv = ["spectral-qpe", "resources", "--particles", "1",
            "--qubits-per-particle", "2", "--index-qubits", "3"]
console_entry()
"""


def run_patched_entry(tmp_path, code):
    """The entry through ``python -c``, ``code`` defining the ``handler`` that
    replaces the ``resources`` command."""
    source = _PATCHED_ENTRY.format(code=textwrap.dedent(code))
    return run_child([sys.executable, "-c", source], tmp_path, capture_output=True, text=True)


def test_exception_from_main_keeps_its_traceback_and_the_normal_exit(tmp_path):
    done = run_patched_entry(tmp_path, """
        def handler(args):
            raise RuntimeError("handler failed")
    """)
    assert done.returncode == 1
    assert "Traceback (most recent call last)" in done.stderr
    assert "RuntimeError: handler failed" in done.stderr
    assert "atexit callback ran" in done.stderr


def test_returned_code_ends_the_process_after_flushing_everything(tmp_path):
    # The caller's own buffering handler on the package logger, so the
    # package adds no stderr handler whose flush would flush stderr too;
    # then unterminated writes to both streams.
    done = run_patched_entry(tmp_path, """
        logging.getLogger("spectral_qpe").addHandler(logging.handlers.MemoryHandler(
            100, flushLevel=logging.CRITICAL, target=logging.StreamHandler(sys.stdout)))

        def handler(args):
            print("partial stdout", end="")
            sys.stderr.write("partial stderr")
            logging.getLogger("spectral_qpe.cli").info("buffered record")
            return 3
    """)
    assert done.returncode == 3
    assert done.stdout == "partial stdoutbuffered record\n"
    assert done.stderr == "partial stderr"  # and no atexit callback: no teardown


def test_a_sampling_run_loads_no_numpy_random(tmp_path):
    """The sampler hashes its seeds itself: loading numpy.random raised a
    sampling CLI run's peak RSS from 33.0 to 38.5 MB (numpy 2.4).  numpy
    before 2.0 loads it with numpy itself, which the check allows."""
    (tmp_path / "run.json").write_text(json.dumps(dict(TFIM3, trials=5000)))
    source = textwrap.dedent("""
        import sys
        import numpy
        eager = "numpy.random" in sys.modules
        from spectral_qpe import cli
        code = cli.main(["solve", "--config", "run.json"])
        print(eager, "numpy.random" in sys.modules)
        sys.exit(code)
    """)
    done = run_child([sys.executable, "-c", source], tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    eager, loaded = done.stdout.split()[-2:]
    assert loaded == eager


def test_start_up_generates_no_dataclass(tmp_path):
    """Importing the package generates no code: no class of it is a
    dataclass, and a fresh ``import spectral_qpe.cli`` loads ``dataclasses``
    only if numpy and the CLI's standard-library imports already do.
    ``PhaseSample`` keeps an ``__init__`` in its own class body, the
    constructor the benchmark's tracer wraps by name."""
    for info in pkgutil.iter_modules(spectral_qpe.__path__):
        module = importlib.import_module(f"spectral_qpe.{info.name}")
        for value in vars(module).values():
            assert not hasattr(value, "__dataclass_fields__"), value
    assert "__init__" in vars(pe.PhaseSample)
    loaded = {}
    for imports in ("numpy, argparse, json, logging", "spectral_qpe.cli"):
        source = f"import sys\nimport {imports}\nprint('dataclasses' in sys.modules)"
        done = run_child([sys.executable, "-c", source], tmp_path, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        loaded[imports] = done.stdout.split()[-1]
    assert loaded["spectral_qpe.cli"] == loaded["numpy, argparse, json, logging"]
