"""Golden outputs: every named run of ``tests/golden/runs.py`` leaves the
artifacts recorded in ``tests/golden/digests.json``.

The runs go through ``cli.main`` in one subprocess with BLAS pinned to one
thread.  On the build the digests were recorded on, every artifact's sha256
must match.  On another build (another Python, numpy, BLAS or BLAS core),
float rounding may differ, so the test compares what rounding cannot move:
each run's exit code and the names of the artifacts it wrote.  Either way
every recorded run is compared, and each mismatch is named.
"""

import json
import pathlib
import subprocess
import sys

_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _mismatches(want: dict, got: dict, same_build: bool) -> list[str]:
    out = [f"{name}: not run" for name in want if name not in got]
    out += [f"{name}: not recorded" for name in got if name not in want]
    for name in sorted(set(want) & set(got)):
        recorded, rerun = want[name], got[name]
        if not same_build:
            recorded = {"exit": recorded["exit"], "artifacts": sorted(recorded)}
            rerun = {"exit": rerun["exit"], "artifacts": sorted(rerun)}
        for key in sorted(set(recorded) | set(rerun)):
            if recorded.get(key) != rerun.get(key):
                out.append(f"{name}: {key} {recorded.get(key)!r} -> {rerun.get(key)!r}")
    return out


def test_golden_outputs_are_unchanged():
    want = json.loads((_GOLDEN / "digests.json").read_text())
    proc = subprocess.run([sys.executable, str(_GOLDEN / "runs.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert len(want["runs"]) >= 80
    same_build = got["build"] == want["build"]
    mismatches = _mismatches(want["runs"], got["runs"], same_build)
    assert not mismatches, (
        f"{len(mismatches)} golden mismatches "
        f"({'digests' if same_build else 'exit codes and artifact names only'}, "
        f"build {got['build']}):\n" + "\n".join(mismatches))


def test_mismatches_name_each_run_and_artifact():
    want = {"a": {"exit": 0, "stdout": "1"}, "b": {"exit": 2, "stderr": "2"}}
    got = {"a": {"exit": 0, "stdout": "9"}, "c": {"exit": 0}}
    assert _mismatches(want, got, same_build=True) == [
        "b: not run", "c: not recorded", "a: stdout '1' -> '9'"]
    assert _mismatches(want, got, same_build=False) == ["b: not run", "c: not recorded"]
    got["a"]["exit"] = 1
    assert _mismatches(want, got, same_build=False) == [
        "b: not run", "c: not recorded", "a: exit 0 -> 1"]
