"""Golden outputs: every named run of ``tests/golden/runs.py`` leaves the
artifacts recorded in ``tests/golden/digests.json``.

The runs go through ``cli.main`` in one subprocess with BLAS pinned to one
thread, bounded to 30 s in all.  On the build the digests were recorded on,
every artifact's sha256 must match.  On another build (another Python,
numpy, BLAS or BLAS core), float rounding may differ, so the test compares
what rounding cannot move: each run's exit code and the names of the
artifacts it wrote.  On every build, the routes of each ``routes/<name>/``
group must leave one ``histogram.csv`` and one ``stdout`` digest, as
``block`` does.  Either way every recorded run is compared, and each
mismatch is named.
"""

import json
import pathlib
import subprocess
import sys

_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
#: What every route of a ``routes/<name>/`` group leaves as ``block`` does.
_ROUTE_ARTIFACTS = ("histogram.csv", "stdout")


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
    return out + _route_mismatches(got)


def _route_mismatches(runs: dict) -> list[str]:
    """Each route of a ``routes/<name>/`` group whose histogram or stdout
    differs from the group's ``block`` run, whatever the build."""
    groups: dict[str, dict] = {}
    for name in sorted(runs):
        if name.startswith("routes/"):
            group, _, route = name.rpartition("/")
            groups.setdefault(group, {})[route] = runs[name]
    out = []
    for group, routes in groups.items():
        block = routes.get("block", {})
        for route, rerun in routes.items():
            out += [f"{group}/{route}: {key} differs from {group}/block"
                    for key in _ROUTE_ARTIFACTS if rerun.get(key) != block.get(key)]
    return out


def test_golden_outputs_are_unchanged():
    want = json.loads((_GOLDEN / "digests.json").read_text())
    proc = subprocess.run([sys.executable, str(_GOLDEN / "runs.py")],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert len(want["runs"]) >= 100
    same_build = got["build"] == want["build"]
    mismatches = _mismatches(want["runs"], got["runs"], same_build)
    assert not mismatches, (
        f"{len(mismatches)} golden mismatches "
        f"({'digests' if same_build else 'exit codes, artifact names and route groups only'}, "
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


def test_route_mismatches_name_the_group_and_route_on_any_build():
    same = {"exit": 0, "histogram.csv": "h", "stdout": "s"}
    want = {f"routes/g/{route}": dict(same) for route in ("binary_power", "block", "flag_loop")}
    want["routes/h/block"] = dict(same)
    got = {name: dict(record) for name, record in want.items()}
    got["routes/g/flag_loop"]["histogram.csv"] = "x"
    assert _mismatches(want, got, same_build=True) == [
        "routes/g/flag_loop: histogram.csv 'h' -> 'x'",
        "routes/g/flag_loop: histogram.csv differs from routes/g/block"]
    assert _mismatches(want, got, same_build=False) == [
        "routes/g/flag_loop: histogram.csv differs from routes/g/block"]
    got["routes/g/block"]["stdout"] = "y"
    assert _mismatches(want, got, same_build=False) == [
        "routes/g/binary_power: stdout differs from routes/g/block",
        "routes/g/flag_loop: histogram.csv differs from routes/g/block",
        "routes/g/flag_loop: stdout differs from routes/g/block"]
