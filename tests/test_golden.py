"""Golden outputs: every named run of ``tests/golden/runs.py`` leaves the
artifacts recorded in ``tests/golden/digests.json``, on every build.

The runs go through ``cli.main`` in one subprocess with BLAS pinned to one
thread, bounded to 30 s in all.  Exit codes, artifact names, the histograms'
digests and every other artifact's digest with its numbers masked must
match exactly.  Each masked number b must lie within 1e-12 * max(1, |a|) of
its recorded a, the last digits another Python, numpy or BLAS kernel may
round.  The routes of each ``routes/<name>/`` group must leave one
histogram and one stdout, as ``block`` does.  Each mismatch is named.
"""

import json
import pathlib
import subprocess
import sys

_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
#: What every route of a ``routes/<name>/`` group leaves as ``block`` does.
_ROUTE_ARTIFACTS = ("histogram.csv", "stdout", "stdout numbers")
#: Relative tolerance of a masked number, absolute below 1.
NUMBER_TOL = 1e-12


def _mismatches(want: dict, got: dict) -> list[str]:
    out = [f"{name}: not run" for name in want if name not in got]
    out += [f"{name}: not recorded" for name in got if name not in want]
    for name in sorted(set(want) & set(got)):
        for key in sorted(set(want[name]) | set(got[name])):
            a, b = want[name].get(key), got[name].get(key)
            if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
                out += [f"{name}: {key}[{i}] {x!r} -> {y!r}" for i, (x, y) in enumerate(zip(a, b))
                        if not (x == y or abs(x - y) <= NUMBER_TOL * max(1.0, abs(x)))]
            elif a != b:
                out.append(f"{name}: {key} {a!r} -> {b!r}")
    return out + _route_mismatches(got)


def _route_mismatches(runs: dict) -> list[str]:
    """Each route of a ``routes/<name>/`` group whose histogram or stdout
    differs from the group's ``block`` run."""
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
    mismatches = _mismatches(want["runs"], got["runs"])
    assert not mismatches, (
        f"{len(mismatches)} golden mismatches (recorded on {want['build']}, "
        f"rerun on {got['build']}):\n" + "\n".join(mismatches))


def test_numbers_are_compared_to_the_tolerance_and_the_rest_exactly():
    """A run whose ``result.json`` holds ``eigenvector_fidelity`` and an
    energy.  Rounding within the tolerance passes.  1e-10 added to the
    fidelity fails, named by run, artifact, position and both values; no
    build record is read, so that holds on every build.  A change of the
    masked text or of how many numbers an artifact has is named."""
    want = {"a": {"exit": 0, "result.json": "m",
                  "result.json numbers": [0.9970603927060515, -1.25]}}
    for numbers, named in (
            ([0.9970603927060524, -1.2500000000009], []),
            ([0.9970603927060515 + 1e-10, -1.25],
             ["a: result.json numbers[0] 0.9970603927060515 -> 0.9970603928060515"]),
            ([0.9970603927060515], ["a: result.json numbers [0.9970603927060515, -1.25] -> "
                                    "[0.9970603927060515]"])):
        assert _mismatches(want, {"a": {**want["a"], "result.json numbers": numbers}}) == named
    assert _mismatches(want, {"a": {**want["a"], "result.json": "n"}}) == [
        "a: result.json 'm' -> 'n'"]


def test_mismatches_name_each_run_and_artifact():
    want = {"a": {"exit": 0, "stdout": "1"}, "b": {"exit": 2, "stderr": "2"}}
    got = {"a": {"exit": 1, "stdout": "9"}, "c": {"exit": 0}}
    assert _mismatches(want, got) == [
        "b: not run", "c: not recorded", "a: exit 0 -> 1", "a: stdout '1' -> '9'"]


def test_route_mismatches_name_the_group_and_route():
    same = {"exit": 0, "histogram.csv": "h", "stdout": "s", "stdout numbers": [0.5]}
    want = {f"routes/g/{route}": dict(same) for route in ("binary_power", "block", "flag_loop")}
    want["routes/h/block"] = dict(same)
    got = {name: dict(record) for name, record in want.items()}
    got["routes/g/flag_loop"]["histogram.csv"] = "x"
    assert _mismatches(want, got) == [
        "routes/g/flag_loop: histogram.csv 'h' -> 'x'",
        "routes/g/flag_loop: histogram.csv differs from routes/g/block"]
    got["routes/g/block"]["stdout numbers"] = [0.5 + 1e-15]
    assert _route_mismatches(got) == [
        "routes/g/binary_power: stdout numbers differs from routes/g/block",
        "routes/g/flag_loop: histogram.csv differs from routes/g/block",
        "routes/g/flag_loop: stdout numbers differs from routes/g/block"]
