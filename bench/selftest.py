"""Self-test of the benchmark harness on tiny workloads.

Usage (from the repository root): python3 bench/selftest.py

Runs a tiny variant of each workload (``m_index`` 3, a few hundred trials)
through the same code as ``bench/run.py``, once untraced and once traced,
with a one-second window.  It checks that every metric named in
``BENCHMARK.json`` comes out with its unit, that the correctness gate passes,
that call counts repeat across the traced runs, and that both negative
controls fire.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import sys

import run


def check(record: dict, kind: str, spec: dict) -> list[str]:
    problems = []
    got = record[kind]
    for metric in spec[kind]:
        entry = got.get(metric["name"])
        if entry is None:
            problems.append(f"{kind} metric {metric['name']} missing")
        elif entry["unit"] != metric["unit"] or not isinstance(entry["value"], (int, float)):
            problems.append(f"{kind} metric {metric['name']} printed as {entry}")
    for name, fired in record["controls"].items():
        if not fired:
            problems.append(f"negative control {name} did not fire")
    problems.extend(record["failures"])
    return problems


def main() -> int:
    run.check_checkout()
    spec = run.load_spec()
    references = run.load_references()
    problems = []
    for workload in run.TINY.values():
        for trace in (False, True):
            record = run.run_workload(workload, seed=1, seconds=1.0, trace=trace,
                                      references=references, spec=spec)
            found = check(record, "end_to_end", spec)
            if trace:
                found += check(record, "per_layer", spec)
            status = "ok" if not found else "FAILED"
            print(f"{workload.name} trace={int(trace)}: {status}")
            problems += [f"{workload.name} trace={int(trace)}: {p}" for p in found]
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
