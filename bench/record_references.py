"""Record the correctness-gate references from the current checkout.

Usage (from the repository root): python3 bench/record_references.py

For every sampling workload in ``bench/run.py`` (full and tiny variants) and
every CLI seed ``0 .. REFERENCE_SEEDS-1`` it runs the command once and stores
the per-bin counts and the peak-bin list in ``bench/references.json``, with
the workload config they belong to.  Run it only on a commit whose outputs are
known to be right: the committed file was recorded at the commit that added
the benchmark, and the CLI promises byte-identical outputs for a fixed config.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.check_checkout()
    env = run.child_env()
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR))
    references = {}
    try:
        for workload in [*run.WORKLOADS.values(), *run.TINY.values()]:
            if not workload.sampling:
                continue
            seeds = {}
            stem = workdir / "ref"
            for seed, config in run.write_configs(workload, workdir).items():
                run.clear_outputs(stem)
                child = run.spawn([sys.executable, "-m", "spectral_qpe",
                                   *run.cli_argv(workload, config, stem)], env, workdir)
                if child.exit_code != 0:
                    print(f"{workload.name} seed {seed}: exit {child.exit_code}\n"
                          f"{child.stderr}", file=sys.stderr)
                    return 1
                seeds[str(seed)] = run.read_outputs(stem)
            distinct = {json.dumps(v, sort_keys=True) for v in seeds.values()}
            if len(distinct) != len(seeds):
                print(f"{workload.name}: two seeds give the same outputs, so a "
                      "wrong-seed reference would not be caught", file=sys.stderr)
                return 1
            references[workload.name] = {"config": workload.config, "seeds": seeds}
            print(f"recorded {workload.name}: {len(seeds)} seeds")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(references, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
