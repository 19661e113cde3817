"""Regenerate reference.json: every cell's final test metric and test loss
for every workload and pool index, from the current code.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Only regenerate on purpose (a deliberate change of results); the
references are the benchmark's correctness gate.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import WORK, Runner
import workloads


def main(names: list[str]) -> int:
    reference = {}
    if workloads.REFERENCE.exists():
        with open(workloads.REFERENCE) as f:
            reference = json.load(f)
    for name in names or sorted(workloads.WORKLOADS):
        per_index = {}
        for k in range(workloads.POOL_SIZE):
            runner = Runner(name, k, time.perf_counter())
            if runner.dir.exists():
                shutil.rmtree(runner.dir)
            runner.dir.mkdir(parents=True)
            runner.child("setup")
            rep = runner.child("sweep")
            if rep["error"] or rep["attempted"] != rep["expected_cells"]:
                raise SystemExit(f"{name} pool index {k}: {rep['error']}")
            per_index[str(k)] = rep["cells"]
            print(f"{name} {k}: {len(rep['cells'])} cells", file=sys.stderr)
        reference[name] = per_index
        shutil.rmtree(WORK / name, ignore_errors=True)
    with open(workloads.REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
