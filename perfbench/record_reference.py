"""Record perfbench/reference.json: the checked outputs on the default seed.

    python3 perfbench/record_reference.py

Runs, at full size on the default workload seed, each workload's warm-up
op and its first ops (ensemble 16, p2 8, window one cycle of nine
commands), and stores their output records.  ``run.py`` compares the same
ops against these records at the scalar-oracle tolerance.  Record it only
from a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

COUNTS = {"ensemble": 16, "p2": 8, "window": None}  # window: its one cycle


def main():
    run.use_checkout_sources()
    sys.path.insert(0, str(run.HERE))
    import workloads

    doc = {"seed": run.DEFAULT_SEED, "size": "full", "workloads": {}}
    cwd = os.getcwd()
    workdir = run.OUT / f"work-reference-{os.getpid()}"
    try:
        for name, count in COUNTS.items():
            wl = workloads.WORKLOADS[name](run.DEFAULT_SEED, smoke=False)
            run.fresh_workdir(workdir)
            wl.setup(".")
            outcomes = [run.execute(wl.warmup_op())]
            outcomes += [run.execute(op) for op in wl.ops(count)]
            bad = [o for o in outcomes if o.problems]
            if bad:
                raise SystemExit(f"{name}: op {bad[0].op.index} failed: {bad[0].problems}")
            doc["workloads"][name] = {
                "warmup": outcomes[0].record,
                "ops": [o.record for o in outcomes[1:]],
            }
            print(f"{name}: recorded warm-up + {len(outcomes) - 1} ops")
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
