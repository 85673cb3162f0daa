"""Write the reference outputs that run.py compares pass 0 against.

    python3 benchmarks/make_reference.py

It writes every workload's seeds 0-4.  The committed files hold the
outputs of the commit that defined the benchmark.  Regenerating them
moves the yardstick: do it only when the workload inputs change, never
to make a changed program pass.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(5)


def main() -> int:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            inputs = workloads.make_inputs(workload, seed)
            p = workloads.run_pass(workload, inputs, seed)
            workloads.check_pass(workload, inputs, p, None)
            problems = [f"{r.key}: {m}" for r in p.results for m in r.problems]
            if problems:
                print(f"{workload} seed {seed} fails its invariants:", *problems, sep="\n  ")
                return 1
            ref = {"workload": workload, "seed": seed, "inputs": inputs,
                   "records": workloads.records(p)}
            path = checks.reference_path(workload, seed)
            path.write_text(json.dumps(ref, separators=(",", ":")) + "\n", encoding="utf-8")
            print(f"wrote {path.name}: {len(ref['records'])} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
