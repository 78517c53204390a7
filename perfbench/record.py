"""Write perfbench/reference.json: report values and per-layer tables at the recorded seed.

usage (from the repository root): python3 perfbench/record.py

For every workload it runs the command untraced and traced at RECORDED_SEED
(the seed of the study scripts) exactly as `run.py --trace 1` does, and
stores the untraced report's values, which later runs at that seed must
match (workloads.RTOL, workloads.ATOL), together with the traced per-layer
table and the environment. An existing reference.json is checked against
first, so a run whose values moved refuses to overwrite it.
"""

from __future__ import annotations

import json
import sys
import time

import run
from workloads import ATOL, RTOL, WORKLOADS

RECORDED_SEED = 7


def main() -> int:
    out = {"recorded_seed": RECORDED_SEED, "tolerance": {"rtol": RTOL, "atol": ATOL},
           "environment": run.environment(), "reports": {}, "layers": {}}
    for w in WORKLOADS.values():
        bench = run.Bench(w, RECORDED_SEED, time.perf_counter() + 600.0)
        try:
            records, metrics, extra = run.trace(bench)
        finally:
            bench.cleanup()
        for r in records:
            for problem in r["problems"]:
                print(f"{w.name}: {problem}", file=sys.stderr)
        if not all(r["ok"] for r in records):
            return 1
        out["reports"][w.name] = records[0]["rows"]
        out["layers"][w.name] = {"untraced_run_s": extra["untraced_run_s"],
                                 "metrics": metrics,
                                 "layer_self_s": extra["layer_self_s"],
                                 "functions": extra["functions"]}
        print(f"{w.name}: recorded {len(records[0]['rows'])} rows, "
              f"traced run_s {metrics['trace.run_s']:.2f}")
    run.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
