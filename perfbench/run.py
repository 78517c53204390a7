"""qgbsde benchmark: three CLI workloads timed end to end, or traced per layer.

usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured command runs `qgbsde.cli.main` in a fresh Python process
(perfbench/child.py) on the sources under src/, with `workers = 1`, one BLAS
thread and QGBSDE_CACHE_DIR unset except for sweep_cached. The INI is
generated from --seed (see workloads.py). Each run's report.csv is checked;
a run that exits non-zero or fails the check counts as failed.

--trace 0 repeats the command until --seconds have passed (at least once)
and reports medians:

    run_s        entry to cli.main until its return, artifacts included
    setup_s      process spawn until the entry to cli.main (interpreter,
                 numpy/scipy/qgbsde imports); for sweep_cached plus the whole
                 `simulate` process that fills the cache. Sampled several
                 times per run.
    peak_rss_mb  ru_maxrss of the process that ran the command

--trace 1 runs the command once untraced and once with every public function
of the qgbsde layer modules wrapped (tracing.py), checks that both reports
have identical bodies, and reports per-layer call counts and self times. The
self times of all functions add up to the traced run_s; cli.main's self time
is what no other wrapped function covers.

The last line of stdout is the JSON result. Each result is also appended,
with the commit, nproc, library versions and the BLAS thread count, to
.perfbench_runs/results.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import LAYERS, layer_table  # noqa: E402
from workloads import (WORKLOADS, accuracy, check_report,  # noqa: E402
                       count_fail_verdicts, read_report)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
REFERENCE = HERE / "reference.json"

BLAS_THREADS = 1
SETUP_SAMPLES = 5  # extra set-up-only spawns per run; the measured runs add theirs
RUN_DEADLINE_S = 170.0  # the whole run, children included, ends before this

# per-layer metrics reported by --trace 1; times only for functions and
# layers that do work on every workload (a function a workload bypasses
# reads exactly 0 there; its time is in the printed table, not here)
_CALLS = ("regression.fit_step", "regression.step_bounds",
          "solver.solve_backward_regression", "solver.compute_zbar",
          "solver.project_window_average", "solver.solve_quadrature_1d",
          "truncation.smooth_clamp", "sde.simulate_variational",
          "variational.solve_variational_bsde", "variational.representation_check",
          "rng.normal_increments", "sde.simulate_forward", "sde.dump_ensemble",
          "sde.load_ensemble", "oracle.cole_hopf_from_model",
          "diagnostics.truncation_error_curve", "diagnostics.z_l2_regularity",
          "diagnostics.y_increment_stat", "diagnostics.bmo_estimate",
          "cli.get_ensemble")
_SELF = ("regression.fit_step", "regression.step_bounds",
         "solver.solve_backward_regression", "cli.get_ensemble", "cli.main")
_LAYER_SELF = ("sde", "regression", "solver", "diagnostics", "cli")
PER_LAYER = (
    [(f"{f}.calls", "count", "lower") for f in _CALLS]
    + [("regression.fit_step.cols_per_call", "count", "higher"),
       ("regression.fit_step.ms_per_call", "ms", "lower"),
       ("sde.simulate_forward.redundant", "count", "lower"),
       ("sde.dump_ensemble.bytes", "bytes", "lower"),
       ("sde.load_ensemble.bytes", "bytes", "lower")]
    + [(f"{f}.self_s", "s", "lower") for f in _SELF]
    + [(f"{layer}.self_s", "s", "lower") for layer in _LAYER_SELF]
    + [("trace.run_s", "s", "lower"), ("trace.overhead_s", "s", "lower"),
       ("trace.spans", "count", "lower")])
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Deadline(Exception):
    pass


class Bench:
    def __init__(self, workload, seed, deadline):
        self.w = workload
        self.seed = seed
        self.recorded = None  # report values recorded at this seed, if any
        if REFERENCE.exists():
            ref = json.loads(REFERENCE.read_text())
            if ref["recorded_seed"] == seed:
                self.recorded = ref["reports"][workload.name]
        self.deadline = deadline
        self.workdir = RUNS / f"work-{workload.name}-{seed}-{os.getpid()}"
        self.counter = 0
        self.env = dict(os.environ)
        self.env.pop("QGBSDE_CACHE_DIR", None)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PERFBENCH_SRC"] = str(SRC)

    def fresh_dir(self) -> Path:
        self.counter += 1
        d = self.workdir / f"{self.counter:03d}"
        d.mkdir(parents=True)
        (d / "run.ini").write_text(self.w.ini(self.seed))
        return d

    def spawn(self, d: Path, mode: str, cli_args=(), cache=None):
        """Run child.py; returns (spawn time, wall seconds, result dict or None)."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 1.0:
            raise Deadline("out of time before starting a process")
        env = dict(self.env)
        if cache is not None:
            env["QGBSDE_CACHE_DIR"] = str(cache)
        result_path = d / f"child-{mode}-{self.counter}-{time.monotonic_ns()}.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(result_path),
               "--", *cli_args]
        with open(d / "child.log", "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=d, env=env, stdout=log, stderr=log)
            try:
                rc = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise Deadline(f"{mode} process killed at the run deadline")
            wall = time.perf_counter() - t0
        if rc != 0 or not result_path.exists():
            tail = (d / "child.log").read_text(errors="replace")[-2000:]
            print(f"{mode} process exited {rc}:\n{tail}", file=sys.stderr)
            return t0, wall, None
        return t0, wall, json.loads(result_path.read_text())

    def fill_cache(self, d: Path):
        """The sweep's set-up step: `simulate` into a fresh cache directory."""
        cache = d / "cache"
        _, wall, res = self.spawn(d, "run", ["--config", "run.ini", "--command",
                                             "simulate", "--out", "simulate"], cache)
        if res is None:
            raise RuntimeError("the cache-filling simulate step failed")
        return cache, wall

    def setup_sample(self) -> float:
        d = self.fresh_dir()
        cache, extra = self.fill_cache(d) if self.w.cached else (None, 0.0)
        t0, _, res = self.spawn(d, "setup", cache=cache)
        if res is None:
            raise RuntimeError("the set-up process failed")
        return extra + res["entry"] - t0

    def command(self, mode: str):
        """Set up and run the workload's command once; returns a run record."""
        d = self.fresh_dir()
        cache, extra = self.fill_cache(d) if self.w.cached else (None, 0.0)
        t0, _, res = self.spawn(d, mode, ["--config", "run.ini", "--command",
                                          self.w.command, "--out", "out"], cache)
        rec = {"ok": False, "problems": []}
        if res is None:
            rec["problems"].append("command exited non-zero")
            return rec
        rec.update(setup_s=extra + res["entry"] - t0, run_s=res["exit"] - res["entry"],
                   run_cpu_s=res["cpu_exit"] - res["cpu_entry"],
                   peak_rss_mb=res["maxrss_kb"] / 1024.0, child=res)
        try:
            body, rows = read_report(d / "out" / "report.csv")
            rec["problems"] += check_report(self.w, rows, self.recorded)
            rec["body"] = body
            rec["rows"] = rows
            rec["checks_failed"] = count_fail_verdicts(
                (d / "out" / "summary.txt").read_text())
            if not rec["problems"]:
                rec["accuracy"] = accuracy(self.w, rows)
        except (OSError, ValueError, KeyError) as exc:
            rec["problems"].append(f"unreadable output: {exc}")
        rec["ok"] = not rec["problems"]
        return rec

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "blas_threads": BLAS_THREADS}


def measure(bench: Bench, seconds: float):
    """--trace 0: set-up samples, then whole commands until `seconds` pass."""
    records, setups = [], []
    for _ in range(SETUP_SAMPLES):
        setups.append(bench.setup_sample())
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        began = time.perf_counter()
        if records and began + 1.5 * last > bench.deadline:
            break
        records.append(bench.command("run"))
        last = time.perf_counter() - began
    timed = [r for r in records if "run_s" in r]
    setups += [r["setup_s"] for r in timed]
    metrics = {}
    if timed:
        metrics = {
            "run_s": statistics.median(r["run_s"] for r in timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
    extra = {"setup_samples": setups,
             "runs": [{k: r.get(k) for k in ("run_s", "run_cpu_s", "setup_s", "peak_rss_mb",
                                             "checks_failed", "accuracy", "problems")}
                      for r in records]}
    return records, metrics, extra


def trace(bench: Bench):
    """--trace 1: one untraced and one traced command at the same seed."""
    plain = bench.command("run")
    traced = bench.command("trace")
    records = [plain, traced]
    if not (plain["ok"] and traced["ok"]):
        return records, {}, {}
    child = traced["child"]
    spans = child["spans"]
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"spans-{bench.w.name}-{bench.seed}.json").write_text(json.dumps(spans))
    table = layer_table(spans)
    roots = [s for s in spans if s[3] < 0]
    if [s[0] for s in roots] != ["cli.main"]:
        traced["problems"].append(f"expected one root span cli.main, got "
                                  f"{[s[0] for s in roots]}")
        traced["ok"] = False
        return records, {}, {}
    run_s = roots[0][2] - roots[0][1]
    self_sum = sum(row["self_s"] for row in table.values())
    if abs(self_sum - run_s) > 1e-6 * max(1.0, run_s):
        traced["problems"].append(f"self times sum to {self_sum}, traced run_s {run_s}")
    if child["leftover_wrappers"]:
        traced["problems"].append(f"wrappers not restored: {child['leftover_wrappers']}")
    if plain["body"] != traced["body"]:
        traced["problems"].append("traced and untraced report.csv bodies differ")
    traced["ok"] = not traced["problems"]

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    counters = child["counters"]
    fit = row("regression.fit_step")
    metrics = {f"{f}.calls": row(f)["calls"] for f in _CALLS}
    metrics.update({
        "regression.fit_step.cols_per_call":
            counters.get("regression.fit_step.cols", 0) / max(fit["calls"], 1),
        "regression.fit_step.ms_per_call": 1e3 * fit["total_s"] / max(fit["calls"], 1),
        "sde.simulate_forward.redundant": counters.get("sde.simulate_forward.redundant", 0),
        "sde.dump_ensemble.bytes": counters.get("sde.dump_ensemble.bytes", 0),
        "sde.load_ensemble.bytes": counters.get("sde.load_ensemble.bytes", 0),
    })
    metrics.update({f"{f}.self_s": row(f)["self_s"] for f in _SELF})
    layer_self = {layer: sum(r["self_s"] for name, r in table.items()
                             if name.split(".")[0] == layer) for layer in LAYERS}
    metrics.update({f"{layer}.self_s": layer_self[layer] for layer in _LAYER_SELF})
    metrics.update({"trace.run_s": run_s, "trace.overhead_s": run_s - plain["run_s"],
                    "trace.spans": len(spans)})
    extra = {"untraced_run_s": plain["run_s"], "layer_self_s": layer_self,
             "functions": table}
    return records, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    if not (SRC / "qgbsde" / "cli.py").is_file():
        print(f"no qgbsde sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 63 or args.seconds <= 0:
        print("--seed must be in [0, 2**63) and --seconds positive", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    bench = Bench(w, args.seed, deadline)
    try:
        try:
            records, metrics, extra = (trace(bench) if args.trace
                                       else measure(bench, args.seconds))
        except (Deadline, RuntimeError) as exc:
            print(f"benchmark run aborted: {exc}", file=sys.stderr)
            return 1
    finally:
        bench.cleanup()

    failed = sum(not r["ok"] for r in records)
    checks = [r["checks_failed"] for r in records if "checks_failed" in r]
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(records),
              "failed": failed,
              "metrics": {}}
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        units = dict(END_TO_END)
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                         for name in units if name in metrics}

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}: "
          f"{len(records)} run(s), {failed} failed")
    for r in records:
        for problem in r["problems"]:
            print(f"  check failed: {problem}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']!r:>24} {m['unit']}")
    if not args.trace:
        acc = [r["accuracy"] for r in records if r.get("accuracy")]
        for name in (acc[0] if acc else {}):
            print(f"  {name:40s} {statistics.median(a[name] for a in acc)!r:>24} "
                  f"1 (dimensionless; median, not bounded)")
        print(f"  {'checks_failed':40s} {max(checks) if checks else 'n/a':>24} "
              f"count (FAIL verdicts in summary.txt)")
        print(f"  {'fail_ratio':40s} {failed / len(records):>24} ratio")
    else:
        for name, row in sorted(extra.get("functions", {}).items()):
            print(f"  layer {name:42s} calls {row['calls']:7d}  "
                  f"self {row['self_s']:10.4f} s  total {row['total_s']:10.4f} s")
    env = environment()
    print(f"environment: {json.dumps(env)}")
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": w.name, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                             "environment": env, "checks_failed": checks,
                             "result": result, **extra}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
