"""Self-test of the benchmark at a small path count.

usage (from the repository root): python3 perfbench/selftest.py

For each workload, in this process, on the sources under src/, at 4,000
paths:

- cli.main runs untraced and then traced; the two report.csv bodies
  (timestamp line excluded) must be byte-identical;
- every function the workload is meant to exercise records at least one call,
  and the self times add up to the traced cli.main span;
- after the traced run no qgbsde namespace still holds a wrapper.

It also checks that BENCHMARK.json names exactly the workloads and metrics
run.py reports, and that the output check accepts the recorded report and
rejects one whose value moved. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import Tracer, layer_table, leftover_wrappers  # noqa: E402
from workloads import WORKLOADS, row_key, check_report, read_report  # noqa: E402

N_PATHS = 4000
SEED = 11

_SOLVE = ("cli.main", "cli.get_ensemble", "regression.fit_step",
          "regression.step_bounds", "solver.solve_backward_regression")
EXERCISED = {
    "canonical_all": _SOLVE + (
        "rng.normal_increments", "sde.simulate_forward", "sde.simulate_variational",
        "truncation.smooth_clamp", "solver.compute_zbar",
        "solver.project_window_average", "solver.solve_quadrature_1d",
        "variational.solve_variational_bsde", "variational.representation_check",
        "oracle.cole_hopf_from_model", "diagnostics.truncation_error_curve",
        "diagnostics.z_l2_regularity", "diagnostics.y_increment_stat",
        "diagnostics.bmo_estimate"),
    "sweep_cached": _SOLVE + (
        "sde.load_ensemble", "truncation.smooth_clamp", "oracle.cole_hopf_from_model",
        "diagnostics.truncation_error_curve"),
    "regularity_local": _SOLVE + (
        "rng.normal_increments", "sde.simulate_forward", "solver.project_window_average",
        "diagnostics.z_l2_regularity", "diagnostics.y_increment_stat"),
}
# the sweep's set-up step, traced on its own
SWEEP_SETUP = ("cli.main", "cli.get_ensemble", "rng.normal_increments",
               "sde.simulate_forward", "sde.dump_ensemble")


def traced_call(cli, argv):
    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(argv)
    finally:
        tracer.uninstall()
    return rc, tracer


def check_trace(label, tracer, expected, problems):
    table = layer_table(tracer.spans)
    for name in expected:
        if table.get(name, {}).get("calls", 0) < 1:
            problems.append(f"{label}: {name} recorded no call")
    roots = [s for s in tracer.spans if s[3] < 0]
    if [s[0] for s in roots] != ["cli.main"]:
        problems.append(f"{label}: root spans {[s[0] for s in roots]}")
    else:
        total = roots[0][2] - roots[0][1]
        self_sum = sum(r["self_s"] for r in table.values())
        if abs(self_sum - total) > 1e-6 * max(1.0, total):
            problems.append(f"{label}: self times sum to {self_sum}, root {total}")
    # layer_table's inclusive times assume no function is nested in itself
    for name, _, _, parent in tracer.spans:
        while parent >= 0 and tracer.spans[parent][0] != name:
            parent = tracer.spans[parent][3]
        if parent >= 0:
            problems.append(f"{label}: {name} is nested in itself")
            break
    left = leftover_wrappers()
    if left:
        problems.append(f"{label}: wrappers left after uninstall: {left}")


def check_workload(cli, w, workdir, problems):
    d = workdir / w.name
    d.mkdir(parents=True)
    (d / "run.ini").write_text(w.ini(SEED, n_paths=N_PATHS))
    os.environ.pop("QGBSDE_CACHE_DIR", None)
    if w.cached:
        os.environ["QGBSDE_CACHE_DIR"] = str(d / "cache")
        rc, tracer = traced_call(cli, ["--config", str(d / "run.ini"), "--command",
                                       "simulate", "--out", str(d / "simulate")])
        if rc != 0:
            problems.append(f"{w.name}: simulate set-up exited {rc}")
        check_trace(f"{w.name} set-up", tracer, SWEEP_SETUP, problems)
    bodies = []
    for traced in (False, True):
        out = d / ("traced" if traced else "plain")
        argv = ["--config", str(d / "run.ini"), "--command", w.command, "--out", str(out)]
        if traced:
            rc, tracer = traced_call(cli, argv)
            check_trace(w.name, tracer, EXERCISED[w.name], problems)
        else:
            rc = cli.main(argv)
        if rc != 0:
            problems.append(f"{w.name}: {'traced' if traced else 'untraced'} run exited {rc}")
            return
        body, rows = read_report(out / "report.csv")
        missing = [k for k in w.expected_rows() if k not in rows]
        if missing:
            problems.append(f"{w.name}: rows missing at {N_PATHS} paths: {missing}")
        bodies.append(body)
    if bodies[0] != bodies[1]:
        problems.append(f"{w.name}: traced and untraced report bodies differ")
    os.environ.pop("QGBSDE_CACHE_DIR", None)


def check_spec(problems):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if sorted(x["name"] for x in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != list(run.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")


def check_checker(problems):
    """The output check passes the recorded rows and catches a moved value."""
    ref = json.loads(run.REFERENCE.read_text())
    for name, rows in ref["reports"].items():
        w = WORKLOADS[name]
        if check_report(w, rows, rows):
            problems.append(f"{name}: output check rejects the recorded report")
        moved = dict(rows)
        key = row_key("trunc_realized_max_z" if w.command != "converge"
                   else "order_z_regularity", w.n_steps())
        moved[key] *= 1.0 + 1e-4
        if not check_report(w, moved, rows):
            problems.append(f"{name}: output check misses a value moved by 1e-4")
        missing = {k: v for k, v in rows.items() if k != w.expected_rows()[0]}
        if not check_report(w, missing, None):
            problems.append(f"{name}: output check misses a missing row")


def main() -> int:
    import qgbsde.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"qgbsde imported from {cli.__file__}, not from src/", file=sys.stderr)
        return 2
    problems = []
    check_spec(problems)
    check_checker(problems)
    workdir = run.RUNS / f"selftest-{os.getpid()}"
    saved_cache = os.environ.get("QGBSDE_CACHE_DIR")
    try:
        for w in WORKLOADS.values():
            check_workload(cli, w, workdir, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.environ.pop("QGBSDE_CACHE_DIR", None)
        if saved_cache is not None:
            os.environ["QGBSDE_CACHE_DIR"] = saved_cache
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
