"""The benchmark's workloads: INI generation from the seed, and the output check.

Each workload runs one `--command` of the public CLI on the config of one of
the study scripts. They are chosen to stress different layers:

- canonical_all: `all` on the scripts/canonical_solve.sh config. The only
  workload that runs the variational flow, the quadrature cross-check and the
  closed-form comparison; global polynomial regression dominates. Paths are
  lowered from 100k to 70k so that every run fits the benchmark's time
  budget; 70k still exceeds the 65,536-path regression block, so the blocked
  pairwise sums combine more than one block.
- sweep_cached: `truncate_sweep` with the oracle reference on the
  scripts/truncation_sweep.sh config, reading its ensemble from a
  QGBSDE_CACHE_DIR filled by a `simulate` set-up step. Many backward solves
  share one ensemble (7 for the sweep, 6 oracle re-solves), and the forward
  layer only reads the cache.
- regularity_local: `converge` on the scripts/regularity_study.sh config with
  the local (per-cell) basis of degree 1: the regression takes the bincount
  path instead of dense normal equations, the forward layer has its largest
  share, and no truncation runs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

LEVELS = (1, 2, 3, 4, 6, 8)
LADDER = (8, 16, 32, 64)

# report.csv values at the recorded seed must match the recorded ones to
# this tolerance: tight enough to catch a changed result, loose enough for a
# reordered sum or another BLAS kernel
RTOL = 1e-6
ATOL = 1e-12
# closed-form check at any seed, as in the acceptance test of the MC value
Y0_TOL = 1e-2
# the CLI's own margin for a non-increasing truncation error
SWEEP_MARGIN = 1.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    sections: dict
    cached: bool = False

    def ini(self, seed: int, n_paths: int | None = None) -> str:
        """INI text of the workload at the given seed, one worker."""
        lines = []
        for section, items in self.sections.items():
            lines.append(f"[{section}]")
            for key, value in items.items():
                if section == "mc" and key == "n_paths" and n_paths is not None:
                    value = n_paths
                lines.append(f"{key} = {value}")
            if section == "mc":
                lines.append(f"seed = {seed}")
                lines.append("workers = 1")
            lines.append("")
        return "\n".join(lines)

    def n_steps(self) -> int:
        return int(self.sections["grid"].get("n_steps", 64))

    def expected_rows(self) -> list[str]:
        n = self.n_steps()
        if self.command == "converge":
            keys = [row_key(s, N) for N in LADDER
                    for s in ("z_regularity_sum", "y_increment_sq", "y_increment_ratio")]
            return keys + [row_key("order_z_regularity", n), row_key("order_z_regularity_r2", n)]
        sweep = [row_key(s, n, lv) for lv in LEVELS for s in ("trunc_err_y", "trunc_err_z")]
        sweep += [row_key("trunc_reference_level", n), row_key("trunc_realized_max_z", n)]
        if self.command == "truncate_sweep":
            return sweep + [row_key("trunc_y0_abs_error_vs_oracle", n, lv) for lv in LEVELS]
        solve = ["y0", "z0", "y0_reference", "y0_abs_error", "z0_reference",
                 "z0_abs_error", "y0_quadrature", "z0_quadrature", "y0_vs_quadrature"]
        diagnose = ["y_increment_sq", "y_increment_ratio", "z_regularity_sum",
                    "z_regularity_node", "z_regularity_left_endpoint", "z_increment_sq",
                    "bmo_estimate", "bmo_plain", "bmo_bound_value",
                    "flow_identity_residual", "representation_rms", "representation_max"]
        return [row_key(s, n) for s in solve] + sweep + [row_key(s, n) for s in diagnose]


def row_key(statistic, N, n_trunc=None):
    return f"{statistic}|N={N}|n={'' if n_trunc is None else f'{n_trunc:g}'}"


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="canonical_all",
            why="north-star --command all: global regression, sweep, quadrature, "
                "variational flow and closed form on one cold ensemble",
            command="all",
            sections={
                "model": {"name": "quadratic", "gamma": "1.0", "terminal": "tanh"},
                "grid": {"n_steps": 64, "refine_factor": 4},
                "mc": {"n_paths": 70000},
                "solver": {"basis": "global_polynomial", "degree": 4},
                "truncation": {"level": "6.0",
                               "levels": " ".join(map(str, LEVELS))},
            }),
        Workload(
            name="sweep_cached",
            why="13 backward solves on one ensemble read from the cache: shared "
                "design and batched sweep show here, forward work is bypassed",
            command="truncate_sweep",
            sections={
                "model": {"name": "quadratic", "gamma": "1.0", "terminal": "tanh",
                          "kappa": "1.2"},
                "grid": {"n_steps": 32},
                "mc": {"n_paths": 50000},
                "solver": {"basis": "global_polynomial", "degree": 4},
                "truncation": {"levels": " ".join(map(str, LEVELS)),
                               "oracle_reference": "true"},
            },
            cached=True),
        Workload(
            name="regularity_local",
            why="mesh-ladder regularity study with the per-cell local basis: "
                "bincount regression, largest forward share, no truncation",
            command="converge",
            sections={
                "model": {"name": "brownian", "terminal": "tanh"},
                "grid": {"ladder": " ".join(map(str, LADDER)), "refine_factor": 4},
                "mc": {"n_paths": 100000},
                "solver": {"basis": "local_partition", "degree": 1},
            }),
    )
}


# ------------------------------------------------------------------ checks ---

def read_report(path) -> tuple[str, dict[str, float]]:
    """(body without the timestamp line, {row key: value}) of a report.csv."""
    with open(path, newline="") as fh:
        first = fh.readline()
        body = fh.read()
    if not first.startswith("# generated "):
        raise ValueError(f"{path}: first line is not the timestamp comment")
    rows = {}
    for row in csv.DictReader(body.splitlines()):
        key = row_key(row["statistic_name"], int(row["N"]),
                   float(row["n_trunc"]) if row["n_trunc"] else None)
        rows[key] = float(row["value"])
    return body, rows


def count_fail_verdicts(summary_text: str) -> int:
    return sum(line.startswith("FAIL:") for line in summary_text.splitlines())


def check_report(workload: Workload, rows: dict[str, float],
                 recorded: dict[str, float] | None) -> list[str]:
    """Problems with a run's report; empty when the output is correct.

    recorded holds the values recorded at this run's seed, if any.
    """
    problems = []
    for key in workload.expected_rows():
        if key not in rows:
            problems.append(f"missing row {key}")
        elif not math.isfinite(rows[key]):
            problems.append(f"non-finite row {key} = {rows[key]}")
    if problems:
        return problems
    for key, want in (recorded or {}).items():
        got = rows.get(key)
        if got is None or not math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
            problems.append(f"{key} = {got!r}, recorded {want!r}")
    n = workload.n_steps()
    if workload.command == "all":
        err = rows[row_key("y0_abs_error", n)]
        if err > Y0_TOL:
            problems.append(f"|y0 - closed form| = {err:.3e} > {Y0_TOL}")
    if workload.command == "truncate_sweep":
        err = rows[row_key("trunc_y0_abs_error_vs_oracle", n, LEVELS[-1])]
        if err > Y0_TOL:
            problems.append(f"|y0(n={LEVELS[-1]}) - closed form| = {err:.3e} > {Y0_TOL}")
    if workload.command in ("all", "truncate_sweep"):
        errs = [rows[row_key("trunc_err_y", n, lv)] for lv in LEVELS]
        if any(b > SWEEP_MARGIN * a for a, b in zip(errs, errs[1:])):
            problems.append(f"sweep err_y increases beyond the 10% margin: {errs}")
        max_z = rows[row_key("trunc_realized_max_z", n)]
        above = [e for lv, e in zip(LEVELS, errs) if lv >= max_z]
        if any(e != 0.0 for e in above):
            problems.append(f"sweep err_y not exactly 0 above realized max |Z| "
                            f"{max_z:.4f}: {above}")
    if workload.command == "converge":
        sums = [rows[row_key("z_regularity_sum", N)] for N in LADDER]
        if any(b >= a for a, b in zip(sums, sums[1:])):
            problems.append(f"z regularity sum does not decrease along the ladder: {sums}")
    return problems


def accuracy(workload: Workload, rows: dict[str, float]) -> dict[str, float]:
    """The accuracy figures the benchmark prints beside its timings."""
    n = workload.n_steps()
    if workload.command == "all":
        return {"y0_abs_error": rows[row_key("y0_abs_error", n)],
                "z0_abs_error": rows[row_key("z0_abs_error", n)]}
    if workload.command == "truncate_sweep":
        return {"y0_abs_error": rows[row_key("trunc_y0_abs_error_vs_oracle", n, LEVELS[-1])]}
    return {"order_z_regularity": rows[row_key("order_z_regularity", n)]}
