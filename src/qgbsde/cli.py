"""Experiment driver.

Runs are described by an INI file (sections [model], [grid], [mc], [solver],
[truncation], [outputs]) plus a command selecting what to compute:

    simulate        forward paths only, dumped to ensemble.bin
    solve           one backward solve, checked against available references
    converge        path-regularity refinement study over the grid ladder
    truncate_sweep  truncation-error curve over the configured levels
    diagnose        full statistics battery at one grid size
    all             solve + truncate_sweep (when applicable) + diagnose

Every run writes the same artifact set into the output directory:

    report.csv           one statistic per row, timestamp comment line first
    summary.txt          the same numbers, human readable, with pass/fail lines
    config_resolved.ini  every effective setting made explicit
    ensemble.bin         the simulated paths (simulate, or write_ensemble = true)

Exit codes: 0 success, 1 numerical failure during the run, 2 configuration
error. With --strict, runs that produced warnings also exit 1.

Forward ensembles are cached under $QGBSDE_CACHE_DIR (if set), so repeated
backward experiments on the same paths skip the simulation. The key covers
everything that determines the paths: the model preset and all of its
parameters, x0, the horizon, the time grid, the path count, the seed and a
cache format version.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime
import hashlib
import math
import os
import sys
from pathlib import Path

import numpy as np

from .diagnostics import (bmo_estimate, effective_qbar, fit_convergence_order,
                          truncation_error_curve, y_increment_stat,
                          z_increment_stat, z_l2_regularity)
from .errors import (ConfigError, DomainTooSmall, InvalidParameters, QgbsdeError,
                     QuadratureUnstable)
from .model import PRESETS, ModelSpec, Partition
from .oracle import bmo_bound, cole_hopf_from_model, cole_hopf_increment_stat
from .regression import RegressionBasis
from .sde import (PathEnsemble, dump_ensemble, flow_identity_residual,
                  load_ensemble, simulate_forward, simulate_variational)
from .solver import (compute_zbar, solve_backward_regression,
                     solve_quadrature_1d)
from .truncation import truncate_driver
from .variational import representation_check, solve_variational_bsde

COMMANDS = ("simulate", "solve", "converge", "truncate_sweep", "diagnose", "all")

_SECTIONS = {
    "model": {"name", "gamma", "terminal", "kappa", "sigma", "x0", "horizon",
              "rate", "mu", "vol"},
    "grid": {"n_steps", "refine_factor", "ladder"},
    "mc": {"n_paths", "seed", "workers"},
    "solver": {"basis", "degree", "cells_per_dim", "picard_iters", "clamp",
               "space_nodes", "gh_nodes", "space_bound"},
    "truncation": {"level", "levels", "reference_level", "oracle_reference"},
    "outputs": {"directory", "experiment_id", "write_ensemble"},
}

_PRESET_KEYS = {
    "brownian": {"x0", "horizon", "terminal", "kappa"},
    "discount": {"rate", "x0", "horizon"},
    "gbm": {"mu", "vol", "x0", "horizon"},
    "quadratic": {"gamma", "terminal", "kappa", "sigma", "x0", "horizon", "rate"},
}

_STR_KEYS = {"terminal"}


# ---------------------------------------------------------------- config ---

def _load_config(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            cfg.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    for sec in cfg.sections():
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown section [{sec}] "
                              f"(known: {', '.join(sorted(_SECTIONS))})")
        extra = set(cfg[sec]) - _SECTIONS[sec]
        if extra:
            raise ConfigError(f"unknown keys in [{sec}]: {', '.join(sorted(extra))}")
    return cfg


def _get(cfg, sec, key, cast, default):
    raw = cfg.get(sec, key, fallback=None)
    if raw is None or raw.strip() == "":
        return default
    try:
        if cast is bool:
            return cfg.getboolean(sec, key)
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{sec}] {key}: cannot parse {raw!r} as {cast.__name__}") from exc


def _get_list(cfg, sec, key, cast, default):
    raw = cfg.get(sec, key, fallback=None)
    if raw is None or raw.strip() == "":
        return list(default)
    try:
        return [cast(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"[{sec}] {key}: cannot parse list {raw!r}") from exc


def _build_model(cfg) -> ModelSpec:
    name = _get(cfg, "model", "name", str, "quadratic")
    if name not in PRESETS:
        raise ConfigError(f"[model] name: unknown model {name!r} "
                          f"(known: {', '.join(sorted(PRESETS))})")
    kwargs = {}
    for key in _PRESET_KEYS[name]:
        cast = str if key in _STR_KEYS else float
        val = _get(cfg, "model", key, cast, None)
        if val is not None:
            kwargs[key] = val
    stray = [k for k in (set(cfg["model"]) - {"name"} if cfg.has_section("model") else set())
             if k not in _PRESET_KEYS[name]]
    if stray:
        raise ConfigError(f"[model] keys {sorted(stray)} do not apply to {name!r}")
    try:
        return PRESETS[name](**kwargs)
    except QgbsdeError as exc:
        raise ConfigError(f"[model]: {exc}") from exc


def _build_basis(cfg) -> RegressionBasis:
    kind = _get(cfg, "solver", "basis", str, "global_polynomial")
    try:
        return RegressionBasis(
            kind=kind,
            degree=_get(cfg, "solver", "degree", int, 4),
            cells_per_dim=_get(cfg, "solver", "cells_per_dim", int, 50),
        )
    except QgbsdeError as exc:
        raise ConfigError(f"[solver]: {exc}") from exc


class RunContext:
    """Resolved settings plus accumulators for rows and warnings."""

    def __init__(self, cfg, args):
        self.model = _build_model(cfg)
        self.basis = _build_basis(cfg)
        self.n_steps = _get(cfg, "grid", "n_steps", int, 64)
        self.refine_factor = _get(cfg, "grid", "refine_factor", int, 4)
        self.ladder = _get_list(cfg, "grid", "ladder", int, (8, 16, 32, 64))
        self.n_paths = _get(cfg, "mc", "n_paths", int, 100_000)
        self.seed = args.seed if args.seed is not None else _get(cfg, "mc", "seed", int, 7)
        self.workers = (args.workers if args.workers is not None
                        else _get(cfg, "mc", "workers", int, 1))
        self.picard_iters = _get(cfg, "solver", "picard_iters", int, 3)
        self.clamp = _get(cfg, "solver", "clamp", bool, False)
        self.space_nodes = _get(cfg, "solver", "space_nodes", int, 128)
        self.gh_nodes = _get(cfg, "solver", "gh_nodes", int, 64)
        self.space_bound = _get(cfg, "solver", "space_bound", float, None)
        self.trunc_level = _get(cfg, "truncation", "level", float, 10.0)
        self.trunc_levels = _get_list(cfg, "truncation", "levels", float,
                                      (1.0, 2.0, 3.0, 4.0, 6.0, 8.0))
        self.reference_level = _get(cfg, "truncation", "reference_level", float, None)
        self.oracle_reference = _get(cfg, "truncation", "oracle_reference", bool, False)
        out = args.out if args.out is not None else _get(
            cfg, "outputs", "directory", str, "qgbsde_out")
        self.out_dir = Path(out)
        self.experiment_id = _get(cfg, "outputs", "experiment_id", str, "") or None
        self.write_ensemble = _get(cfg, "outputs", "write_ensemble", bool, False)
        if self.n_steps < 1:
            raise ConfigError(f"[grid] n_steps must be positive, got {self.n_steps}")
        if self.n_paths < 100:
            raise ConfigError(f"[mc] n_paths must be at least 100, got {self.n_paths}")
        if self.refine_factor < 2:
            raise ConfigError(f"[grid] refine_factor must be >= 2, got {self.refine_factor}")
        if any(n < 1 for n in self.ladder) or sorted(set(self.ladder)) != self.ladder:
            raise ConfigError(f"[grid] ladder must be strictly increasing positive "
                              f"integers, got {self.ladder}")
        if (any(n <= 0 for n in self.trunc_levels)
                or sorted(set(self.trunc_levels)) != self.trunc_levels):
            raise ConfigError(f"[truncation] levels must be strictly increasing "
                              f"and positive, got {self.trunc_levels}")
        if self.picard_iters < 1:
            raise ConfigError(f"[solver] picard_iters must be >= 1, got {self.picard_iters}")
        self.rows = []
        self.summary = []
        self.warnings = []

    def solver_model(self) -> ModelSpec:
        """The model actually handed to the backward solvers: quadratic-growth
        drivers get the configured truncation level applied."""
        if self.model.driver_z_lipschitz is None:
            return truncate_driver(self.model, self.trunc_level)
        return self.model

    def y_clamp_for(self, model, ensemble) -> float | None:
        """A-priori sup bound for Y when the clamp flag is on.

        exp(M T) (sup|xi| + M T) with the terminal sup taken empirically over
        the simulated paths; for M = 0 this degrades to the exact martingale
        bound sup|xi|.
        """
        if not self.clamp:
            return None
        xi = float(np.abs(np.asarray(model.g(ensemble.states[:, -1]))).max())
        M = model.growth_M
        return math.exp(M * model.T) * (xi + M * model.T)

    def add(self, statistic_name, value, std_error=None, n_trunc=None,
            n_steps=None, n_paths=None):
        self.rows.append({
            "experiment_id": self.experiment_id,
            "model": self.model.name,
            "N": self.n_steps if n_steps is None else n_steps,
            "P": self.n_paths if n_paths is None else n_paths,
            "seed": self.seed,
            "n_trunc": "" if n_trunc is None else f"{n_trunc:g}",
            "statistic_name": statistic_name,
            "value": repr(float(value)),
            "std_error": "" if std_error is None else repr(float(std_error)),
        })

    def note(self, line):
        self.summary.append(line)

    def check(self, label, ok):
        self.summary.append(f"{'pass' if ok else 'FAIL'}: {label}")
        if not ok:
            self.warnings.append(f"check failed: {label}")

    def warn(self, line):
        self.warnings.append(line)
        self.summary.append(f"WARNING: {line}")


# ------------------------------------------------------------- ensembles ---

# bump when the ensemble file format or the simulation scheme changes
_CACHE_FORMAT = 2


def _cache_key(model, partition, n_paths, seed):
    """Hash of everything that determines a simulated ensemble: the preset
    and every parameter in model.meta, x0, T, the time grid, P and the seed,
    plus the cache format version."""
    h = hashlib.sha256()
    h.update(f"qgbsde-ensemble|{_CACHE_FORMAT}|".encode())
    h.update(repr(sorted(model.meta.items())).encode())
    h.update(np.ascontiguousarray(model.x0, dtype="<f8").tobytes())
    h.update(repr(float(model.T)).encode())
    h.update(np.ascontiguousarray(partition.times, dtype="<f8").tobytes())
    h.update(f"|{n_paths}|{seed}".encode())
    return h.hexdigest()[:16]


def get_ensemble(ctx: RunContext, partition: Partition, n_paths=None, seed=None):
    n_paths = ctx.n_paths if n_paths is None else n_paths
    seed = ctx.seed if seed is None else seed
    cache_dir = os.environ.get("QGBSDE_CACHE_DIR")
    cache_path = None
    if cache_dir:
        cache_path = Path(cache_dir) / (
            f"ens_{_cache_key(ctx.model, partition, n_paths, seed)}.bin")
        if cache_path.exists():
            try:
                ens = load_ensemble(cache_path)
                if ens.seed == seed and ens.n_paths == n_paths:
                    return ens
            except QgbsdeError:
                pass  # stale or foreign file, fall through and rebuild
    ens = simulate_forward(ctx.model, partition, n_paths, seed, workers=ctx.workers)
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        dump_ensemble(ens, cache_path)
    return ens


def _coarse_fine_pair(ctx: RunContext, n_steps: int):
    """Fine ensemble at refine_factor x n_steps plus its coarse restriction.

    The coarse ensemble reuses the fine states at the shared nodes and the
    window-summed increments, so both solves see the same Brownian path and
    the regularity statistics compare like with like.
    """
    coarse = Partition.uniform(ctx.model.T, n_steps)
    fine = coarse.refine(ctx.refine_factor)
    ens_f = get_ensemble(ctx, fine)
    idx = np.arange(n_steps + 1) * ctx.refine_factor
    inc_c = np.add.reduceat(ens_f.increments, idx[:-1], axis=1)
    ens_c = PathEnsemble(partition=coarse, seed=ens_f.seed, increments=inc_c,
                         states=ens_f.states[:, idx])
    return ens_c, ens_f


# --------------------------------------------------------------- commands ---

def _oracle_rows(ctx: RunContext, y0, z0):
    """Compare the solved (Y_0, Z_0) against whatever closed form the model has."""
    preset = ctx.model.meta.get("preset")
    if preset == "quadratic" and ctx.model.meta.get("rate", 0.0) == 0.0:
        try:
            ref = cole_hopf_from_model(ctx.model)
        except QgbsdeError as exc:
            ctx.warn(f"oracle unavailable: {exc}")
            return
        ctx.add("y0_reference", ref.y0)
        ctx.add("y0_abs_error", abs(y0 - ref.y0))
        if ref.z0 is not None:
            ctx.add("z0_reference", ref.z0)
            ctx.add("z0_abs_error", abs(z0 - ref.z0))
        ctx.note(f"reference y0 = {ref.y0!r} (quadrature estimate "
                 f"{ref.error_estimate:.2e}), |error| = {abs(y0 - ref.y0):.3e}")
    elif preset == "brownian" and ctx.model.meta.get("terminal") == "identity":
        x0 = float(ctx.model.x0[0])
        ctx.add("y0_reference", x0)
        ctx.add("y0_abs_error", abs(y0 - x0))
        ctx.add("z0_reference", 1.0)
        ctx.add("z0_abs_error", abs(z0 - 1.0))
    elif preset == "discount":
        ref = math.exp(-ctx.model.meta["rate"] * ctx.model.T)
        ctx.add("y0_reference", ref)
        ctx.add("y0_abs_error", abs(y0 - ref))
    elif preset == "gbm":
        ref = float(ctx.model.x0[0]) * math.exp(ctx.model.meta["mu"] * ctx.model.T)
        ctx.add("y0_reference", ref)
        ctx.add("y0_abs_error", abs(y0 - ref))


def cmd_simulate(ctx: RunContext):
    part = Partition.uniform(ctx.model.T, ctx.n_steps)
    ens = get_ensemble(ctx, part)
    xt = ens.states[:, -1]
    sqrt_p = math.sqrt(ens.n_paths)
    for k in range(ctx.model.m):
        suffix = "" if ctx.model.m == 1 else f"_{k}"
        ctx.add(f"x_terminal_mean{suffix}", xt[:, k].mean(),
                std_error=xt[:, k].std(ddof=1) / sqrt_p)
        ctx.add(f"x_terminal_sq_mean{suffix}", (xt[:, k] ** 2).mean(),
                std_error=(xt[:, k] ** 2).std(ddof=1) / sqrt_p)
    ctx.add("x_max_abs", np.abs(ens.states).max())
    ctx.note(f"simulated {ens.n_paths} paths on {part.n_steps} steps, "
             f"E[X_T] = {xt.mean(axis=0)}")
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    dump_ensemble(ens, ctx.out_dir / "ensemble.bin")
    ctx.note("wrote ensemble.bin")
    return ens


def cmd_solve(ctx: RunContext):
    part = Partition.uniform(ctx.model.T, ctx.n_steps)
    ens = get_ensemble(ctx, part)
    model = ctx.solver_model()
    if model is not ctx.model:
        ctx.note(f"driver truncated at level {ctx.trunc_level:g}")
    sol = solve_backward_regression(model, ens, ctx.basis,
                                    picard_iters=ctx.picard_iters,
                                    y_clamp=ctx.y_clamp_for(model, ens))
    y0 = sol.y0
    z0 = float(sol.z0[0]) if ctx.model.d == 1 else None
    ctx.add("y0", y0)
    for k in range(ctx.model.d):
        suffix = "" if ctx.model.d == 1 else f"_{k}"
        ctx.add(f"z0{suffix}", sol.z0[k])
    ctx.note(f"solved: y0 = {y0!r}, z0 = {np.array2string(sol.z0, precision=8)}")
    _oracle_rows(ctx, y0, z0)
    if ctx.model.m == 1 and ctx.model.d == 1:
        try:
            qy, qz = solve_quadrature_1d(model, part, space_nodes=ctx.space_nodes,
                                         space_bound=ctx.space_bound,
                                         gh_nodes=ctx.gh_nodes,
                                         picard_iters=ctx.picard_iters)
            ctx.add("y0_quadrature", qy)
            ctx.add("z0_quadrature", qz)
            ctx.add("y0_vs_quadrature", abs(y0 - qy))
            ctx.note(f"quadrature on the same grid: y0 = {qy!r}, "
                     f"|MC - quadrature| = {abs(y0 - qy):.3e}")
        except DomainTooSmall as exc:
            ctx.warn(f"quadrature cross-check skipped: {exc}")
    if ctx.write_ensemble:
        ctx.out_dir.mkdir(parents=True, exist_ok=True)
        dump_ensemble(ens, ctx.out_dir / "ensemble.bin")
        ctx.note("wrote ensemble.bin")
    return sol


def cmd_converge(ctx: RunContext):
    """Path-regularity refinement study over the grid ladder.

    For each N the fine solve sits at refine_factor x N; reported are the
    Z regularity sum (window projection), the Y increment statistic, and the
    fitted order of the regularity sum in the mesh. Where the closed-form
    oracle applies, the Y increment statistic is checked against the exact
    solution's own value; elsewhere its ratios to the mesh are noted.
    """
    model = ctx.solver_model()
    if model is not ctx.model:
        ctx.note(f"driver truncated at level {ctx.trunc_level:g}")
    meshes, zsums, ystats, grids = [], [], [], []
    for n in ctx.ladder:
        ens_c, ens_f = _coarse_fine_pair(ctx, n)
        sol_c = solve_backward_regression(model, ens_c, ctx.basis,
                                          picard_iters=ctx.picard_iters,
                                          y_clamp=ctx.y_clamp_for(model, ens_c))
        sol_f = solve_backward_regression(model, ens_f, ctx.basis,
                                          picard_iters=ctx.picard_iters,
                                          y_clamp=ctx.y_clamp_for(model, ens_f))
        mesh = ens_c.partition.mesh
        zsum = z_l2_regularity(sol_c, sol_f, ensemble=ens_f, basis=ctx.basis,
                               projection="window")
        ystat = y_increment_stat(sol_c, sol_f)
        ratio = ystat / mesh
        ctx.add("z_regularity_sum", zsum, n_steps=n)
        ctx.add("y_increment_sq", ystat, n_steps=n)
        ctx.add("y_increment_ratio", ratio, n_steps=n)
        ctx.note(f"N = {n:4d}: z regularity sum = {zsum:.6e}, "
                 f"y increment ratio = {ratio:.4f}")
        meshes.append(mesh)
        zsums.append(zsum)
        ystats.append(ystat)
        grids.append((ens_c.partition, ens_f.partition))
    try:
        fit = fit_convergence_order(meshes, zsums)
        ctx.add("order_z_regularity", fit.slope)
        ctx.add("order_z_regularity_r2", fit.r_squared)
        ctx.note(f"z regularity order in the mesh: {fit.slope:.3f} "
                 f"(r^2 = {fit.r_squared:.3f})")
        ctx.check("z regularity sum decays with slope >= 0.8, r^2 >= 0.9",
                  fit.slope >= 0.8 and fit.r_squared >= 0.9)
    except QgbsdeError as exc:
        ctx.warn(f"order fit failed: {exc}")
    # E(Y_t - Y_ti)^2 <= C mesh holds with a model-dependent C, so the band
    # is asserted only where the closed form gives this model's own statistic
    try:
        exact = [cole_hopf_increment_stat(ctx.model, *grid) for grid in grids]
    except InvalidParameters:  # no closed form for this model
        exact = None
    except QuadratureUnstable as exc:
        ctx.warn(f"closed-form increment statistic unavailable: {exc}")
        exact = None
    if exact is None:
        ctx.note(f"y increment / mesh ratios: "
                 f"{', '.join(f'{y / m:.3f}' for y, m in zip(ystats, meshes))}")
        return
    for n, e, m in zip(ctx.ladder, exact, meshes):
        ctx.add("y_increment_ratio_closed_form", e / m, n_steps=n)
    ratios = [y / e for y, e in zip(ystats, exact)]
    ctx.note(f"y increment / closed-form value: "
             f"{', '.join(f'{r:.3f}' for r in ratios)}")
    ctx.check("y increment stat stays within [0.5, 2.0] x its closed-form value",
              all(0.5 <= r <= 2.0 for r in ratios))


def cmd_truncate_sweep(ctx: RunContext):
    if ctx.model.driver_z_lipschitz is not None:
        raise ConfigError("truncate_sweep needs a quadratic-growth model "
                          "(the driver is already Lipschitz)")
    part = Partition.uniform(ctx.model.T, ctx.n_steps)
    ens = get_ensemble(ctx, part)
    curve = truncation_error_curve(ctx.model, ens, ctx.basis, ctx.trunc_levels,
                                   reference_level=ctx.reference_level,
                                   picard_iters=ctx.picard_iters)
    for p in curve.points:
        ctx.add("trunc_err_y", p.err_y, n_trunc=p.level)
        ctx.add("trunc_err_z", p.err_z, n_trunc=p.level)
        ctx.note(f"n = {p.level:6g}: err_y = {p.err_y:.6e}, err_z = {p.err_z:.6e}")
    ctx.add("trunc_reference_level", curve.reference_level)
    ctx.add("trunc_realized_max_z", curve.realized_max_z)
    ctx.note(f"reference level {curve.reference_level:g}, realized max |Z| = "
             f"{curve.realized_max_z:.4f}")
    errs = [p.err_y for p in curve.points]
    ctx.check("truncation err_y non-increasing across levels (10% margin)",
              all(errs[i + 1] <= 1.1 * errs[i] + 1e-300 for i in range(len(errs) - 1)))
    floor = 1e-6 * curve.y_scale
    saturated = [p.err_y for p in curve.points if p.level >= curve.realized_max_z]
    if saturated:
        ctx.check("err_y at noise floor once the level covers the realized |Z|",
                  max(saturated) <= floor)
    qb = effective_qbar(curve)
    if qb is None:
        ctx.warn("truncation curve has fewer than 3 points above the noise "
                 "floor or does not decay; no tail exponent fitted "
                 f"(levels above realized max |Z| = {curve.realized_max_z:.3f} "
                 "coincide with the reference)")
    else:
        qbar, fit = qb
        ctx.add("qbar_effective", qbar)
        ctx.add("order_trunc_err_y", fit.slope)
        ctx.add("order_trunc_err_y_r2", fit.r_squared)
        ctx.note(f"err_y decay order {fit.slope:.3f} -> effective qbar {qbar:.3f}")
        ctx.check("err_y decays at least like n^-1 (slope <= -1 on squared errors)",
                  fit.slope <= -1.0)
    if ctx.oracle_reference:
        _sweep_oracle_rows(ctx, curve)
    return curve


def _sweep_oracle_rows(ctx: RunContext, curve):
    """Scalar per-level |y0 - oracle| rows, from the y0 the sweep recorded;
    pathwise references cannot come from the oracle, so this supplements the
    high-level reference level."""
    try:
        ref = cole_hopf_from_model(ctx.model)
    except QgbsdeError as exc:
        ctx.warn(f"oracle reference requested but unavailable: {exc}")
        return
    for p in curve.points:
        ctx.add("trunc_y0_abs_error_vs_oracle", abs(p.y0 - ref.y0), n_trunc=p.level)


def cmd_diagnose(ctx: RunContext):
    model = ctx.solver_model()
    if model is not ctx.model:
        ctx.note(f"driver truncated at level {ctx.trunc_level:g}")
    ens_c, ens_f = _coarse_fine_pair(ctx, ctx.n_steps)
    coarse = ens_c.partition
    sol_c = solve_backward_regression(model, ens_c, ctx.basis,
                                      picard_iters=ctx.picard_iters,
                                      y_clamp=ctx.y_clamp_for(model, ens_c))
    sol_f = solve_backward_regression(model, ens_f, ctx.basis,
                                      picard_iters=ctx.picard_iters,
                                      y_clamp=ctx.y_clamp_for(model, ens_f))

    ystat = y_increment_stat(sol_c, sol_f)
    ratio = ystat / coarse.mesh
    ctx.add("y_increment_sq", ystat)
    ctx.add("y_increment_ratio", ratio)
    ctx.note(f"max window E(Y_t - Y_ti)^2 = {ystat:.6e} "
             f"({ratio:.4f} x mesh {coarse.mesh:g})")

    zsum = z_l2_regularity(sol_c, sol_f, ensemble=ens_f, basis=ctx.basis,
                           projection="window")
    sol_c = compute_zbar(sol_c, ens_c, ctx.basis)
    znode = z_l2_regularity(sol_c, sol_f, projection="node")
    zleft = z_l2_regularity(sol_c, sol_f, projection="left")
    zinc = z_increment_stat(sol_f)
    ctx.add("z_regularity_sum", zsum)
    ctx.add("z_regularity_node", znode)
    ctx.add("z_regularity_left_endpoint", zleft)
    ctx.add("z_increment_sq", zinc)
    ctx.note(f"z regularity sum = {zsum:.6e} (window projection), "
             f"{znode:.6e} (coarse-node regression), "
             f"{zleft:.6e} (left-endpoint competitor)")

    bmo = bmo_estimate(sol_c, ens_c, ctx.basis)
    ctx.add("bmo_estimate", bmo.regression_max)
    ctx.add("bmo_plain", bmo.plain_max)
    ctx.note(f"BMO tail estimate: {bmo.regression_max:.4f} (regression), "
             f"{bmo.plain_max:.4f} (plain mean)")
    if ctx.model.growth_M > 0:
        xi_sup = float(np.abs(sol_f.Y[:, -1]).max())
        bound = bmo_bound(ctx.model.growth_M, ctx.model.T, xi_sup)
        ctx.add("bmo_bound_value", bound)
        ctx.note(f"closed-form BMO bound {bound:.4f} "
                 f"(M = {ctx.model.growth_M:g}, empirical |xi|_sup = {xi_sup:.4f})")
        ctx.check("bmo_estimate <= bmo_bound", bmo.regression_max <= bound)

    try:
        ens_v = simulate_variational(model, ens_c)
        var = solve_variational_bsde(model, ens_v, sol_c, ctx.basis)
        rep = representation_check(model, ens_v, sol_c, var)
        ctx.add("flow_identity_residual", flow_identity_residual(ens_v))
        ctx.add("representation_rms", rep.time_avg_rms)
        ctx.add("representation_max", float(rep.per_node_max.max()))
        ctx.note(f"gradient representation residual: {rep.time_avg_rms:.4e} rms")
    except QgbsdeError as exc:
        ctx.warn(f"variational check skipped: {exc}")


def _run_command(ctx: RunContext, command: str):
    if command == "simulate":
        cmd_simulate(ctx)
    elif command == "solve":
        cmd_solve(ctx)
    elif command == "converge":
        cmd_converge(ctx)
    elif command == "truncate_sweep":
        cmd_truncate_sweep(ctx)
    elif command == "diagnose":
        cmd_diagnose(ctx)
    elif command == "all":
        cmd_solve(ctx)
        if ctx.model.driver_z_lipschitz is None:
            cmd_truncate_sweep(ctx)
        else:
            ctx.note("truncation sweep skipped: driver already Lipschitz")
        cmd_diagnose(ctx)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown command {command!r}")


# ---------------------------------------------------------------- outputs ---

_CSV_COLUMNS = ("experiment_id", "model", "N", "P", "seed", "n_trunc",
                "statistic_name", "value", "std_error")


def _resolved_config(ctx: RunContext) -> configparser.ConfigParser:
    """Every effective setting, defaults included, as an INI document."""
    meta = {k: v for k, v in ctx.model.meta.items() if k != "preset"}
    out = configparser.ConfigParser()
    out["model"] = {"name": ctx.model.meta.get("preset", ctx.model.name),
                    "x0": repr(float(ctx.model.x0[0])),
                    "horizon": repr(ctx.model.T),
                    **{k: str(v) for k, v in sorted(meta.items())}}
    out["grid"] = {"n_steps": str(ctx.n_steps),
                   "refine_factor": str(ctx.refine_factor),
                   "ladder": " ".join(str(n) for n in ctx.ladder)}
    out["mc"] = {"n_paths": str(ctx.n_paths), "seed": str(ctx.seed),
                 "workers": str(ctx.workers)}
    out["solver"] = {"basis": ctx.basis.kind, "degree": str(ctx.basis.degree),
                     "cells_per_dim": str(ctx.basis.cells_per_dim),
                     "picard_iters": str(ctx.picard_iters),
                     "clamp": str(ctx.clamp).lower(),
                     "space_nodes": str(ctx.space_nodes),
                     "gh_nodes": str(ctx.gh_nodes),
                     "space_bound": ("auto" if ctx.space_bound is None
                                     else repr(ctx.space_bound))}
    out["truncation"] = {"level": repr(ctx.trunc_level),
                         "levels": " ".join(f"{n:g}" for n in ctx.trunc_levels),
                         "reference_level": (repr(2.0 * ctx.trunc_levels[-1])
                                             if ctx.reference_level is None
                                             else repr(ctx.reference_level)),
                         "oracle_reference": str(ctx.oracle_reference).lower()}
    out["outputs"] = {"directory": str(ctx.out_dir),
                      "experiment_id": ctx.experiment_id or "",
                      "write_ensemble": str(ctx.write_ensemble).lower()}
    return out


def _write_outputs(ctx: RunContext, command: str):
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(ctx.out_dir / "report.csv", "w", newline="") as fh:
        fh.write(f"# generated {stamp}\n")
        writer = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in ctx.rows:
            writer.writerow(row)
    with open(ctx.out_dir / "summary.txt", "w") as fh:
        fh.write(f"command: {command}\n")
        fh.write(f"model: {ctx.model.name}  grid: {ctx.n_steps} steps  "
                 f"paths: {ctx.n_paths}  seed: {ctx.seed}\n")
        for line in ctx.summary:
            fh.write(line + "\n")
    with open(ctx.out_dir / "config_resolved.ini", "w") as fh:
        _resolved_config(ctx).write(fh)


# ------------------------------------------------------------------- main ---

def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="qgbsde",
        description="forward-backward solver experiments driven by an INI config")
    parser.add_argument("--config", required=True, help="INI experiment description")
    parser.add_argument("--command", choices=COMMANDS, default="solve",
                        help="what to run (default: solve)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override [mc] seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="override [mc] workers")
    parser.add_argument("--out", default=None,
                        help="override [outputs] directory")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when the run produced warnings or failed checks")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        cfg = _load_config(args.config)
        ctx = RunContext(cfg, args)
        if ctx.experiment_id is None:
            ctx.experiment_id = f"{args.command}_{ctx.model.name}"
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        _run_command(ctx, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QgbsdeError as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _write_outputs(ctx, args.command)
    for line in ctx.warnings:
        print(f"warning: {line}", file=sys.stderr)
    print(f"wrote {ctx.out_dir / 'report.csv'} ({len(ctx.rows)} statistics)")
    if args.strict and ctx.warnings:
        print("strict mode: warnings are fatal", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
