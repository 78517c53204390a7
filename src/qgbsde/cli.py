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
    ensemble.bin         the simulated paths (simulate only)

Every key outside [model] is one row of the _SETTINGS table: section, key,
parser, default, INI format and range check. RunContext reads and checks the
rows in one loop (--seed, --workers and --out stand in for the rows of the
same name), so a bad value exits 2 before anything is simulated.
config_resolved.ini is written from the same rows, and passed back as
--config it reproduces the run. The [model] keys are the parameters of the
chosen preset in model.PRESETS, each parsed as the type of its default; a
model whose certified growth constant growth_M fails the spot check of
model.check_growth_certificate exits 2 as well.

Exit codes: 0 success, 1 numerical failure during the run, 2 configuration
error. With --strict, runs that produced warnings also exit 1.

Commands get their ensembles from get_ensemble, which keeps none: all hands
its N-step ensemble to the truncation sweep, which solves [truncation] level
as one more row of its pass for solve to report, and drops it on return.

Forward ensembles are cached under $QGBSDE_CACHE_DIR (if set), so repeated
backward experiments on the same paths skip the simulation. The key covers
everything that determines the paths: the model preset and all of its
parameters, x0, the horizon, the time grid, the path count, the seed and a
cache format version. A cache file that cannot be read or holds other paths
is rebuilt with a note in summary.txt, and a failed write is a warning.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import datetime
import functools
import hashlib
import inspect
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .diagnostics import (TruncationPoint, diagnose_pass, effective_qbar,
                          fit_convergence_order, regularity_pass,
                          truncation_error_curve)
from .errors import (ConfigError, DomainTooSmall, InvalidParameters, QgbsdeError,
                     QuadratureUnstable)
from .model import PRESETS, ModelSpec, Partition, check_growth_certificate
from .oracle import bmo_bound, cole_hopf_from_model, cole_hopf_increment_stat
from .regression import RegressionBasis
from .sde import PathEnsemble, dump_ensemble, load_ensemble, simulate_forward
from .solver import solve_backward_regression, solve_quadrature_1d
from .truncation import truncate_driver

COMMANDS = ("simulate", "solve", "converge", "truncate_sweep", "diagnose", "all")


# ---------------------------------------------------------------- config ---

class _Setting(NamedTuple):
    """One key outside [model]: how it is read, checked and written back."""

    section: str
    key: str
    parse: Callable[[str], Any]  # INI text -> value; ValueError when malformed
    default: Any
    fmt: Callable[[Any], str] = str  # value -> INI text that parses back to it
    check: tuple | None = None  # (valid(value), what a valid value is)


def _bool(text):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(text) from None


def _list(cast):
    return lambda text: tuple(cast(tok) for tok in text.replace(",", " ").split())


def _join(fmt):
    return lambda values: " ".join(fmt(v) for v in values)


def _short(x):
    """%g when that reads back as the same float, repr otherwise."""
    return f"{x:g}" if float(f"{x:g}") == x else repr(x)


def _flag(value):
    return str(value).lower()


def _at_least(lo):
    return (lambda v: v >= lo), f"must be >= {lo}"


def _writable(path):
    path = os.path.abspath(path)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    return os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)


_INCREASING = ((lambda v: bool(v) and all(0 < x < math.inf for x in v)
                and list(v) == sorted(set(v))),
               "must be a strictly increasing list of finite positive numbers")

_SETTINGS = (
    _Setting("grid", "n_steps", int, 64, check=_at_least(1)),
    _Setting("grid", "refine_factor", int, 4, check=_at_least(2)),
    _Setting("grid", "ladder", _list(int), (8, 16, 32, 64), _join(str), _INCREASING),
    _Setting("mc", "n_paths", int, 100_000, check=_at_least(100)),
    _Setting("mc", "seed", int, 7,
             check=((lambda v: 0 <= v < 2 ** 64), "must lie in [0, 2**64)")),
    _Setting("mc", "workers", int, 1, check=_at_least(1)),
    # basis, degree and cells_per_dim make up ctx.basis, a RegressionBasis,
    # which checks their ranges
    _Setting("solver", "basis", str, "global_polynomial", lambda basis: basis.kind),
    _Setting("solver", "degree", int, 4),
    _Setting("solver", "cells_per_dim", int, 50),
    _Setting("truncation", "level", float, 10.0, repr,
             ((lambda v: 0 <= v < math.inf), "must be finite and >= 0")),
    _Setting("truncation", "levels", _list(float), (1.0, 2.0, 3.0, 4.0, 6.0, 8.0),
             _join(_short), _INCREASING),
    _Setting("truncation", "oracle_reference", _bool, False, _flag),
    _Setting("outputs", "directory", Path, Path("qgbsde_out"),
             check=(_writable, "must be a writable directory or creatable in one")),
    _Setting("outputs", "experiment_id", str, None,  # None: {command}_{model}
             lambda v: v or ""),
)


def _load_config(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            cfg.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    known = {"model": {"name"}.union(*(inspect.signature(make).parameters
                                       for make in PRESETS.values()))}
    for s in _SETTINGS:
        known.setdefault(s.section, set()).add(s.key)
    for sec in cfg.sections():
        if sec not in known:
            raise ConfigError(f"unknown section [{sec}] "
                              f"(known: {', '.join(sorted(known))})")
    extra = [f"[{sec}] {key}" for sec in cfg.sections()
             for key in sorted(set(cfg[sec]) - known[sec])]
    if extra:
        raise ConfigError(f"unknown keys: {', '.join(extra)}")
    return cfg


def _read(cfg, sec, key, parse, default, override=None):
    """One setting from its override or its INI text; blank or absent text
    means the default."""
    text = cfg.get(sec, key, fallback="") if override is None else str(override)
    if not text.strip():
        return default
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"[{sec}] {key}: cannot parse {text!r}") from exc


def _build_model(cfg) -> ModelSpec:
    name = _read(cfg, "model", "name", str, "quadratic")
    if name not in PRESETS:
        raise ConfigError(f"[model] name: unknown model {name!r} "
                          f"(known: {', '.join(sorted(PRESETS))})")
    params = inspect.signature(PRESETS[name]).parameters
    stray = set(cfg["model"]) - {"name", *params} if cfg.has_section("model") else set()
    if stray:
        raise ConfigError(f"[model] keys {sorted(stray)} do not apply to {name!r}")
    kwargs = {key: _read(cfg, "model", key, type(p.default), None)
              for key, p in params.items()}
    for key, value in kwargs.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"[model] {key} must be finite, got {value}")
    try:
        model = PRESETS[name](**{k: v for k, v in kwargs.items() if v is not None})
    except QgbsdeError as exc:
        raise ConfigError(f"[model]: {exc}") from exc
    ratio = check_growth_certificate(model)
    if ratio > 1.0:
        raise ConfigError(f"[model] {name}: growth_M = {model.growth_M:g} does not "
                          f"bound the driver (|f| / (M (1 + |y| + |z|^2)) reaches "
                          f"{ratio:.4g})")
    return model


class RunContext:
    """Resolved settings plus accumulators for rows and warnings.

    Every _SETTINGS row becomes the attribute named by its key."""

    def __init__(self, cfg, args):
        self.model = _build_model(cfg)
        overrides = {"seed": args.seed, "workers": args.workers, "directory": args.out}
        for s in _SETTINGS:
            value = _read(cfg, s.section, s.key, s.parse, s.default,
                          overrides.get(s.key))
            if s.check is not None and not s.check[0](value):
                raise ConfigError(f"[{s.section}] {s.key} {s.check[1]}, got {value}")
            setattr(self, s.key, value)
        try:
            self.basis = RegressionBasis(kind=self.basis, degree=self.degree,
                                         cells_per_dim=self.cells_per_dim)
        except QgbsdeError as exc:
            raise ConfigError(f"[solver]: {exc}") from exc
        self.rows = []
        self.summary = []
        self.warnings = []

    @functools.cached_property
    def closed_form(self):
        """cole_hopf_from_model of the model, or the QgbsdeError it raised:
        worked out once per run, for solve and the sweep's oracle rows."""
        try:
            return cole_hopf_from_model(self.model)
        except QgbsdeError as exc:
            return exc

    @functools.cached_property
    def solver_model(self) -> ModelSpec:
        """The model actually handed to the backward solvers: quadratic-growth
        drivers get the configured truncation level applied, with a note.
        Built once per run, so the note is written once."""
        if self.model.driver_z_lipschitz is not None:
            return self.model
        model = truncate_driver(self.model, self.level)
        self.note(f"driver truncated at level {self.level:g}")
        return model

    def add(self, statistic_name, value, std_error=None, n_trunc=None,
            n_steps=None):
        self.rows.append({
            "experiment_id": self.experiment_id,
            "model": self.model.name,
            "N": self.n_steps if n_steps is None else n_steps,
            "P": self.n_paths,
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
_CACHE_FORMAT = 4


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


def _cache_mismatch(ens: PathEnsemble, model, partition, n_paths, seed):
    """Why a loaded cache file does not hold the requested paths, or None."""
    if ens.seed != seed or ens.n_paths != n_paths:
        return f"holds seed {ens.seed} with {ens.n_paths} paths"
    if ens.m != model.m or ens.d != model.d:
        return f"holds dimensions m = {ens.m}, d = {ens.d}"
    if not np.array_equal(ens.partition.times, partition.times):
        return "holds another time grid"
    return None


def get_ensemble(ctx: RunContext, partition: Partition):
    """The forward ensemble on the partition, simulated or read from the cache.

    Nothing is kept: a command that shares its ensemble with another is
    handed it by its caller (cmd_all). Under $QGBSDE_CACHE_DIR a cache file
    is checked against the request, rebuilt with a note when it is
    unreadable or holds other paths, and written through a temporary file
    that replaces it in one step; a failed write is a warning.
    """
    n_paths, seed = ctx.n_paths, ctx.seed
    key = _cache_key(ctx.model, partition, n_paths, seed)
    cache_dir = os.environ.get("QGBSDE_CACHE_DIR")
    cache_path = Path(cache_dir) / f"ens_{key}.bin" if cache_dir else None
    if cache_path is not None and cache_path.exists():
        try:
            ens = load_ensemble(cache_path)
            reason = _cache_mismatch(ens, ctx.model, partition, n_paths, seed)
        except (QgbsdeError, OSError) as exc:
            reason = str(exc)
        if reason is None:
            return ens
        ctx.note(f"cache file {cache_path.name} rejected ({reason}); rebuilt")
    ens = simulate_forward(ctx.model, partition, n_paths, seed, workers=ctx.workers)
    if cache_path is not None:
        tmp = cache_path.with_name(f".{cache_path.name}.{os.getpid()}.tmp")
        try:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            dump_ensemble(ens, tmp)
            os.replace(tmp, cache_path)
        except OSError as exc:
            ctx.warn(f"cache file {cache_path.name} not written ({exc})")
        finally:
            with contextlib.suppress(OSError):  # missing_ok does not cover ENOTDIR
                tmp.unlink(missing_ok=True)
    return ens


# --------------------------------------------------------------- commands ---

def _oracle_rows(ctx: RunContext, y0, z0):
    """Compare the solved (Y_0, Z_0) against whatever closed form the model has."""
    ref = ctx.closed_form
    if isinstance(ref, InvalidParameters):  # no Cole-Hopf closed form for this model
        ref = None
    elif isinstance(ref, QgbsdeError):
        ctx.warn(f"oracle unavailable: {ref}")
        return
    preset = ctx.model.meta.get("preset")
    if ref is not None:
        ctx.add("y0_reference", ref.y0)
        ctx.add("y0_abs_error", abs(y0 - ref.y0))
        if ref.z0 is not None:
            ctx.add("z0_reference", ref.z0)
            ctx.add("z0_abs_error", abs(z0 - ref.z0))
        ctx.note(f"reference y0 = {ref.y0!r} (step-halving estimate "
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
    ctx.add("x_max_abs", max(float(ens.states.max()), -float(ens.states.min())))
    ctx.note(f"simulated {ens.n_paths} paths on {part.n_steps} steps, "
             f"E[X_T] = {xt.mean(axis=0)}")
    ctx.directory.mkdir(parents=True, exist_ok=True)
    dump_ensemble(ens, ctx.directory / "ensemble.bin")
    ctx.note("wrote ensemble.bin")
    return ens


def cmd_solve(ctx: RunContext, point: TruncationPoint | None = None):
    part = Partition.uniform(ctx.model.T, ctx.n_steps)
    model = ctx.solver_model
    if point is None:
        sol = solve_backward_regression(model, get_ensemble(ctx, part), ctx.basis)
        y0, z0s, y_rms, z_rms = (sol.y0, sol.z0, sol.meta.y_residual_rms[0],
                                 sol.meta.z_residual_rms[0])
    else:  # all's sweep solved this level, bit for bit the same solve
        y0, z0s, y_rms, z_rms = (point.y0, np.asarray(point.z0),
                                 point.y0_residual_rms, point.z0_residual_rms)
    z0 = float(z0s[0]) if ctx.model.d == 1 else None
    # at t = 0 the design is the constant one, so y0 and z0 are plain means of
    # their step-0 targets: the residual RMS over sqrt(P) is their Monte Carlo
    # error given the later fits. z's RMS is kept only as a mean over the d
    # components, so z0 gets one for d = 1 only.
    sqrt_p = math.sqrt(ctx.n_paths)
    y0_se = y_rms / sqrt_p
    z0_se = z_rms / sqrt_p if ctx.model.d == 1 else None
    ctx.add("y0", y0, std_error=y0_se)
    for k in range(ctx.model.d):
        suffix = "" if ctx.model.d == 1 else f"_{k}"
        ctx.add(f"z0{suffix}", z0s[k], std_error=z0_se)
    ctx.note(f"solved: y0 = {y0!r}, z0 = {np.array2string(z0s, precision=8)}")
    ctx.note(f"std_error: y0 {y0_se:.3e}"
             + ("" if z0_se is None else f", z0 {z0_se:.3e}")
             + " (conditional on the fitted regressions, not seed-to-seed error)")
    _oracle_rows(ctx, y0, z0)
    if ctx.model.m == 1 and ctx.model.d == 1:
        try:
            qy, qz = solve_quadrature_1d(model, part)
            ctx.add("y0_quadrature", qy)
            ctx.add("z0_quadrature", qz)
            ctx.add("y0_vs_quadrature", abs(y0 - qy))
            ctx.note(f"quadrature on the same grid: y0 = {qy!r}, "
                     f"|MC - quadrature| = {abs(y0 - qy):.3e}")
        except DomainTooSmall as exc:
            ctx.warn(f"quadrature cross-check skipped: {exc}")


def _regularity_rows(ctx: RunContext, reg, coarse: Partition):
    """The six path-regularity rows of one regularity pass on the coarse
    grid, and its summary line."""
    n, ratio = coarse.n_steps, reg.y_increment_sq / coarse.mesh
    ctx.add("y_increment_sq", reg.y_increment_sq, n_steps=n)
    ctx.add("y_increment_ratio", ratio, n_steps=n)
    for name in ("z_regularity_sum", "z_regularity_node",
                 "z_regularity_left_endpoint", "z_increment_sq"):
        ctx.add(name, getattr(reg, name), n_steps=n)
    ctx.note(f"N = {n:4d}: max window E(Y_t - Y_ti)^2 = {reg.y_increment_sq:.6e} "
             f"({ratio:.4f} x mesh); z regularity sum = {reg.z_regularity_sum:.6e} "
             f"(window projection), {reg.z_regularity_node:.6e} (coarse node), "
             f"{reg.z_regularity_left_endpoint:.6e} (left endpoint)")


def cmd_converge(ctx: RunContext):
    """Path-regularity refinement study over the grid ladder.

    For each N one regularity pass solves the fine grid at refine_factor x N
    and its coarsening to N steps and writes its six regularity rows; the
    order of the Z regularity sum in the mesh is fitted over the ladder.
    Where the closed-form oracle applies, the Y increment statistic is
    checked against the exact solution's own value; elsewhere its ratios to
    the mesh are noted.
    """
    model = ctx.solver_model
    meshes, zsums, ystats = [], [], []
    for n in ctx.ladder:
        # the pass's coarse grid, since refine keeps the coarse nodes exact
        coarse = Partition.uniform(ctx.model.T, n)
        # the fine ensemble is dropped with the pass, before the next rung
        reg = regularity_pass(model, get_ensemble(ctx, coarse.refine(ctx.refine_factor)),
                              ctx.refine_factor, ctx.basis)
        _regularity_rows(ctx, reg, coarse)
        meshes.append(coarse.mesh)
        zsums.append(reg.z_regularity_sum)
        ystats.append(reg.y_increment_sq)
        del reg
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
        exact = [cole_hopf_increment_stat(
            ctx.model, Partition.uniform(ctx.model.T, n).refine(ctx.refine_factor),
            ctx.refine_factor) for n in ctx.ladder]
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


def cmd_truncate_sweep(ctx: RunContext, curve=None):
    if curve is None:
        if ctx.model.driver_z_lipschitz is not None:
            raise ConfigError("truncate_sweep needs a quadratic-growth model "
                              "(the driver is already Lipschitz)")
        ens = get_ensemble(ctx, Partition.uniform(ctx.model.T, ctx.n_steps))
        curve = truncation_error_curve(ctx.model, ens, ctx.basis, ctx.levels)
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
    saturated = [p.err_y for p in curve.points if p.level >= curve.realized_max_z]
    if saturated:
        ctx.check("err_y at noise floor once the level covers the realized |Z|",
                  max(saturated) <= curve.noise_floor)
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
    ref = ctx.closed_form
    if isinstance(ref, QgbsdeError):
        ctx.warn(f"oracle reference requested but unavailable: {ref}")
        return
    for p in curve.points:
        ctx.add("trunc_y0_abs_error_vs_oracle", abs(p.y0 - ref.y0), n_trunc=p.level)


def cmd_diagnose(ctx: RunContext):
    model = ctx.solver_model
    coarse = Partition.uniform(ctx.model.T, ctx.n_steps)
    ens = get_ensemble(ctx, coarse.refine(ctx.refine_factor))
    diag = diagnose_pass(model, ens, ctx.refine_factor, ctx.basis)
    # X_T, the last node of both grids, is read here, so that the fine states
    # are dropped before the first row is written
    xi_sup = float(np.abs(model.g(ens.states[:, -1])).max())
    del ens
    _regularity_rows(ctx, diag.regularity, coarse)

    ctx.add("bmo_estimate", diag.bmo_estimate)
    ctx.add("bmo_plain", diag.bmo_plain)
    ctx.note(f"BMO tail estimate: {diag.bmo_estimate:.4f} (regression), "
             f"{diag.bmo_plain:.4f} (plain mean)")
    if ctx.model.growth_M > 0:
        bound = bmo_bound(ctx.model.growth_M, ctx.model.T, xi_sup)
        ctx.add("bmo_bound_value", bound)
        ctx.note(f"closed-form BMO bound {bound:.4f} "
                 f"(M = {ctx.model.growth_M:g}, empirical |xi|_sup = {xi_sup:.4f})")
        ctx.check("bmo_estimate <= bmo_bound", diag.bmo_estimate <= bound)

    if diag.representation_rms is None:
        ctx.warn(f"variational check skipped: {diag.gradient_error}")
        return
    rms = float(diag.representation_rms.mean())
    ctx.add("flow_identity_residual", diag.flow_identity_residual)
    ctx.add("representation_rms", rms)
    ctx.add("representation_max", float(diag.representation_max.max()))
    ctx.note(f"gradient representation residual: {rms:.4e} rms")


def cmd_all(ctx: RunContext):
    if ctx.model.driver_z_lipschitz is None:
        part = Partition.uniform(ctx.model.T, ctx.n_steps)
        curve = truncation_error_curve(ctx.model, get_ensemble(ctx, part), ctx.basis,
                                       ctx.levels, level=ctx.level)
        cmd_solve(ctx, curve.solve)
        cmd_truncate_sweep(ctx, curve)
    else:
        cmd_solve(ctx)
        ctx.note("truncation sweep skipped: driver already Lipschitz")
    cmd_diagnose(ctx)


# ---------------------------------------------------------------- outputs ---

_CSV_COLUMNS = ("experiment_id", "model", "N", "P", "seed", "n_trunc",
                "statistic_name", "value", "std_error")


def _resolved_config(ctx: RunContext) -> configparser.ConfigParser:
    """Every effective setting, defaults included, as an INI document."""
    out = configparser.ConfigParser()
    out["model"] = {"name": ctx.model.meta.get("preset", ctx.model.name),
                    "x0": repr(float(ctx.model.x0[0])),
                    "horizon": repr(ctx.model.T),
                    **{k: str(v) for k, v in sorted(ctx.model.meta.items())
                       if k != "preset"}}
    for s in _SETTINGS:
        if not out.has_section(s.section):
            out.add_section(s.section)
        out[s.section][s.key] = s.fmt(getattr(ctx, s.key))
    return out


def _write_outputs(ctx: RunContext, command: str):
    ctx.directory.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(ctx.directory / "report.csv", "w", newline="") as fh:
        fh.write(f"# generated {stamp}\n")
        writer = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in ctx.rows:
            writer.writerow(row)
    with open(ctx.directory / "summary.txt", "w") as fh:
        fh.write(f"command: {command}\n")
        fh.write(f"model: {ctx.model.name}  grid: {ctx.n_steps} steps  "
                 f"paths: {ctx.n_paths}  seed: {ctx.seed}\n")
        for line in ctx.summary:
            fh.write(line + "\n")
    with open(ctx.directory / "config_resolved.ini", "w") as fh:
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
        ctx = RunContext(_load_config(args.config), args)
        if ctx.experiment_id is None:
            ctx.experiment_id = f"{args.command}_{ctx.model.name}"
        # looked up by name at call time, so a rebound cmd_* function is the one run
        globals()[f"cmd_{args.command}"](ctx)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QgbsdeError as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _write_outputs(ctx, args.command)
    for line in ctx.warnings:
        print(f"warning: {line}", file=sys.stderr)
    print(f"wrote {ctx.directory / 'report.csv'} ({len(ctx.rows)} statistics)")
    if args.strict and ctx.warnings:
        print("strict mode: warnings are fatal", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
