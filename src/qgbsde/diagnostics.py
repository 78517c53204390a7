"""Empirical statistics for the backward solutions.

Two families of checks live here. The path-regularity statistics compare a
solution on a coarse partition with one on a nested refinement: the maximal
mean-square Y increment over coarse windows, and the time-integrated L^2
distance between the fine control and its best coarse-grid approximation.
The truncation sweep solves one quadratic model under a ladder of truncation
levels and a high-level reference in one batched backward pass, one target
column per level, and records the error decay, from which a convergence
order (and the implied tail exponent) is fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, InvalidPoints
from .model import ModelSpec, Partition, nested_indices
from .regression import RegressionBasis, fit_step, step_design
from .sde import PathEnsemble
from .solver import (BackwardSolution, _backward_step, _start_backward,
                     project_window_average)
from .truncation import truncate_driver


@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope of log(error) against log(scale)."""
    slope: float
    intercept: float
    r_squared: float


def fit_convergence_order(scales, errors) -> OrderFit:
    s = np.asarray(scales, dtype=np.float64)
    e = np.asarray(errors, dtype=np.float64)
    if s.ndim != 1 or s.shape != e.shape:
        raise InvalidPoints(f"scales and errors must be equal-length 1-d, "
                            f"got {s.shape} and {e.shape}")
    if s.size < 3:
        raise InvalidPoints(f"need at least 3 points to fit an order, got {s.size}")
    if np.any(s <= 0.0) or np.any(e <= 0.0):
        raise InvalidPoints("scales and errors must be strictly positive")
    ls, le = np.log(s), np.log(e)
    ls_c = ls - ls.mean()
    var = float(ls_c @ ls_c)
    if var == 0.0:
        raise InvalidPoints("scales must not all coincide")
    slope = float(ls_c @ (le - le.mean())) / var
    intercept = float(le.mean() - slope * ls.mean())
    resid = le - (slope * ls + intercept)
    sstot = float(((le - le.mean()) ** 2).sum())
    r2 = 1.0 if sstot == 0.0 else 1.0 - float(resid @ resid) / sstot
    return OrderFit(slope=slope, intercept=intercept, r_squared=r2)


def y_increment_stat(base: BackwardSolution, fine: BackwardSolution) -> float:
    """max over coarse windows of max_{t in window} E (Y_t - Y_{t_i})^2.

    Windows are closed on the right, so the statistic over window i uses all
    fine nodes up to and including the next coarse node.
    """
    idx = nested_indices(base.partition, fine.partition)
    yf = fine.Y
    worst = 0.0
    for i in range(len(idx) - 1):
        lo, hi = idx[i], idx[i + 1]
        inc = yf[:, lo + 1:hi + 1] - yf[:, lo:lo + 1]
        worst = max(worst, float((inc ** 2).mean(axis=0).max()))
    return worst


def z_increment_stat(sol: BackwardSolution) -> float:
    """max_i E |Z_{t_{i+1}} - Z_{t_i}|^2 along the solution's own grid.

    One step at a time: two (P, d) slices per step, never a (P, N, d)
    temporary.
    """
    Z = sol.Z
    worst = 0.0
    for i in range(Z.shape[1] - 1):
        dz = Z[:, i + 1] - Z[:, i]
        worst = max(worst, float(np.einsum("pd,pd->", dz, dz)) / Z.shape[0])
    return worst


def z_l2_regularity(base: BackwardSolution, fine: BackwardSolution,
                    ensemble: PathEnsemble | None = None,
                    basis: RegressionBasis | None = None,
                    projection: str = "window") -> float:
    """E sum_j |Z_{t_j} - Zbar_{i(j)}|^2 dt_j with Zbar constant per coarse step.

    projection selects the coarse-grid approximant: "window" regresses the
    window-averaged fine control on the coarse-node states (needs the fine
    ensemble and a basis), "node" uses the coarse solution's own Zbar field,
    and "left" freezes the fine control at the left coarse node, which is a
    valid but suboptimal competitor useful as a sanity ceiling.
    """
    idx = nested_indices(base.partition, fine.partition)
    dt_f = fine.partition.dt
    if projection == "window":
        if ensemble is None or basis is None:
            raise InvalidParameters(
                "window projection needs the fine ensemble and a basis")
        zbar = project_window_average(fine, ensemble, base.partition, basis)
    elif projection == "node":
        if base.Zbar is None:
            raise InvalidParameters("node projection needs Zbar on the coarse "
                                    "solution; run compute_zbar first")
        zbar = base.Zbar
    elif projection == "left":
        zbar = fine.Z[:, idx[:-1]]
    else:
        raise InvalidParameters(f"unknown projection {projection!r}")
    total = 0.0
    for i in range(len(idx) - 1):
        lo, hi = idx[i], idx[i + 1]
        diff = fine.Z[:, lo:hi] - zbar[:, i:i + 1]
        total += float(((diff ** 2).sum(axis=2) * dt_f[lo:hi]).mean(axis=0).sum())
    return total


@dataclass(frozen=True)
class BmoEstimate:
    regression_max: float
    plain_max: float


def bmo_estimate(sol: BackwardSolution, ensemble: PathEnsemble,
                 basis: RegressionBasis) -> BmoEstimate:
    """Empirical sup_i ess-sup E[ sum_{j>=i} |Z_j|^2 dt_j | F_i ].

    The conditional expectation of the tail sum is estimated by regressing it
    on the state at each node; regression_max takes the largest fitted value
    over nodes and paths, plain_max the largest plain mean (the trivial
    conditioning), which is a lower bound and a stability reference.
    """
    dt = sol.partition.dt
    contrib = (sol.Z ** 2).sum(axis=2) * dt
    tails = np.cumsum(contrib[:, ::-1], axis=1)[:, ::-1]
    reg_max = 0.0
    for i in range(tails.shape[1]):
        fitted, _ = fit_step(basis, ensemble.states[:, i], tails[:, i:i + 1], i)
        reg_max = max(reg_max, float(fitted.max()))
    return BmoEstimate(regression_max=reg_max,
                       plain_max=float(tails.mean(axis=0).max()))


@dataclass(frozen=True)
class TruncationPoint:
    level: float
    err_y: float
    err_z: float
    y0: float


@dataclass(frozen=True)
class TruncationCurve:
    points: tuple[TruncationPoint, ...]
    reference_level: float
    realized_max_z: float
    y_scale: float

    def positive_points(self, floor_rel: float = 1e-6):
        """Points whose Y error sits above the relative noise floor."""
        floor = floor_rel * max(self.y_scale, np.finfo(np.float64).tiny)
        return [p for p in self.points if p.err_y > floor]


def truncation_error_curve(model: ModelSpec, ensemble: PathEnsemble,
                           basis: RegressionBasis, levels,
                           reference_level: float | None = None,
                           picard_iters: int = 3) -> TruncationCurve:
    """Solve the truncated equations over a ladder of levels.

    Errors are against the solution at reference_level (default: twice the
    largest level in the ladder), on the same paths and basis, so the
    statistical noise is common to both sides and cancels to first order:

        err_y(n) = E max_i |Y^n_i - Y^ref_i|^2
        err_z(n) = E sum_i |Z^n_i - Z^ref_i|^2 dt_i

    Every level and the reference run in one backward pass, one column each:
    at every step both regressions are single projections on the step's
    shared design, and the errors, y0 per level, realized_max_z (the largest
    |Z| of the reference) and y_scale accumulate as the pass goes, so no
    full solution is stored. Levels above realized_max_z give bit-identical
    columns and therefore zero error.
    """
    lv = sorted(set(float(n) for n in levels))
    if not lv or lv[0] <= 0.0:
        raise InvalidParameters(f"levels must be positive, got {levels}")
    ref_level = 2.0 * lv[-1] if reference_level is None else float(reference_level)
    if ref_level <= lv[-1]:
        raise InvalidParameters(f"reference level {ref_level} must exceed the "
                                f"largest ladder level {lv[-1]}")
    models = [truncate_driver(model, n) for n in (*lv, ref_level)]
    y = _start_backward(models, ensemble, picard_iters)
    times = ensemble.partition.times
    X, dW = ensemble.states, ensemble.increments
    L, n = len(lv), times.size - 1
    # running per-path maxima over the nodes seen so far, terminal included
    err_y_path = (y[:, :L] - y[:, L:]) ** 2
    y_sq_max = y[:, L] ** 2
    err_z_steps = np.empty((L, n))
    realized = 0.0
    for i in range(n - 1, -1, -1):
        dt = times[i + 1] - times[i]
        design = step_design(basis, X[:, i], step=i)
        y, z, *_ = _backward_step(models, design, times[i], dt, X[:, i], y,
                                  dW[:, i], picard_iters)
        np.maximum(err_y_path, (y[:, :L] - y[:, L:]) ** 2, out=err_y_path)
        np.maximum(y_sq_max, y[:, L] ** 2, out=y_sq_max)
        err_z_steps[:, i] = (((z[:, :L] - z[:, L:]) ** 2).sum(axis=2) * dt).mean(axis=0)
        realized = max(realized, float(np.abs(z[:, L]).max()))
    pts = tuple(TruncationPoint(level=lv[j], err_y=float(err_y_path[:, j].mean()),
                                err_z=float(err_z_steps[j].sum()),
                                y0=float(y[:, j].mean()))
                for j in range(L))
    return TruncationCurve(points=pts, reference_level=ref_level,
                           realized_max_z=realized, y_scale=float(y_sq_max.mean()))


def effective_qbar(curve: TruncationCurve, floor_rel: float = 1e-6) -> tuple[float, OrderFit] | None:
    """Tail-weight exponent implied by the fitted decay of err_y in the level.

    With errors decaying like n^(-1/qbar') at unit distribution shape, the
    fitted slope s gives qbar' = -1/(2 s) on the squared-error curve. Returns
    None when fewer than three points sit above the noise floor or the fit
    fails to decay.
    """
    pts = curve.positive_points(floor_rel)
    if len(pts) < 3:
        return None
    fit = fit_convergence_order([p.level for p in pts], [p.err_y for p in pts])
    if fit.slope >= 0.0:
        return None
    return -1.0 / (2.0 * fit.slope), fit
