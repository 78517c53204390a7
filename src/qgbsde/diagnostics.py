"""Empirical statistics for the backward solutions.

Two families of checks live here. The path-regularity statistics compare a
solution on a coarse partition with one on a nested refinement: the maximal
mean-square Y increment over coarse windows, the time-integrated L^2
distance between the fine control and three coarse-grid approximations of
it, and the largest mean-square step of the fine control. regularity_pass
computes all of them in one backward pass that advances the coarse and the
fine solve in lockstep, window by window: each coarse node's regression
design serves the coarse step, the fine step at that node and both coarse
fits of the control, and the fine solution is held one window at a time.
The truncation sweep solves one quadratic model under a ladder of truncation
levels and a high-level reference in one batched backward pass, one target
column per level, and records the error decay, from which a convergence
order (and the implied tail exponent) is fitted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, InvalidPoints
from .model import ModelSpec, empty_time_major, nested_indices
from .regression import RegressionBasis, project, step_design
from .sde import PathEnsemble
from .solver import (BackwardSolution, _backward_step, _empty_solution,
                     _start_backward, _store_step)
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


@dataclass(frozen=True)
class Regularity:
    """The coarse solution of a regularity pass and the path-regularity
    statistics of the nested fine solve, named after their report rows.

    With fine nodes t_j, coarse windows [t_i, t_{i+1}] (closed on the right)
    and i(j) the window of fine step j:

        y_increment_sq     max_i max_{t_j in window i} E (Y_{t_j} - Y_{t_i})^2
        z_regularity_*     E sum_j |Z_{t_j} - Zbar_{i(j)}|^2 dt_j
        z_increment_sq     max_j E |Z_{t_{j+1}} - Z_{t_j}|^2

    where Zbar_i is, for z_regularity_sum, the regression on X_{t_i} of the
    window-averaged fine control; for z_regularity_node, the regression on
    X_{t_i} of the coarse solution's Z_i; for z_regularity_left_endpoint,
    the fine control at t_i itself (a valid but suboptimal competitor, a
    sanity ceiling for the other two).
    """

    solution: BackwardSolution
    y_increment_sq: float
    z_regularity_sum: float
    z_regularity_node: float
    z_regularity_left_endpoint: float
    z_increment_sq: float


def regularity_pass(model: ModelSpec, coarse: PathEnsemble, fine: PathEnsemble,
                    basis: RegressionBasis, picard_iters: int = 3,
                    y_clamp: float | None = None) -> Regularity:
    """Solve on a coarse grid and a nested fine one in one backward pass and
    measure the fine solution's path regularity against the coarse windows.

    The coarse ensemble must hold the fine states at the shared nodes, so
    that the design built at a coarse node can serve the coarse step, the
    fine step at that node, and the regressions of the window-averaged fine
    control and of the coarse control on the node's state. Within each
    coarse window the fine solve runs from the right end to the left; its Y
    and Z are kept for the current window only, in time-major buffers, and
    the window's statistics are taken before the next window reuses them.
    The window sums are added up in forward window order at the end.
    Solver arguments are those of solve_backward_regression, and the coarse
    solution and every statistic are bit for bit what two such solves and
    a loop per statistic over the stored solutions give.
    """
    idx = nested_indices(coarse.partition, fine.partition)
    if not all(np.array_equal(coarse.states[:, i], fine.states[:, j])
               for i, j in enumerate(idx)):
        raise InvalidParameters("the coarse states must be the fine states at "
                                "the shared nodes")
    _start_backward((model,), fine, picard_iters, y_clamp)  # checks only
    terminal = _start_backward((model,), coarse, picard_iters, y_clamp)[:, 0]
    sol = _empty_solution(coarse, basis, picard_iters, terminal)
    h, dt_f = coarse.partition.dt, fine.partition.dt
    P, d, n = coarse.n_paths, coarse.d, coarse.partition.n_steps
    width = int(np.diff(idx).max())
    yw = empty_time_major(width + 1, P)
    zw = empty_time_major(width, P, (d,))
    # fine Y and Z at the right end of the current window
    y_right, z_right = terminal, None
    y_inc = z_inc = 0.0
    sums = np.empty((3, n))  # window, node and left-endpoint contributions
    for i in range(n - 1, -1, -1):
        lo, w = int(idx[i]), int(idx[i + 1] - idx[i])
        ywin, zwin = yw[:, :w + 1], zw[:, :w]
        ywin[:, w] = y_right
        design = step_design(basis, coarse.states[:, i], step=i)
        for k in range(w - 1, -1, -1):
            j = lo + k
            fine_design = design if k == 0 else step_design(basis, fine.states[:, j],
                                                            step=j)
            y, z, *_ = _backward_step((model,), fine_design, fine, j,
                                      ywin[:, k + 1:k + 2], picard_iters, y_clamp)
            ywin[:, k] = y[:, 0]
            zwin[:, k] = z[:, 0]
        _store_step(sol, i, *_backward_step((model,), design, coarse, i,
                                            sol.Y[:, i + 1:i + 2], picard_iters,
                                            y_clamp))

        inc = ywin[:, 1:] - ywin[:, :1]
        y_inc = max(y_inc, float((inc ** 2).mean(axis=0).max()))
        dt = dt_f[lo:lo + w]
        window_avg = np.einsum("pjd,j->pd", zwin, dt) / h[i]
        for s, zbar in enumerate((project(design, window_avg)[0],
                                  project(design, sol.Z[:, i])[0], zwin[:, 0])):
            diff = zwin - zbar[:, None]
            sums[s, i] = float(((diff ** 2).sum(axis=2) * dt).mean(axis=0).sum())
        # every fine step of Z that starts in this window, the last one into
        # the first node of the next window
        for k in range(w):
            z_next = zwin[:, k + 1] if k + 1 < w else z_right
            if z_next is not None:
                dz = z_next - zwin[:, k]
                z_inc = max(z_inc, float(np.einsum("pd,pd->", dz, dz)) / P)
        y_right, z_right = ywin[:, 0].copy(), zwin[:, 0].copy()
    window, node, left = np.cumsum(sums, axis=1)[:, -1]  # sequential, forward
    return Regularity(solution=sol, y_increment_sq=y_inc,
                      z_regularity_sum=float(window), z_regularity_node=float(node),
                      z_regularity_left_endpoint=float(left), z_increment_sq=z_inc)


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
        fitted, _ = project(step_design(basis, ensemble.states[:, i], step=i),
                            tails[:, i:i + 1])
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

    @property
    def noise_floor(self) -> float:
        """Y error below which a level counts as exact: 1e-6 of y_scale."""
        return 1e-6 * max(self.y_scale, np.finfo(np.float64).tiny)

    def positive_points(self):
        """Points whose Y error sits above the noise floor."""
        return [p for p in self.points if p.err_y > self.noise_floor]


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
    L, n = len(lv), times.size - 1
    # running per-path maxima over the nodes seen so far, terminal included
    err_y_path = (y[:, :L] - y[:, L:]) ** 2
    y_sq_max = y[:, L] ** 2
    err_z_steps = np.empty((L, n))
    realized = 0.0
    for i in range(n - 1, -1, -1):
        dt = times[i + 1] - times[i]
        design = step_design(basis, ensemble.states[:, i], step=i)
        y, z, *_ = _backward_step(models, design, ensemble, i, y, picard_iters)
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


def effective_qbar(curve: TruncationCurve) -> tuple[float, OrderFit] | None:
    """Tail-weight exponent implied by the fitted decay of err_y in the level.

    With errors decaying like n^(-1/qbar') at unit distribution shape, the
    fitted slope s gives qbar' = -1/(2 s) on the squared-error curve. Returns
    None when fewer than three points sit above the noise floor or the fit
    fails to decay.
    """
    pts = curve.positive_points()
    if len(pts) < 3:
        return None
    fit = fit_convergence_order([p.level for p in pts], [p.err_y for p in pts])
    if fit.slope >= 0.0:
        return None
    return -1.0 / (2.0 * fit.slope), fit
