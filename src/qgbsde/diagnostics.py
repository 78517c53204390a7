"""Empirical statistics for the backward solutions.

Two families of checks live here. The path-regularity statistics compare a
solution on a fine partition with one on its coarsening by a whole factor:
the maximal mean-square Y increment over coarse windows, the
time-integrated L^2 distance between the fine control and three
coarse-grid approximations of it, and the largest mean-square step of the
fine control. regularity_pass restricts the fine ensemble to the coarse
grid and computes all of them in one backward pass that advances the
coarse and the fine solve in lockstep, window by window: each coarse node's
regression design serves the coarse step, the fine step at that node and
both coarse fits of the control, and the fine solution is held one window
at a time. The truncation sweep solves one quadratic model under a ladder
of truncation levels and a high-level reference in one batched backward
pass and records the error decay, from which a convergence order (and the
implied tail exponent) is fitted. Levels share a target column until their
clamp engages: a level at or above a column's max |Z| solves the
untruncated step on it, so the pass computes each distinct column once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, InvalidPoints
from .model import ModelSpec, Partition, empty_time_major
from .regression import RegressionBasis, project, step_design
from .sde import PathEnsemble
from .solver import (BackwardSolution, _backward_step, _empty_solution,
                     _martingale_pair, _resolve_columns, _start_backward, _store_step)
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
    """The coarse ensemble and solution of a regularity pass and the
    path-regularity statistics of the nested fine solve, named after their
    report rows.

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

    ensemble: PathEnsemble
    solution: BackwardSolution
    y_increment_sq: float
    z_regularity_sum: float
    z_regularity_node: float
    z_regularity_left_endpoint: float
    z_increment_sq: float


def regularity_pass(model: ModelSpec, fine: PathEnsemble, factor: int,
                    basis: RegressionBasis, picard_iters: int = 3) -> Regularity:
    """Solve on the fine grid and on its coarsening by factor in one
    backward pass and measure the fine solution's path regularity against
    the coarse windows.

    The coarse ensemble lives on the fine paths: its states are those at
    every factor-th fine node (a strided view) and its increments the
    window sums of the fine ones, taken along the node axis so that
    time-major fine arrays give time-major coarse ones. So the design built
    at a coarse node serves the coarse step, the fine step at that node,
    and the regressions of the window-averaged fine control and of the
    coarse control on the node's state. Within each coarse window the fine
    solve runs from the right end to the left; its Y and Z are kept for the
    current window only, in time-major buffers, and the window's statistics
    are taken before the next window reuses them. The window sums are added
    up in forward window order at the end. Solver arguments are those of
    solve_backward_regression, and the coarse solution and every statistic
    are bit for bit what two such solves and a loop per statistic over the
    stored solutions give. Raises InvalidParameters unless factor divides
    the fine step count.
    """
    r, n_fine = factor, fine.partition.n_steps
    if r < 1 or n_fine % r:
        raise InvalidParameters(f"factor {factor} does not divide the {n_fine} "
                                f"fine steps")
    n = n_fine // r
    dw = fine.increments.swapaxes(0, 1)
    coarse = PathEnsemble(
        partition=Partition(fine.partition.times[::r]), seed=fine.seed,
        increments=dw.reshape(n, r, *dw.shape[1:]).sum(axis=1).swapaxes(0, 1),
        states=fine.states[:, ::r])
    terminal = _start_backward((model,), coarse, picard_iters)[:, 0]
    sol = _empty_solution(coarse, terminal)
    h, dt_f = coarse.partition.dt, fine.partition.dt
    P, d = fine.n_paths, fine.d
    yw = empty_time_major(r + 1, P)
    zw = empty_time_major(r, P, (d,))
    # fine Y and Z at the right end of the current window
    y_right, z_right = terminal, None
    y_inc = z_inc = 0.0
    sums = np.empty((3, n))  # window, node and left-endpoint contributions
    for i in range(n - 1, -1, -1):
        lo = i * r
        yw[:, r] = y_right
        design = step_design(basis, coarse.states[:, i], step=i)
        for k in range(r - 1, -1, -1):
            j = lo + k
            fine_design = design if k == 0 else step_design(basis, fine.states[:, j],
                                                            step=j)
            y, z, *_ = _backward_step((model,), fine_design, fine, j,
                                      yw[:, k + 1:k + 2], picard_iters)
            yw[:, k] = y[:, 0]
            zw[:, k] = z[:, 0]
        _store_step(sol, i, design, *_backward_step((model,), design, coarse, i,
                                                    sol.Y[:, i + 1:i + 2],
                                                    picard_iters))

        inc = yw[:, 1:] - yw[:, :1]
        y_inc = max(y_inc, float((inc ** 2).mean(axis=0).max()))
        dt = dt_f[lo:lo + r]
        window_avg = np.einsum("pjd,j->pd", zw, dt) / h[i]
        for s, zbar in enumerate((project(design, window_avg)[0],
                                  project(design, sol.Z[:, i])[0], zw[:, 0])):
            diff = zw - zbar[:, None]
            sums[s, i] = float(((diff ** 2).sum(axis=2) * dt).mean(axis=0).sum())
        # every fine step of Z that starts in this window, the last one into
        # the first node of the next window
        for k in range(r):
            z_next = zw[:, k + 1] if k + 1 < r else z_right
            if z_next is not None:
                dz = z_next - zw[:, k]
                z_inc = max(z_inc, float(np.einsum("pd,pd->", dz, dz)) / P)
        y_right, z_right = yw[:, 0].copy(), zw[:, 0].copy()
    window, node, left = np.cumsum(sums, axis=1)[:, -1]  # sequential, forward
    return Regularity(ensemble=coarse, solution=sol, y_increment_sq=y_inc,
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

    Every level and the reference run in one backward pass, on one column
    per level that has split off and one column shared by the rest. All
    levels start in the shared column, since they share g. At every step
    both regressions are single projections of the columns on the step's
    shared design. The levels at or above the shared column's max |z| see
    the identity clamp there and share one implicit step on the
    untruncated driver; each level below splits off into a column of its
    own. The levels are sorted, so the ones still sharing are a top part of
    the ladder, the reference included, and one split index describes the
    columns. The reference can split off as well, and then every level
    has a column of its own. The errors, y0 per level, realized_max_z (the
    largest |Z| of the reference) and y_scale accumulate as the pass goes,
    so no full solution is stored. A level in the reference's column has
    zero error by construction, which holds for every level above
    realized_max_z.
    """
    lv = sorted(set(float(n) for n in levels))
    if not lv or lv[0] <= 0.0:
        raise InvalidParameters(f"levels must be positive, got {levels}")
    ref_level = 2.0 * lv[-1] if reference_level is None else float(reference_level)
    if ref_level <= lv[-1]:
        raise InvalidParameters(f"reference level {ref_level} must exceed the "
                                f"largest ladder level {lv[-1]}")
    levels = (*lv, ref_level)
    models = [truncate_driver(model, n) for n in levels]
    # every level has the model's g, so the terminal values are one column
    y = _start_backward(models[-1:], ensemble, picard_iters)
    times = ensemble.partition.times
    L, n = len(lv), times.size - 1
    # column j < k of y is the level j, split off; column k is shared by
    # levels[k:] and is the reference's column while k <= L
    k = 0
    # running per-path maxima over the nodes seen so far, terminal included
    err_y_path = np.zeros((L, ensemble.n_paths))
    y_sq_max = y[:, 0] ** 2
    err_z_steps = np.zeros((L, n))
    realized = 0.0
    for i in range(n - 1, -1, -1):
        dt = times[i + 1] - times[i]
        design = step_design(basis, ensemble.states[:, i], step=i)
        cond_mean, z, *_ = _martingale_pair(design, ensemble, i, y)
        # the levels at or above the max |z| of the reference's column leave
        # its z unclamped and keep sharing it; each level below splits off
        # into a copy of it
        shared = min(k, L)
        top = float(np.abs(z[:, shared]).max())
        realized = max(realized, top)
        k = max(k, bisect_left(levels, top))
        ref = min(k, L)
        # gathered one at a time, so that no step holds a column twice
        src = np.minimum(np.arange(ref + 1), shared)
        cond_mean = cond_mean[:, src]
        z = z[:, src]
        y, _ = _resolve_columns(models[:k + 1], ensemble, i, cond_mean, z,
                                picard_iters)
        np.maximum(y_sq_max, y[:, ref] ** 2, out=y_sq_max)
        # a level still in the reference's column has error 0 by construction
        for j in range(ref):
            dy = y[:, j] - y[:, ref]
            np.maximum(err_y_path[j], dy * dy, out=err_y_path[j])
            dz = z[:, j] - z[:, ref]
            err_z_steps[j, i] = (np.einsum("pd,pd->p", dz, dz) * dt).mean()
        del cond_mean, z  # not held through the next step's projections
    pts = tuple(TruncationPoint(level=lv[j], err_y=float(err_y_path[j].mean()),
                                err_z=float(err_z_steps[j].sum()),
                                y0=float(y[:, min(j, k)].mean()))
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
