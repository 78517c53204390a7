"""Backward solvers: regression Monte Carlo and a one-dimensional quadrature scheme.

Both walk the same one-step recursion backward from the terminal condition:

    Z_i = E[ Y_{i+1} dW_i | X_i ] / dt_i
    Y_i = E[ Y_{i+1} | X_i ] + dt_i * f(t_i, X_i, Y_i, Z_i)

implicit in Y (resolved by a few Picard passes), explicit in Z. The Monte
Carlo solver estimates the conditional expectations by least-squares
regression on the state, both as projections on one regression design per
step; the same one-step kernel advances several drivers on shared paths at
once (the truncation sweep in diagnostics). The quadrature solver computes them exactly against
the one-step Euler Gaussian transition and serves as a slow, grid-bound
cross-check for one-dimensional models.

The Z regression target is centered by the fitted conditional mean of
Y_{i+1}: since that center is a function of X_i alone, the conditional
expectation is unchanged, while the 1/dt variance inflation of the raw
product target disappears.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.interpolate import CubicSpline
from scipy.special import ndtr

from .errors import (DomainTooSmall, InvalidParameters, NumericalBlowup,
                     PicardDivergence, RejectedModel)
from .model import ModelSpec, Partition, nested_indices
from .regression import RegressionBasis, StepDesign, fit_step, project, step_design
from .sde import PathEnsemble


@dataclass
class SolverMeta:
    basis: str
    picard_iters: int
    y_residual_rms: np.ndarray
    z_residual_rms: np.ndarray
    picard_residuals: np.ndarray
    conditions: np.ndarray
    fallback_cells: np.ndarray


@dataclass(frozen=True)
class BackwardSolution:
    """Per-path backward estimates on the ensemble's grid.

    Y: (P, N+1), Z: (P, N, d). Zbar holds the per-step regression of Z on the
    state once compute_zbar has run, else None.
    """

    partition: Partition
    Y: np.ndarray
    Z: np.ndarray
    Zbar: np.ndarray | None
    meta: SolverMeta

    @property
    def y0(self) -> float:
        return float(self.Y[:, 0].mean())

    @property
    def z0(self) -> np.ndarray:
        return self.Z[:, 0, :].mean(axis=0)


def _require_lipschitz_driver(model: ModelSpec):
    if model.driver_z_lipschitz is None:
        raise RejectedModel(
            "driver is not certified Lipschitz in z; apply truncate_driver first")


def _check_solver_inputs(model: ModelSpec, ensemble: PathEnsemble):
    _require_lipschitz_driver(model)
    if ensemble.m != model.m or ensemble.d != model.d:
        raise InvalidParameters(
            f"ensemble dims (m={ensemble.m}, d={ensemble.d}) do not match the model "
            f"(m={model.m}, d={model.d})")


def _picard_resolve(model, t, x, base, z, dt, picard_iters, step):
    """Fixed-point passes for y = base + dt f(t, x, y, z)."""
    y = base
    prev = None
    for _ in range(picard_iters):
        y_new = base + dt * np.asarray(model.f(t, x, y, z))
        res = float(np.sqrt(np.mean((y_new - y) ** 2)))
        tol = 1e-12 * max(1.0, float(np.sqrt(np.mean(y_new ** 2))))
        if prev is not None and res > prev and res > tol:
            raise PicardDivergence(
                f"inner iteration residual grew {prev:.3e} -> {res:.3e}", step=step)
        y, prev = y_new, res
    return y, prev if prev is not None else 0.0


def _start_backward(models, ensemble: PathEnsemble, picard_iters) -> np.ndarray:
    """Check the solver inputs of every model and return the terminal values,
    one column per model."""
    for model in models:
        _check_solver_inputs(model, ensemble)
    if picard_iters < 1:
        raise InvalidParameters(f"picard_iters must be >= 1, got {picard_iters}")
    n = ensemble.partition.n_steps
    x_n = ensemble.states[:, n]
    y = np.column_stack([np.asarray(model.g(x_n)) for model in models])
    if not np.isfinite(y).all():
        raise NumericalBlowup("non-finite terminal values", step=n)
    return y


def _backward_step(models, design: StepDesign, t, dt, x, y_next, dw,
                   picard_iters, y_clamp=None):
    """One step of the recursion for several drivers on the same paths.

    Column j of y_next (P, k) and of the returned y (P, k) and z (P, k, d)
    belongs to models[j]. Both conditional expectations are one projection
    each on the step's shared design; the implicit step is resolved column
    by column, so divergence is checked per driver. Returns
    (y, z, info_y, info_z, picard residual per column).
    """
    P, k = y_next.shape
    d = dw.shape[1]
    cond_mean, info_y = project(design, y_next)
    z_targets = (y_next - cond_mean)[:, :, None] * dw[:, None, :] / dt
    z_fit, info_z = project(design, z_targets.reshape(P, k * d))
    z = z_fit.reshape(P, k, d)
    y = np.empty((P, k))
    residuals = np.empty(k)
    for j, model in enumerate(models):
        y[:, j], residuals[j] = _picard_resolve(model, t, x, cond_mean[:, j], z[:, j],
                                                dt, picard_iters, step=design.step)
    if y_clamp is not None:
        np.clip(y, -y_clamp, y_clamp, out=y)
    if not (np.isfinite(y).all() and np.isfinite(z).all()):
        raise NumericalBlowup("non-finite backward value", step=design.step)
    return y, z, info_y, info_z, residuals


def solve_backward_regression(model: ModelSpec, ensemble: PathEnsemble,
                              basis: RegressionBasis, picard_iters: int = 3,
                              y_clamp: float | None = None) -> BackwardSolution:
    """Regression Monte Carlo dynamic programming over the ensemble.

    y_clamp, when given, caps |Y_i| at an a-priori sup bound after every
    step. Off by default; it is a variance control for heavy-tailed
    regression overshoot, not part of the scheme.
    """
    terminal = _start_backward((model,), ensemble, picard_iters)
    if y_clamp is not None and y_clamp <= 0:
        raise InvalidParameters(f"y_clamp must be positive, got {y_clamp}")
    times = ensemble.partition.times
    X, dW = ensemble.states, ensemble.increments
    P, n, d = X.shape[0], times.size - 1, ensemble.d

    Y = np.empty((P, n + 1))
    Z = np.empty((P, n, d))
    Y[:, n] = terminal[:, 0]
    meta = SolverMeta(basis=basis.describe(), picard_iters=picard_iters,
                      y_residual_rms=np.empty(n), z_residual_rms=np.empty(n),
                      picard_residuals=np.empty(n), conditions=np.empty(n),
                      fallback_cells=np.zeros(n, dtype=np.int64))

    for i in range(n - 1, -1, -1):
        design = step_design(basis, X[:, i], step=i)
        y, z, info_y, info_z, pic_res = _backward_step(
            (model,), design, times[i], times[i + 1] - times[i], X[:, i],
            Y[:, i + 1:i + 2], dW[:, i], picard_iters, y_clamp)
        Y[:, i] = y[:, 0]
        Z[:, i] = z[:, 0]
        meta.y_residual_rms[i] = info_y.residual_rms[0]
        meta.z_residual_rms[i] = float(np.mean(info_z.residual_rms))
        meta.picard_residuals[i] = pic_res[0]
        meta.conditions[i] = max(info_y.condition, info_z.condition)
        meta.fallback_cells[i] = info_y.fallback_cells + info_z.fallback_cells

    return BackwardSolution(partition=ensemble.partition, Y=Y, Z=Z, Zbar=None,
                            meta=meta)


def compute_zbar(solution: BackwardSolution, ensemble: PathEnsemble,
                 basis: RegressionBasis) -> BackwardSolution:
    """Per-step regression of Z on the state (the adapted projection of the
    control on the solver's own grid, where Z is constant on each step)."""
    if solution.Z.shape[:2] != (ensemble.n_paths, ensemble.partition.n_steps):
        raise InvalidParameters("solution and ensemble disagree on shape")
    n = solution.partition.n_steps
    zbar = np.empty_like(solution.Z)
    for i in range(n):
        fit, _ = fit_step(basis, ensemble.states[:, i], solution.Z[:, i], step=i)
        zbar[:, i] = fit
    return replace(solution, Zbar=zbar)


def project_window_average(fine_sol: BackwardSolution, fine_ens: PathEnsemble,
                           coarse: Partition, basis: RegressionBasis) -> np.ndarray:
    """Adapted projection of a fine-grid control onto coarse windows.

    For each coarse window the target is the time average of the fine Z over
    the window; regressing it on the state at the window's left node gives
    the best (within the basis) measurable approximation of the window-mean
    control, the quantity the path-regularity sum is built from.
    Returns (P, N_coarse, d).
    """
    idx = nested_indices(coarse, fine_sol.partition)
    dtf = fine_sol.partition.dt
    P, _, d = fine_sol.Z.shape
    out = np.empty((P, coarse.n_steps, d))
    for i in range(coarse.n_steps):
        j0, j1 = idx[i], idx[i + 1]
        h = coarse.times[i + 1] - coarse.times[i]
        avg = np.einsum("pjd,j->pd", fine_sol.Z[:, j0:j1], dtf[j0:j1]) / h
        fit, _ = fit_step(basis, fine_ens.states[:, j0], avg, step=i)
        out[:, i] = fit
    return out


def solve_quadrature_1d(model: ModelSpec, partition: Partition,
                        space_nodes: int = 128, space_bound: float | None = None,
                        gh_nodes: int = 64, picard_iters: int = 3,
                        leak_tol: float = 1e-6):
    """Deterministic dynamic programming on a one-dimensional space grid.

    Conditional expectations use Gauss-Hermite quadrature against the exact
    one-step Euler Gaussian transition; z comes from the dW-weighted
    quadrature. Values between grid nodes are cubic-spline interpolated and
    the read-out at x0 goes through the spline as well. Returns (y0, z0).
    """
    _require_lipschitz_driver(model)
    if model.m != 1 or model.d != 1:
        raise InvalidParameters("quadrature solver handles m = d = 1 only")
    if space_nodes < 8:
        raise InvalidParameters(f"space_nodes must be >= 8, got {space_nodes}")
    times = partition.times
    x0 = float(model.x0[0])
    T = partition.horizon

    probe = np.linspace(x0 - 1.0, x0 + 1.0, 9)[:, None]
    sig_scale = float(np.abs(model.sigma(0.0, probe)).max())
    if space_bound is None:
        space_bound = 6.0 * max(sig_scale, 1e-12) * np.sqrt(T)
    lo, hi = x0 - space_bound, x0 + space_bound
    grid = np.linspace(lo, hi, space_nodes)
    gx = grid[:, None]

    sig_max = max(float(np.abs(model.sigma(t, gx)).max()) for t in
                  (times[0], times[times.size // 2], times[-1]))
    dist = min(hi - x0, x0 - lo)
    leak = 2.0 * ndtr(-dist / max(sig_max * np.sqrt(T), 1e-300))
    if leak > leak_tol:
        raise DomainTooSmall(
            f"grid bounds leak {leak:.3e} of the terminal mass (tol {leak_tol:.1e}); "
            f"widen space_bound")

    u, w = hermgauss(gh_nodes)
    wn = w / np.sqrt(np.pi)
    xi = np.sqrt(2.0) * u  # standard normal nodes

    y = np.asarray(model.g(gx))
    z_grid = None
    for i in range(times.size - 2, -1, -1):
        dt = times[i + 1] - times[i]
        t = times[i]
        spline = CubicSpline(grid, y)
        drift = np.asarray(model.b(t, gx))[:, 0]
        vol = np.asarray(model.sigma(t, gx))[:, 0, 0]
        pts = np.clip(grid[:, None] + drift[:, None] * dt
                      + vol[:, None] * np.sqrt(dt) * xi[None, :], lo, hi)
        vals = spline(pts)
        ey = vals @ wn
        z_grid = (vals * xi[None, :]) @ wn / np.sqrt(dt)
        y, _ = _picard_resolve(model, t, gx, ey, z_grid[:, None], dt,
                               picard_iters, step=i)
        if not np.isfinite(y).all():
            raise NumericalBlowup("non-finite grid values in quadrature sweep", step=i)

    y0 = float(CubicSpline(grid, y)(x0))
    z0 = float(CubicSpline(grid, z_grid)(x0))
    return y0, z0
