"""Backward solvers: regression Monte Carlo and a one-dimensional quadrature scheme.

Both walk the same one-step recursion backward from the terminal condition:

    Z_i = E[ Y_{i+1} dW_i | X_i ] / dt_i
    Y_i = E[ Y_{i+1} | X_i ] + dt_i * f(t_i, X_i, Y_i, Z_i)

implicit in Y (resolved by a few Picard passes), explicit in Z. The Monte
Carlo solver estimates the conditional expectations by least-squares
regression on the state, both as projections on one regression design per
step (_martingale_pair, which the gradient solve in variational shares); the
same one-step kernel advances several drivers on shared paths at once (the
truncation sweep in diagnostics), and a coarse and a nested fine solve in
lockstep on shared designs (the regularity pass in diagnostics).
The quadrature solver computes them exactly against the one-step Euler
Gaussian transition and serves as a slow, grid-bound cross-check for
one-dimensional models.

Z is fixed while the Picard passes run. So both solvers clamp a truncated
driver's z once per step and column (truncation.clamped_driver) and run the
passes on the untruncated driver, and the passes stop as soon as one leaves
y unchanged: every later pass would reproduce it bit for bit, with residual
0. A driver that does not depend on y therefore takes two passes.

The Z regression target is centered by the fitted conditional mean of
Y_{i+1}: since that center is a function of X_i alone, the conditional
expectation is unchanged, while the 1/dt variance inflation of the raw
product target disappears.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.interpolate import CubicSpline
from scipy.special import ndtr

from .errors import (DomainTooSmall, InvalidParameters, NumericalBlowup,
                     PicardDivergence, RejectedModel)
from .model import ModelSpec, Partition, empty_time_major
from .regression import RegressionBasis, StepDesign, project, step_design
from .sde import PathEnsemble
from .truncation import clamped_driver


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

    Y: (P, N+1), Z: (P, N, d), both stored time-major like the ensemble
    (Y[:, i] and Z[:, i] are contiguous).
    """

    partition: Partition
    Y: np.ndarray
    Z: np.ndarray
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


def _picard_resolve(f, t, x, base, z, dt, picard_iters, step):
    """At most picard_iters fixed-point passes for y = base + dt f(t, x, y, z).

    A pass that leaves y unchanged ends the loop: the remaining passes would
    return the same y with residual 0 and could not diverge, so y and the
    residual are those of the full count.
    """
    y = base
    prev = None
    for _ in range(picard_iters):
        y_new = base + dt * np.asarray(f(t, x, y, z))
        res = float(np.sqrt(np.mean((y_new - y) ** 2)))
        if (prev is not None and res > prev
                and res > 1e-12 * max(1.0, float(np.sqrt(np.mean(y_new ** 2))))):
            raise PicardDivergence(
                f"inner iteration residual grew {prev:.3e} -> {res:.3e}", step=step)
        # res is 0 also when the squared changes underflow; only equal values stop
        stop = res == 0.0 and np.array_equal(y_new, y)
        y, prev = y_new, res
        if stop:
            break
    return y, prev if prev is not None else 0.0


def _start_backward(models, ensemble: PathEnsemble, picard_iters,
                    y_clamp=None) -> np.ndarray:
    """Check the solver inputs of every model and return the terminal values,
    one column per model."""
    for model in models:
        _check_solver_inputs(model, ensemble)
    if picard_iters < 1:
        raise InvalidParameters(f"picard_iters must be >= 1, got {picard_iters}")
    if y_clamp is not None and y_clamp <= 0:
        raise InvalidParameters(f"y_clamp must be positive, got {y_clamp}")
    n = ensemble.partition.n_steps
    x_n = ensemble.states[:, n]
    y = np.column_stack([np.asarray(model.g(x_n)) for model in models])
    if not np.isfinite(y).all():
        raise NumericalBlowup("non-finite terminal values", step=n)
    return y


def _martingale_pair(design: StepDesign, ensemble: PathEnsemble, i, v_next):
    """The two conditional expectations of step i for the targets v_next
    (P, k) at node i + 1, each one projection on the design at node i.

    Returns E[v | X_i] (P, k), E[(v - E[v | X_i]) dW_i | X_i] / dt_i
    (P, k, d), and the residual RMS of the two projections, (k,) and
    (k * d,).
    """
    times = ensemble.partition.times
    dt = times[i + 1] - times[i]
    dw = ensemble.increments[:, i]
    mean, mean_rms = project(design, v_next)
    targets = (v_next - mean)[:, :, None] * dw[:, None, :] / dt
    z, z_rms = project(design, targets.reshape(len(targets), -1))
    return mean, z.reshape(targets.shape), mean_rms, z_rms


def _backward_step(models, design: StepDesign, ensemble: PathEnsemble, i, y_next,
                   picard_iters, y_clamp=None):
    """Step i of the recursion for several drivers on the ensemble's paths.

    design is the step's design on the state at node i. Column j of y_next
    (P, k) and of the returned y (P, k) and z (P, k, d) belongs to
    models[j]. The conditional expectations come from _martingale_pair; the
    implicit step is resolved column by column, so divergence is checked
    per driver. Returns (y, z, residual RMS of the Y and of the Z
    projection, picard residual per column).
    """
    times = ensemble.partition.times
    t, dt = times[i], times[i + 1] - times[i]
    x = ensemble.states[:, i]
    P, k = y_next.shape
    cond_mean, z, y_rms, z_rms = _martingale_pair(design, ensemble, i, y_next)
    y = np.empty((P, k))
    residuals = np.empty(k)
    for j, model in enumerate(models):
        driver, zj = clamped_driver(model, z[:, j])
        y[:, j], residuals[j] = _picard_resolve(driver.f, t, x, cond_mean[:, j], zj,
                                                dt, picard_iters, step=i)
    if y_clamp is not None:
        np.clip(y, -y_clamp, y_clamp, out=y)
    if not (np.isfinite(y).all() and np.isfinite(z).all()):
        raise NumericalBlowup("non-finite backward value", step=i)
    return y, z, y_rms, z_rms, residuals


def _empty_solution(ensemble: PathEnsemble, basis: RegressionBasis, picard_iters,
                    terminal) -> BackwardSolution:
    """Time-major Y and Z on the ensemble's grid with the terminal values in
    place, for _store_step to fill backward."""
    P, n, d = ensemble.n_paths, ensemble.partition.n_steps, ensemble.d
    Y = empty_time_major(n + 1, P)
    Y[:, n] = terminal
    meta = SolverMeta(basis=basis.describe(), picard_iters=picard_iters,
                      y_residual_rms=np.empty(n), z_residual_rms=np.empty(n),
                      picard_residuals=np.empty(n), conditions=np.empty(n),
                      fallback_cells=np.zeros(n, dtype=np.int64))
    return BackwardSolution(partition=ensemble.partition, Y=Y,
                            Z=empty_time_major(n, P, (d,)), meta=meta)


def _store_step(sol: BackwardSolution, i, design: StepDesign, y, z, y_rms, z_rms,
                picard_residuals):
    """Write step i of a one-driver _backward_step on the design into the
    solution."""
    sol.Y[:, i] = y[:, 0]
    sol.Z[:, i] = z[:, 0]
    sol.meta.y_residual_rms[i] = y_rms[0]
    sol.meta.z_residual_rms[i] = float(np.mean(z_rms))
    sol.meta.picard_residuals[i] = picard_residuals[0]
    sol.meta.conditions[i] = design.condition
    sol.meta.fallback_cells[i] = design.fallback_cells


def solve_backward_regression(model: ModelSpec, ensemble: PathEnsemble,
                              basis: RegressionBasis, picard_iters: int = 3,
                              y_clamp: float | None = None) -> BackwardSolution:
    """Regression Monte Carlo dynamic programming over the ensemble.

    y_clamp, when given, caps |Y_i| at an a-priori sup bound after every
    step. Off by default; it is a variance control for heavy-tailed
    regression overshoot, not part of the scheme.
    """
    terminal = _start_backward((model,), ensemble, picard_iters, y_clamp)
    sol = _empty_solution(ensemble, basis, picard_iters, terminal[:, 0])
    for i in range(ensemble.partition.n_steps - 1, -1, -1):
        design = step_design(basis, ensemble.states[:, i], step=i)
        _store_step(sol, i, design, *_backward_step((model,), design, ensemble, i,
                                                    sol.Y[:, i + 1:i + 2],
                                                    picard_iters, y_clamp))
    return sol


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
    if gh_nodes < 1:
        raise InvalidParameters(f"gh_nodes must be >= 1, got {gh_nodes}")
    if space_bound is not None and not space_bound > 0:
        raise InvalidParameters(f"space_bound must be > 0, got {space_bound}")
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
        driver, zc = clamped_driver(model, z_grid[:, None])
        y, _ = _picard_resolve(driver.f, t, gx, ey, zc, dt, picard_iters, step=i)
        if not np.isfinite(y).all():
            raise NumericalBlowup("non-finite grid values in quadrature sweep", step=i)

    y0 = float(CubicSpline(grid, y)(x0))
    z0 = float(CubicSpline(grid, z_grid)(x0))
    return y0, z0
