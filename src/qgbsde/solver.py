"""Backward solvers: regression Monte Carlo and a one-dimensional quadrature scheme.

Both walk the same one-step recursion backward from the terminal condition:

    Z_i = E[ Y_{i+1} dW_i | X_i ] / dt_i
    Y_i = E[ Y_{i+1} | X_i ] + dt_i * f(t_i, X_i, Y_i, Z_i)

implicit in Y (at most PICARD_PASSES Picard passes), explicit in Z, with
dW_i derived from the states once per step (sde.euler_increment). The Monte
Carlo solver estimates the conditional expectations by least-squares
regression on the state, both as projections on one regression design per
step (_martingale_pair, which the gradient solve in variational shares),
and resolves the implicit step under one driver (_implicit_step). One
generator, backward_walk, is the node loop of every whole-grid pass: it
builds the designs, derives the increments and steps one row, keeping its
per-step health (SolverMeta). The solve here stores that row; the passes in
diagnostics step their other rows on its nodes through the same single-row
kernel (_row_pair): the regularity pass each window's fine rows, the
truncation sweep each level's row that left the reference's.
The quadrature solver computes them exactly against the one-step Euler
Gaussian transition and serves as a slow, grid-bound cross-check for
one-dimensional models.

Both solvers call the model's own driver; a truncated driver clamps z on
each call, and not at all when its max |z| is within the level. The Picard
passes stop as soon as one leaves y unchanged: every later pass would
reproduce it bit for bit, with residual 0. A driver that does not depend on
y therefore takes two passes.

The Z regression target is centered by the fitted conditional mean of
Y_{i+1}: since that center is a function of X_i alone, the conditional
expectation is unchanged, while the 1/dt variance inflation of the raw
product target disappears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainTooSmall, InvalidParameters, NumericalBlowup,
                     PicardDivergence, RejectedModel)
from .model import ModelSpec, Partition, empty_time_major
from .regression import RegressionBasis, StepDesign, project, step_design
from .sde import PathEnsemble

# the most Picard passes one implicit step takes (see _picard_resolve)
PICARD_PASSES = 3


@dataclass(eq=False)
class SolverMeta:
    y_residual_rms: np.ndarray
    z_residual_rms: np.ndarray
    picard_residuals: np.ndarray
    conditions: np.ndarray
    fallback_cells: np.ndarray


@dataclass(frozen=True, eq=False)
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


def _picard_resolve(f, t, x, base, z, dt, step):
    """At most PICARD_PASSES fixed-point passes for y = base + dt f(t, x, y, z).

    A pass that leaves y unchanged ends the loop: the remaining passes would
    return the same y with residual 0 and could not diverge, so y and the
    residual are those of the full count. The residual is computed only for
    a pass that changed y.
    """
    y = base
    prev = None
    for _ in range(PICARD_PASSES):
        y_new = base + dt * np.asarray(f(t, x, y, z))
        if np.array_equal(y_new, y):
            return y_new, 0.0
        res = float(np.sqrt(np.mean((y_new - y) ** 2)))
        if (prev is not None and res > prev
                and res > 1e-12 * max(1.0, float(np.sqrt(np.mean(y_new ** 2))))):
            raise PicardDivergence(
                f"inner iteration residual grew {prev:.3e} -> {res:.3e}", step=step)
        y, prev = y_new, res
    return y, prev if prev is not None else 0.0


def _martingale_pair(design: StepDesign, ensemble: PathEnsemble, i, dw, v_next):
    """The two conditional expectations of step i for the targets v_next
    (P, k) at node i + 1, each one projection on the design at node i, with
    dw (P, d) the step's increment (the sum of PathEnsemble.window).

    Returns E[v | X_i] (P, k), E[(v - E[v | X_i]) dW_i | X_i] / dt_i
    (P, k, d), and the residual RMS of the two projections, (k,) and
    (k * d,).
    """
    times = ensemble.partition.times
    dt = times[i + 1] - times[i]
    mean, mean_rms = project(design, v_next)
    targets = (v_next - mean)[:, :, None] * dw[:, None, :] / dt
    z, z_rms = project(design, targets.reshape(len(targets), -1))
    return mean, z.reshape(targets.shape), mean_rms, z_rms


def _implicit_step(model: ModelSpec, ensemble: PathEnsemble, i, cond_mean, z):
    """The implicit step i under model's driver for the conditional mean
    (P,) and z (P, d). Returns y (P,) and the Picard residual; raises
    NumericalBlowup when y or z is not finite.
    """
    times = ensemble.partition.times
    y, residual = _picard_resolve(model.f, times[i], ensemble.states[:, i], cond_mean,
                                  z, times[i + 1] - times[i], step=i)
    if not (np.isfinite(y).all() and np.isfinite(z).all()):
        raise NumericalBlowup("non-finite backward value", step=i)
    return y, residual


def _row_pair(design: StepDesign, ensemble: PathEnsemble, i, dw, y_next):
    """_martingale_pair for one row y_next (P,) at node i + 1. Returns the
    conditional mean (P,), z (P, d), the residual RMS of the Y projection
    and the mean residual RMS of the Z projection.
    """
    mean, z, y_rms, z_rms = _martingale_pair(design, ensemble, i, dw, y_next[:, None])
    return mean[:, 0], z[:, 0], float(y_rms[0]), float(np.mean(z_rms))


def backward_walk(model: ModelSpec, ensemble: PathEnsemble, basis: RegressionBasis):
    """The backward pass of one row under model's driver over the ensemble.

    Yields the terminal row g(X_N) (P,) and the SolverMeta it fills, then
    for i = N - 1 down to 0 (i, design, dws, dw, pair, y): node i's design,
    the step's increments in forward order and their sum (ensemble.window),
    the row's _row_pair and its new values (_implicit_step). It drops the
    design, the increments and the pair when resumed, so that node i's
    design is built after node i + 1's is released, once the caller has let
    go of them too. A driver not certified Lipschitz raises RejectedModel,
    dims other than the model's InvalidParameters, and a non-finite terminal
    row NumericalBlowup with step N, all before any step.
    """
    _require_lipschitz_driver(model)
    if ensemble.m != model.m or ensemble.d != model.d:
        raise InvalidParameters(
            f"ensemble dims (m={ensemble.m}, d={ensemble.d}) do not match the model "
            f"(m={model.m}, d={model.d})")
    n = ensemble.partition.n_steps
    y = np.asarray(model.g(ensemble.states[:, n]))
    if not np.isfinite(y).all():
        raise NumericalBlowup("non-finite terminal values", step=n)
    meta = SolverMeta(y_residual_rms=np.empty(n), z_residual_rms=np.empty(n),
                      picard_residuals=np.empty(n), conditions=np.empty(n),
                      fallback_cells=np.zeros(n, dtype=np.int64))
    yield y, meta
    for i in range(n - 1, -1, -1):
        design = step_design(basis, ensemble.states[:, i], step=i)
        dws, dw = ensemble.window(model, i)
        pair = _row_pair(design, ensemble, i, dw, y)
        y, meta.picard_residuals[i] = _implicit_step(model, ensemble, i, *pair[:2])
        meta.y_residual_rms[i], meta.z_residual_rms[i] = pair[2:]
        meta.conditions[i] = design.condition
        meta.fallback_cells[i] = design.fallback_cells
        yield i, design, dws, dw, pair, y
        del design, dws, dw, pair


def solve_backward_regression(model: ModelSpec, ensemble: PathEnsemble,
                              basis: RegressionBasis) -> BackwardSolution:
    """Regression Monte Carlo dynamic programming: backward_walk's rows.

    Each step regresses on one design of the state (step_design) and resolves
    the implicit step with at most PICARD_PASSES passes. Y is whatever the
    scheme gives: the a-priori bound on the exact |Y| is not imposed.
    """
    P, n, d = ensemble.n_paths, ensemble.partition.n_steps, ensemble.d
    Y = empty_time_major(n + 1, P)
    Z = empty_time_major(n, P, (d,))
    walk = backward_walk(model, ensemble, basis)
    Y[:, n], meta = next(walk)
    for i, *_, pair, y in walk:
        Y[:, i], Z[:, i] = y, pair[1]
        del _, pair  # not held through the walk's next step
    return BackwardSolution(partition=ensemble.partition, Y=Y, Z=Z, meta=meta)


# fixed sizes of the quadrature: space grid nodes, Gauss-Hermite nodes, the
# largest share of the terminal mass the grid may leak, and how often its
# half-width may double to get there
_GRID_SIZE = 128
_HERMITE_SIZE = 64
_MAX_LEAK = 1e-6
_MAX_DOUBLINGS = 8


def _space_grid(model: ModelSpec, times, x0, T) -> np.ndarray:
    """The space grid of solve_quadrature_1d, centred at x0.

    The half-width starts at 6 sigma sqrt(T), with sigma the largest
    volatility within 1 of x0, and doubles while the grid leaks more than
    _MAX_LEAK of the terminal mass: the mass a Gaussian of the largest
    volatility on the grid puts beyond its nearer end. Raises DomainTooSmall
    when _MAX_DOUBLINGS doublings do not get there: a volatility linear in x
    grows with the half-width, so the leak levels off (above _MAX_LEAK for
    gbm with vol above about 0.2).
    """
    probe = np.linspace(x0 - 1.0, x0 + 1.0, 9)[:, None]
    width = 6.0 * max(float(np.abs(model.sigma(0.0, probe)).max()), 1e-12) * np.sqrt(T)
    for k in range(_MAX_DOUBLINGS + 1):
        half = width * 2.0 ** k
        lo, hi = x0 - half, x0 + half
        grid = np.linspace(lo, hi, _GRID_SIZE)
        sig_max = max(float(np.abs(model.sigma(t, grid[:, None])).max()) for t in
                      (times[0], times[times.size // 2], times[-1]))
        dist = min(hi - x0, x0 - lo)
        leak = math.erfc(dist / max(sig_max * math.sqrt(T), 1e-300) / math.sqrt(2.0))
        if leak <= _MAX_LEAK:
            return grid
    raise DomainTooSmall(
        f"space grid of half-width {half:g} still leaks {leak:.3e} of the terminal "
        f"mass (tol {_MAX_LEAK:.1e}) after {_MAX_DOUBLINGS} doublings")


def _not_a_knot_slopes(grid) -> np.ndarray:
    """The (n, n) matrix K whose product K @ y holds the node slopes of the
    not-a-knot cubic spline through the values y on grid: the end conditions
    and linear system of scipy.interpolate.CubicSpline's default.
    """
    n = grid.size
    dx = np.diff(grid)
    chords = (np.eye(n - 1, n, 1) - np.eye(n - 1, n)) / dx[:, None]
    # lhs @ slopes = rhs @ chord slopes: a continuous second derivative at
    # each inner node, a continuous third derivative at the second and the
    # second-to-last node
    lhs = np.zeros((n, n))
    rhs = np.zeros((n, n - 1))
    i = np.arange(1, n - 1)
    lhs[i, i - 1], lhs[i, i], lhs[i, i + 1] = dx[1:], 2.0 * (dx[:-1] + dx[1:]), dx[:-1]
    rhs[i, i - 1], rhs[i, i] = 3.0 * dx[1:], 3.0 * dx[:-1]
    d0, d1 = grid[2] - grid[0], grid[-1] - grid[-3]
    lhs[0, :2] = dx[1], d0
    rhs[0, :2] = (dx[0] + 2.0 * d0) * dx[1] / d0, dx[0] ** 2 / d0
    lhs[-1, -2:] = d1, dx[-2]
    rhs[-1, -2:] = dx[-1] ** 2 / d1, (2.0 * d1 + dx[-1]) * dx[-2] / d1
    return np.linalg.solve(lhs, rhs @ chords)


def _spline(grid, slope_map, y, pts) -> np.ndarray:
    """The not-a-knot cubic spline through y on the uniform grid, at pts
    within the grid; slope_map is _not_a_knot_slopes(grid).

    Each point's interval follows from the grid step: a binary search took
    the 64-step quadrature of the quadratic preset from 14 to 21 ms (one
    BLAS thread, 2 vCPUs).
    """
    slopes = slope_map @ y
    dx = np.diff(grid)
    chord = np.diff(y) / dx
    t = (slopes[:-1] + slopes[1:] - 2.0 * chord) / dx
    c3, c2, c1 = t / dx, (chord - slopes[:-1]) / dx - t, slopes[:-1]
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    k = np.clip(((pts - grid[0]) / h).astype(np.intp), 0, grid.size - 2)
    s = pts - grid[k]
    return ((c3[k] * s + c2[k]) * s + c1[k]) * s + y[k]


def solve_quadrature_1d(model: ModelSpec, partition: Partition):
    """Deterministic dynamic programming on a one-dimensional space grid.

    The grid has _GRID_SIZE nodes and a half-width that _space_grid doubles
    until the grid holds the terminal mass. Conditional expectations use
    _HERMITE_SIZE-node Gauss-Hermite quadrature against the exact one-step
    Euler Gaussian transition; z comes from the dW-weighted quadrature.
    Values between grid nodes come from the not-a-knot cubic spline, whose
    map from node values to node slopes is solved once per grid, and the
    read-out at x0 goes through the spline as well. Returns (y0, z0).
    """
    from numpy.polynomial.hermite import hermgauss  # only this solver needs it

    _require_lipschitz_driver(model)
    if model.m != 1 or model.d != 1:
        raise InvalidParameters("quadrature solver handles m = d = 1 only")
    times = partition.times
    x0 = float(model.x0[0])
    grid = _space_grid(model, times, x0, partition.horizon)
    lo, hi = grid[0], grid[-1]
    gx = grid[:, None]
    slope_map = _not_a_knot_slopes(grid)

    u, w = hermgauss(_HERMITE_SIZE)
    wn = w / np.sqrt(np.pi)
    xi = np.sqrt(2.0) * u  # standard normal nodes

    y = np.asarray(model.g(gx))
    z_grid = None
    for i in range(times.size - 2, -1, -1):
        dt = times[i + 1] - times[i]
        t = times[i]
        drift = np.asarray(model.b(t, gx))[:, 0]
        vol = np.asarray(model.sigma(t, gx))[:, 0, 0]
        pts = np.clip(grid[:, None] + drift[:, None] * dt
                      + vol[:, None] * np.sqrt(dt) * xi[None, :], lo, hi)
        vals = _spline(grid, slope_map, y, pts)
        ey = vals @ wn
        z_grid = (vals * xi[None, :]) @ wn / np.sqrt(dt)
        y, _ = _picard_resolve(model.f, t, gx, ey, z_grid[:, None], dt, step=i)
        if not np.isfinite(y).all():
            raise NumericalBlowup("non-finite grid values in quadrature sweep", step=i)

    return (float(_spline(grid, slope_map, y, x0)),
            float(_spline(grid, slope_map, z_grid, x0)))
