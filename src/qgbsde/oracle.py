"""Closed-form references for validating the solvers.

For b = 0, constant sigma, driver (gamma/2) |z|^2 and bounded terminal g, the
exponential (Cole-Hopf) transform linearizes the backward equation: with
X_t = x0 + sigma W_t the solution is Y_t = u(t, X_t), where

    u(t, x) = (1/gamma) log E[ exp(gamma g(x + sigma (W_T - W_t))) ],

and Z_0 = sigma E[ g'(X_T) e^{gamma g(X_T)} ] / E[ e^{gamma g(X_T)} ].

Every expectation is a trapezoidal sum over one lattice of Brownian positions
W = k delta, weights delta phi_tau(k delta) for W_tau ~ N(0, tau), cut at 9
standard deviations. It converges geometrically in 1/delta for integrands
analytic in a strip (Trefethen & Weideman 2014, SIAM Review), steep terminals
included. delta = 0.025, or sqrt(h) / 2 for a grid whose finest step h needs
less. u(t, .) on the lattice is one discrete Gaussian convolution of
exp(gamma g), and as X_s and X_t - X_s land on the same lattice,
cole_hopf_increment_stat evaluates the closed-form counterpart of the
y_increment_sq statistic of diagnostics.regularity_pass as a double sum of
lattice values. The error estimate is the change under step halving; one
above tolerance, or exp(gamma g) beyond double range, raises
QuadratureUnstable.

Separately, bmo_bound gives the closed-form bound on the BMO norm of the
control process implied by a bounded terminal value and the quadratic growth
certificate M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidParameters, QuadratureUnstable
from .model import ModelSpec, Partition, nested_indices

# exp(gamma g) stays in double range for |gamma g| <= EXP_RANGE; step-halving
# tolerances on y0 (absolute) and on the increment statistic (relative)
EXP_RANGE = 700.0
Y0_TOL = 1e-8
INCREMENT_RTOL = 1e-4


@dataclass(frozen=True)
class OracleResult:
    y0: float
    z0: float | None
    error_estimate: float


def _lattice_step(finest_time_step: float) -> float:
    return min(0.025, 0.5 * math.sqrt(finest_time_step))


def _weights(tau, delta):
    """Trapezoid weights delta phi_tau(k delta), |k delta| <= 9 sqrt(tau), of
    W_tau ~ N(0, tau); a point mass when tau is below the lattice's reach."""
    K = int(9.0 * math.sqrt(max(tau, 0.0)) / delta)
    if K == 0:
        return np.ones(1)
    w = delta * np.arange(-K, K + 1)
    return delta / math.sqrt(2.0 * math.pi * tau) * np.exp(-w * w / (2.0 * tau))


def _exp_gamma_g(gamma, terminal, pts):
    gv = np.asarray(terminal(pts))
    if not np.isfinite(gv).all():
        raise InvalidParameters("terminal function returned non-finite values")
    peak = float(np.abs(gamma * gv).max())
    if peak > EXP_RANGE:
        raise QuadratureUnstable(f"exp(gamma g) is not finite in double precision "
                                 f"on the lattice: |gamma g| reaches {peak:.3e}")
    return np.exp(gamma * gv)


def _moments(gamma, terminal, terminal_grad, x0, sigma, T, delta):
    """(Y_0, Z_0) by the lattice rule of W_T with step delta."""
    w = _weights(T, delta)
    pts = x0 + sigma * delta * np.arange(-(w.size // 2), w.size // 2 + 1)
    w = w * _exp_gamma_g(gamma, terminal, pts)
    ey = float(w.sum())
    z0 = (None if terminal_grad is None
          else sigma * float(np.asarray(terminal_grad(pts)) @ w) / ey)
    return math.log(ey) / gamma, z0


def cole_hopf_reference(gamma: float, terminal, x0: float, sigma: float, T: float,
                        terminal_grad=None) -> OracleResult:
    """Reference (Y_0, Z_0) for the purely quadratic driver.

    terminal (and terminal_grad, if given) act on a plain 1-d array of
    points. Z_0 is only computed when terminal_grad is supplied. Returns the
    values at half the lattice step; a change in y0 above Y0_TOL under the
    halving raises QuadratureUnstable.
    """
    if gamma == 0.0:
        raise InvalidParameters("gamma must be nonzero")
    if sigma <= 0.0 or T <= 0.0:
        raise InvalidParameters(f"need sigma > 0 and T > 0, got sigma={sigma}, T={T}")
    delta = _lattice_step(T)
    y0, _ = _moments(gamma, terminal, None, x0, sigma, T, delta)
    y0_fine, z0_fine = _moments(gamma, terminal, terminal_grad, x0, sigma, T,
                                delta / 2.0)
    err = abs(y0 - y0_fine)
    if not err <= Y0_TOL:
        raise QuadratureUnstable(
            f"value moved {err:.3e} under step halving (lattice step {delta:g} "
            f"-> {delta / 2.0:g}), tolerance {Y0_TOL:.1e}")
    return OracleResult(y0=y0_fine, z0=z0_fine, error_estimate=err)


def _closed_form_inputs(model: ModelSpec):
    """(gamma, terminal, terminal_grad, x0, sigma) of a model the transform solves.

    Requires m = d = 1, vanishing drift, state-independent diffusion, and a
    driver of the form (gamma/2)|z|^2 (as certified by the preset metadata);
    raises InvalidParameters otherwise.
    """
    if model.m != 1 or model.d != 1:
        raise InvalidParameters("oracle needs a one-dimensional model")
    meta = model.meta
    if meta.get("preset") != "quadratic" or meta.get("rate", 0.0) != 0.0:
        raise InvalidParameters(
            "oracle applies to the purely quadratic driver presets only")
    probe = np.linspace(-1.0, 1.0, 7)[:, None] + model.x0[0]
    for t in (0.0, 0.5 * model.T, model.T):
        if np.any(np.asarray(model.b(t, probe)) != 0.0):
            raise InvalidParameters("oracle needs zero drift")
        sig = np.asarray(model.sigma(t, probe))[:, 0, 0]
        if np.any(sig != sig[0]):
            raise InvalidParameters("oracle needs state-independent diffusion")
    sigma = float(np.asarray(model.sigma(0.0, probe))[0, 0, 0])
    grad = None
    if model.g_grad is not None:
        grad = lambda pts: np.asarray(model.g_grad(pts[:, None]))[:, 0]
    terminal = lambda pts: np.asarray(model.g(pts.reshape(-1, 1))).reshape(pts.shape)
    return meta["gamma"], terminal, grad, float(model.x0[0]), sigma


def cole_hopf_from_model(model: ModelSpec) -> OracleResult:
    """Apply the reference to a model after probing its preconditions
    (see _closed_form_inputs)."""
    gamma, terminal, grad, x0, sigma = _closed_form_inputs(model)
    return cole_hopf_reference(gamma, terminal, x0, sigma, model.T, grad)


def _increments(gamma, terminal, x0, sigma, T, times, pairs, delta):
    """E (u(t, X_t) - u(s, X_s))^2 for each (s, t) = (times[a], times[b]) of
    pairs, by the lattice rule with step delta.

    With K the half-width of W_T, g sits on |k| <= 3K and u(t, .) on
    |k| <= 2K: W_s, W_t - W_s and the inner W_T - W_t each span at most K.
    """
    K = _weights(T, delta).size // 2
    expg = _exp_gamma_g(gamma, terminal,
                        x0 + sigma * delta * np.arange(-3 * K, 3 * K + 1))
    u = []
    for t in times:
        w = _weights(T - t, delta)
        J = w.size // 2
        u.append(np.log(np.convolve(expg, w, "valid")[K - J:5 * K - J + 1]) / gamma)
    out = []
    for a, b in pairs:
        ps, pj = _weights(times[a], delta), _weights(times[b] - times[a], delta)
        I, J = ps.size // 2, pj.size // 2
        # rows[i, j] = u(t) at W_s + W_t - W_s = (i + j) delta
        rows = sliding_window_view(u[b][2 * K - I - J:2 * K + I + J + 1], 2 * J + 1)
        ys = u[a][2 * K - I:2 * K + I + 1, None]
        out.append(float(ps @ ((rows - ys) ** 2 @ pj)))
    return np.array(out)


def cole_hopf_increment_stat(model: ModelSpec, base: Partition,
                             fine: Partition) -> float:
    """Closed-form value of the y_increment_sq statistic of
    diagnostics.regularity_pass on (base, fine).

    max over the windows [t_i, t_{i+1}] of base, and over the fine nodes t in
    (t_i, t_{i+1}], of E (Y_t - Y_{t_i})^2 for the exact solution
    Y_t = u(t, X_t), X_t = x0 + sigma W_t. The maximizing term is
    re-evaluated at half the lattice step and returned; a relative change
    above INCREMENT_RTOL raises QuadratureUnstable. The model must meet the
    preconditions of the oracle (see _closed_form_inputs).
    """
    gamma, terminal, _, x0, sigma = _closed_form_inputs(model)
    if abs(fine.horizon - model.T) > 1e-9:
        raise InvalidParameters(
            f"grid horizon {fine.horizon} differs from the model's {model.T}")
    idx = nested_indices(base, fine)
    t = fine.times
    delta = _lattice_step(float(np.diff(t).min()))
    pairs = [(lo, end) for lo, hi in zip(idx[:-1], idx[1:])
             for end in range(lo + 1, hi + 1)]
    vals = _increments(gamma, terminal, x0, sigma, model.T, t, pairs, delta)
    k = int(np.argmax(vals))
    worst = float(vals[k])
    fine_value = float(_increments(gamma, terminal, x0, sigma, model.T,
                                   t[list(pairs[k])], [(0, 1)], delta / 2.0)[0])
    err = abs(worst - fine_value)
    if not err <= INCREMENT_RTOL * fine_value:
        raise QuadratureUnstable(
            f"increment statistic {fine_value:.6e} moved {err:.3e} under step "
            f"halving (lattice step {delta:g} -> {delta / 2.0:g}), relative "
            f"tolerance {INCREMENT_RTOL:.1e}")
    return fine_value


def bmo_bound(M: float, T: float, xi_sup: float) -> float:
    """Closed-form BMO bound (4 + 6 M^2 T) / (3 M^2) * exp(6 M xi_sup + M T)."""
    if M <= 0.0:
        raise InvalidParameters(f"growth constant M must be positive, got {M}")
    if T <= 0.0:
        raise InvalidParameters(f"horizon must be positive, got {T}")
    if xi_sup < 0.0:
        raise InvalidParameters(f"terminal sup bound must be >= 0, got {xi_sup}")
    return (4.0 + 6.0 * M * M * T) / (3.0 * M * M) * math.exp(6.0 * M * xi_sup + M * T)
