"""Closed-form references for validating the solvers.

For b = 0, constant sigma, driver (gamma/2) |z|^2 and bounded terminal g, the
exponential (Cole-Hopf) transform linearizes the backward equation:

    Y_0 = (1/gamma) log E[ exp(gamma g(x0 + sigma sqrt(T) U)) ],   U ~ N(0, 1)
    Z_0 = sigma E[ g'(.) e^{gamma g(.)} ] / E[ e^{gamma g(.)} ]

evaluated by Gauss-Hermite quadrature. The error estimate is the change under
node doubling; exceeding the stability tolerance, or a non-finite value,
raises QuadratureUnstable.

The same transform gives the whole solution Y_t = u(t, X_t) with

    u(t, x) = (1/gamma) log E[ exp(gamma g(x + sigma sqrt(T - t) U)) ],

from which cole_hopf_increment_stat evaluates the closed-form counterpart of
the y_increment_sq statistic of diagnostics.regularity_pass.

Separately, bmo_bound gives the closed-form bound on the BMO norm of the
control process implied by a bounded terminal value and the quadratic growth
certificate M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import InvalidParameters, QuadratureUnstable
from .model import ModelSpec, Partition, nested_indices

# Gauss-Hermite points per dimension for cole_hopf_increment_stat, and the
# relative change under node doubling that it tolerates
INCREMENT_NODES = 64
INCREMENT_RTOL = 1e-4


@dataclass(frozen=True)
class OracleResult:
    y0: float
    z0: float | None
    error_estimate: float
    nodes: int


def _normal_rule(nodes):
    """Gauss-Hermite nodes and weights for E f(U), U ~ N(0, 1).

    From 372 nodes up numpy's weights overflow to non-finite values, which
    the node-doubling checks reject; the overflow warnings are silenced.
    """
    with np.errstate(all="ignore"):
        u, w = hermgauss(nodes)
    return math.sqrt(2.0) * u, w / math.sqrt(math.pi)


def _gh_expectations(gamma, terminal, terminal_grad, x0, sigma, T, nodes):
    u, weights = _normal_rule(nodes)
    pts = x0 + sigma * math.sqrt(T) * u
    gv = np.asarray(terminal(pts))
    if not np.isfinite(gv).all():
        raise InvalidParameters("terminal function returned non-finite values")
    expg = np.exp(gamma * gv)
    ey = float(weights @ expg)
    y0 = math.log(ey) / gamma
    z0 = None
    if terminal_grad is not None:
        gpv = np.asarray(terminal_grad(pts))
        z0 = sigma * float(weights @ (gpv * expg)) / ey
    return y0, z0


def cole_hopf_reference(gamma: float, terminal, x0: float, sigma: float, T: float,
                        nodes: int = 128, terminal_grad=None,
                        stability_tol: float = 1e-8) -> OracleResult:
    """Reference (Y_0, Z_0) for the purely quadratic driver.

    terminal (and terminal_grad, if given) act on a plain 1-d array of
    points. Z_0 is only computed when terminal_grad is supplied.
    """
    if gamma == 0.0:
        raise InvalidParameters("gamma must be nonzero")
    if sigma <= 0.0 or T <= 0.0:
        raise InvalidParameters(f"need sigma > 0 and T > 0, got sigma={sigma}, T={T}")
    if nodes < 2:
        raise InvalidParameters(f"need at least 2 quadrature nodes, got {nodes}")
    y0, z0 = _gh_expectations(gamma, terminal, terminal_grad, x0, sigma, T, nodes)
    y0_fine, z0_fine = _gh_expectations(gamma, terminal, terminal_grad, x0, sigma,
                                        T, 2 * nodes)
    err = abs(y0 - y0_fine)
    if not math.isfinite(err):
        raise QuadratureUnstable(
            f"non-finite value under node doubling ({nodes} -> {2 * nodes}): "
            f"y0 = {y0!r}, {y0_fine!r}")
    if err > stability_tol:
        raise QuadratureUnstable(
            f"value moved {err:.3e} under node doubling ({nodes} -> {2 * nodes}), "
            f"tolerance {stability_tol:.1e}")
    return OracleResult(y0=y0_fine, z0=z0_fine if z0 is not None else None,
                        error_estimate=err, nodes=nodes)


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


def cole_hopf_from_model(model: ModelSpec, nodes: int = 128,
                         stability_tol: float = 1e-8) -> OracleResult:
    """Apply the reference to a model after probing its preconditions
    (see _closed_form_inputs)."""
    gamma, terminal, grad, x0, sigma = _closed_form_inputs(model)
    return cole_hopf_reference(gamma, terminal, x0, sigma, model.T, nodes=nodes,
                               terminal_grad=grad, stability_tol=stability_tol)


def _increment_window(gamma, terminal, x0, sigma, T, s, ts, nodes):
    """E (u(t, X_t) - u(s, X_s))^2 for each t in ts, all in (s, T].

    Tensor Gauss-Hermite in (X_s, X_t - X_s), and u itself by Gauss-Hermite,
    each with `nodes` points.
    """
    u, w = _normal_rule(nodes)

    def value(t, x):
        pts = x[..., None] + sigma * math.sqrt(max(T - t, 0.0)) * u
        return np.log(np.exp(gamma * terminal(pts)) @ w) / gamma

    xs = x0 + sigma * math.sqrt(s) * u
    ys = value(s, xs)[:, None]
    out = []
    for t in ts:
        xt = xs[:, None] + sigma * math.sqrt(t - s) * u
        out.append(float(w @ (value(t, xt) - ys) ** 2 @ w))
    return np.array(out)


def cole_hopf_increment_stat(model: ModelSpec, base: Partition,
                             fine: Partition) -> float:
    """Closed-form value of the y_increment_sq statistic of
    diagnostics.regularity_pass on (base, fine).

    max over the windows [t_i, t_{i+1}] of base, and over the fine nodes t in
    (t_i, t_{i+1}], of E (Y_t - Y_{t_i})^2 for the exact solution
    Y_t = u(t, X_t), X_t = x0 + sigma W_t, by INCREMENT_NODES points per
    dimension. The maximizing term is re-evaluated with twice as many points
    and returned; a relative change above INCREMENT_RTOL, or a non-finite
    value, raises QuadratureUnstable. The model must meet the preconditions
    of the oracle (see _closed_form_inputs).
    """
    gamma, terminal, _, x0, sigma = _closed_form_inputs(model)
    nodes = INCREMENT_NODES
    if abs(fine.horizon - model.T) > 1e-9:
        raise InvalidParameters(
            f"grid horizon {fine.horizon} differs from the model's {model.T}")
    idx = nested_indices(base, fine)
    t = fine.times
    pairs, vals = [], []
    for lo, hi in zip(idx[:-1], idx[1:]):
        pairs += [(t[lo], end) for end in t[lo + 1:hi + 1]]
        vals.append(_increment_window(gamma, terminal, x0, sigma, model.T, t[lo],
                                      t[lo + 1:hi + 1], nodes))
    vals = np.concatenate(vals)
    k = int(np.argmax(vals))  # the first NaN, if any
    worst = float(vals[k])
    s, end = pairs[k]
    fine_value = float(_increment_window(gamma, terminal, x0, sigma, model.T, s,
                                         [end], 2 * nodes)[0])
    err = abs(worst - fine_value)
    if not math.isfinite(err):
        raise QuadratureUnstable(
            f"non-finite increment statistic under node doubling ({nodes} -> "
            f"{2 * nodes}): {worst!r}, {fine_value!r}")
    if err > INCREMENT_RTOL * fine_value:
        raise QuadratureUnstable(
            f"increment statistic {fine_value:.6e} moved {err:.3e} under node "
            f"doubling ({nodes} -> {2 * nodes}), relative tolerance "
            f"{INCREMENT_RTOL:.1e}")
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
