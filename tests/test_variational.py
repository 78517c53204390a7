"""Tests for the gradient process and the control representation identity."""

import dataclasses

import numpy as np
import pytest

from qgbsde import diagnostics, truncation
from qgbsde.diagnostics import diagnose_pass
from qgbsde.errors import AssumptionLevelTooLow
from qgbsde.model import (ModelSpec, Partition, empty_time_major,
                          make_brownian, make_discount, make_gbm, make_quadratic)
from qgbsde.regression import RegressionBasis, project, step_design
from qgbsde.sde import simulate_forward, simulate_variational
from qgbsde.solver import solve_backward_regression
from qgbsde.truncation import smooth_clamp, smooth_clamp_grad, truncate_driver
from qgbsde.variational import _gradient_step, _terminal_gradient
from test_sde import _flow_stack

GLOBAL2 = RegressionBasis(kind="global_polynomial", degree=2)


def _solved(model, n_steps=8, n_paths=20000, seed=4, basis=GLOBAL2):
    part = Partition.uniform(model.T, n_steps)
    ens = simulate_forward(model, part, n_paths, seed)
    flows, _ = _flow_stack(model, ens)
    sol = solve_backward_regression(model, ens, basis)
    return ens, flows, sol


def _diagnosed(monkeypatch, model, n_steps=8, n_paths=20000, seed=4, basis=GLOBAL2):
    """diagnose_pass at factor 1, the single-grid solve, on the paths that
    _solved simulates, with the gradient the pass holds one node at a time
    recorded. Returns gradY (P, N, m) and gradZ (P, N, d, m) at the nodes
    0..N-1, and the Diagnosis."""
    steps = {}

    def recording(model, design, ensemble, i, flow, dw, u_next, y, z):
        steps[i] = _gradient_step(model, design, ensemble, i, flow, dw, u_next, y, z)
        return steps[i]

    monkeypatch.setattr(diagnostics, "_gradient_step", recording)
    part = Partition.uniform(model.T, n_steps)
    diag = diagnose_pass(model, simulate_forward(model, part, n_paths, seed), 1, basis)
    assert sorted(steps) == list(range(n_steps))
    u, v = zip(*(steps[i] for i in range(n_steps)))
    return np.stack(u, axis=1), np.stack(v, axis=1), diag


def test_requires_flows_and_gradients():
    model = make_brownian()
    ens = simulate_forward(model, Partition.uniform(model.T, 4), 500, seed=0)
    bare = dataclasses.replace(model, g_grad=None)
    with pytest.raises(AssumptionLevelTooLow, match="g_grad"):
        _terminal_gradient(bare, ens, next(simulate_variational(model, ens)[0]))
    diag = diagnose_pass(bare, ens, 1, GLOBAL2)
    assert diag.representation_rms is None
    assert diag.gradient_error == "model 'brownian' does not supply g_grad"


def test_brownian_identity_gradient_is_one(monkeypatch):
    # Y = X gives gradY = 1 on every path and node, and a vanishing gradZ
    U, V, _ = _diagnosed(monkeypatch, make_brownian(), n_paths=5000)
    np.testing.assert_allclose(U, 1.0, atol=1e-6)
    np.testing.assert_allclose(V, 0.0, atol=1e-4)


def test_terminal_gradient_slice_is_exact():
    model = make_gbm()
    ens, flows, _ = _solved(model, n_paths=2000)
    # g(x) = x, so the terminal gradient is the flow itself
    np.testing.assert_array_equal(_terminal_gradient(model, ens, flows[:, -1])[:, 0],
                                  flows[:, -1, 0, 0])


def test_gbm_initial_gradient_matches_flow_mean(monkeypatch):
    # Y_t = X_t E[X_T]/X_t-type martingale structure collapses the initial
    # gradient to E[flow_T], which the Euler scheme fixes at (1 + mu dt)^N
    mu, n = 0.05, 8
    model = make_gbm(mu=mu)
    U, _, _ = _diagnosed(monkeypatch, model, n_steps=n, n_paths=20000)
    target = (1.0 + mu * model.T / n) ** n
    assert U[:, 0, 0].mean() == pytest.approx(target, abs=1e-2)


def test_tanh_terminal_gradient_matches_quadrature(monkeypatch):
    # gradY_0 = E[g'(W_T)] for zero-drift unit-volatility paths; the constant
    # below is E[sech^2(W_1)] from 201-node Hermite quadrature
    U, _, _ = _diagnosed(monkeypatch, make_brownian(terminal="tanh"), n_paths=40000)
    assert U[:, 0, 0].mean() == pytest.approx(0.6057055096021588, abs=1e-2)


def test_representation_identity_on_brownian():
    model = make_brownian()
    ens = simulate_forward(model, Partition.uniform(model.T, 8), 20000, seed=4)
    diag = diagnose_pass(model, ens, 1, GLOBAL2)
    # Z and gradY flow_inv sigma both estimate the constant 1; their gap is
    # pure regression noise
    assert diag.representation_rms.mean() < 5e-2
    assert diag.representation_rms.shape == diag.representation_max.shape == (8,)
    # ">=" up to summation rounding: at the deterministic first node every
    # path carries the same residual and mean vs max differ by an ulp
    assert np.all(diag.representation_max >= diag.representation_rms - 1e-12)


def test_implicit_factor_guard():
    # 1 - dt f_y = 1 - 0.25 * 3 falls below 1/2 at the first gradient step
    model = make_discount(rate=0.1)
    ens = simulate_forward(model, Partition.uniform(model.T, 4), 500, seed=1)
    stiff = dataclasses.replace(model, f_y=lambda t, x, y, z: np.full(x.shape[0], 3.0))
    diag = diagnose_pass(stiff, ens, 1, GLOBAL2)
    assert diag.representation_rms is None
    assert diag.gradient_error == ("implicit factor 1 - dt f_y reached 2.500e-01; "
                                   "refine the grid (step 3)")


def test_truncated_gradients_clamp_once_per_step(monkeypatch):
    # at level 0.5 the clamp engages at every step, once for each of f_x,
    # f_y and f_z, and f_z takes its slope once; above the realized max |Z|
    # it is the identity and neither the clamp nor its slope is evaluated
    for level, engaged in ((0.5, True), (10.0, False)):
        model = truncate_driver(make_quadratic(), level)
        ens, flows, sol = _solved(model, n_steps=6, n_paths=3000)
        assert (np.abs(sol.Z).max() > 1.0) if engaged else (np.abs(sol.Z).max() < level)
        clamps, grads = [], []

        def counting(calls, fn):
            return lambda level, z: (calls.append(level), fn(level, z))[1]

        with monkeypatch.context() as mp:
            mp.setattr(truncation, "smooth_clamp", counting(clamps, smooth_clamp))
            mp.setattr(truncation, "smooth_clamp_grad",
                       counting(grads, smooth_clamp_grad))
            _gradient_loop_with_own_estimator(model, ens, flows, sol, GLOBAL2)
        assert clamps == [level] * (18 if engaged else 0)
        assert grads == [level] * (6 if engaged else 0)


def _planar_model():
    """m = d = 2 with state-dependent volatility, so the flows and both
    components of gradY and gradZ are non-trivial."""
    def sigma(t, x):
        out = np.zeros(x.shape + (2,))
        out[:, 0, 0] = 1.0 + 0.1 * np.sin(x[:, 0])
        out[:, 1, 1] = 1.0 + 0.1 * np.sin(x[:, 1])
        out[:, 1, 0] = 0.3
        return out

    def sigma_jac(t, x):
        out = np.zeros(x.shape[:1] + (2, 2, 2))  # [p, noise j, a, b]
        out[:, 0, 0, 0] = 0.1 * np.cos(x[:, 0])
        out[:, 1, 1, 1] = 0.1 * np.cos(x[:, 1])
        return out

    return ModelSpec(
        name="planar", m=2, d=2, x0=np.array([0.1, -0.2]), T=1.0,
        b=lambda t, x: -0.5 * x,
        sigma=sigma,
        f=lambda t, x, y, z: 0.1 * y + 0.2 * np.sin(z).sum(axis=1) + 0.1 * x[:, 0],
        g=lambda x: np.tanh(x).sum(axis=1) + 0.5 * x[:, 0] * x[:, 1],
        b_jac=lambda t, x: np.broadcast_to(-0.5 * np.eye(2), x.shape + (2,)).copy(),
        sigma_jac=sigma_jac,
        f_x=lambda t, x, y, z: np.column_stack([np.full(x.shape[0], 0.1),
                                                np.zeros(x.shape[0])]),
        f_y=lambda t, x, y, z: np.full(x.shape[0], 0.1),
        f_z=lambda t, x, y, z: 0.2 * np.cos(z),
        g_grad=lambda x: 1.0 / np.cosh(x) ** 2 + 0.5 * x[:, ::-1],
        driver_z_lipschitz=0.4)


def _gradient_loop_with_own_estimator(model, ensemble, flows, base, basis):
    """The gradient solve on the flows (P, N+1, m, m) with its own copy of
    the pair of projections, in its own (d, m) column order; the shared
    estimator must reproduce it."""
    times = ensemble.partition.times
    X, F = ensemble.states, flows
    P, n, m, d = X.shape[0], times.size - 1, model.m, model.d
    U = empty_time_major(n + 1, P, (m,))
    V = empty_time_major(n, P, (d, m))
    U[:, n] = np.einsum("pa,pak->pk", np.asarray(model.g_grad(X[:, n])), F[:, n])
    for i in range(n - 1, -1, -1):
        dt = times[i + 1] - times[i]
        t, xi = times[i], X[:, i]
        design = step_design(basis, xi, step=i)
        e_fit, _ = project(design, U[:, i + 1])
        dw = ensemble.increment(model, i)
        v_targets = ((U[:, i + 1] - e_fit)[:, None, :] * dw[:, :, None] / dt)
        Vi = project(design, v_targets.reshape(P, d * m))[0].reshape(P, d, m)
        yi, zi = base.Y[:, i], base.Z[:, i]
        fx = np.asarray(model.f_x(t, xi, yi, zi))
        fy = np.asarray(model.f_y(t, xi, yi, zi))
        fz = np.asarray(model.f_z(t, xi, yi, zi))
        drive = (np.einsum("pa,pak->pk", fx, F[:, i])
                 + np.einsum("pj,pjk->pk", fz, Vi))
        U[:, i] = (e_fit + dt * drive) / (1.0 - dt * fy)[:, None]
        V[:, i] = Vi
    return U, V


@pytest.mark.parametrize("basis", [GLOBAL2, RegressionBasis(kind="local_partition",
                                                            degree=1, cells_per_dim=6)],
                         ids=lambda b: b.describe())
def test_planar_gradient_solve_matches_its_own_estimator_bit_for_bit(basis, monkeypatch):
    # diagnose_pass's gradient at factor 1 against the loop on the stored solve
    model = _planar_model()
    ens, flows, sol = _solved(model, n_steps=6, n_paths=4000, basis=basis)
    U, V = _gradient_loop_with_own_estimator(model, ens, flows, sol, basis)
    gradY, gradZ, _ = _diagnosed(monkeypatch, model, n_steps=6, n_paths=4000,
                                 basis=basis)
    assert np.abs(V).max() > 1e-2  # gradZ is not trivially zero
    assert np.array_equal(gradY, U[:, :-1])
    assert np.array_equal(gradZ, V)
