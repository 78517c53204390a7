"""Tests for the gradient process and the control representation identity."""

import dataclasses

import numpy as np
import pytest

from qgbsde.errors import (AssumptionLevelTooLow, InvalidParameters,
                           PicardDivergence)
from qgbsde import truncation, variational
from qgbsde.model import (AssumptionLevel, ModelSpec, Partition, empty_time_major,
                          make_brownian, make_discount, make_gbm, make_quadratic)
from qgbsde.regression import RegressionBasis, project, step_design
from qgbsde.sde import simulate_forward, simulate_variational
from qgbsde.solver import solve_backward_regression
from qgbsde.truncation import smooth_clamp, smooth_clamp_grad, truncate_driver
from qgbsde.variational import representation_check, solve_variational_bsde

GLOBAL2 = RegressionBasis(kind="global_polynomial", degree=2)


def _solved(model, n_steps=8, n_paths=20000, seed=4, basis=GLOBAL2):
    part = Partition.uniform(model.T, n_steps)
    ens = simulate_variational(model, simulate_forward(model, part, n_paths, seed))
    sol = solve_backward_regression(model, ens, basis)
    return ens, sol


def test_requires_flows_and_gradients():
    model = make_brownian()
    part = Partition.uniform(model.T, 4)
    ens = simulate_forward(model, part, 500, seed=0)
    sol = solve_backward_regression(model, ens, GLOBAL2)
    with pytest.raises(InvalidParameters):
        solve_variational_bsde(model, ens, sol, GLOBAL2)  # no flows attached
    bare = model.with_driver(g_grad=None, assumption_level=AssumptionLevel.HX0Y0)
    ens_v = simulate_variational(model, ens)
    with pytest.raises(AssumptionLevelTooLow):
        solve_variational_bsde(bare, ens_v, sol, GLOBAL2)


def test_brownian_identity_gradient_is_one():
    # Y = X gives gradY = 1 on every path and node, and a vanishing gradZ
    model = make_brownian()
    ens, sol = _solved(model, n_paths=5000)
    var = solve_variational_bsde(model, ens, sol, GLOBAL2)
    np.testing.assert_allclose(var.gradY, 1.0, atol=1e-6)
    np.testing.assert_allclose(var.gradZ, 0.0, atol=1e-4)


def test_terminal_gradient_slice_is_exact():
    model = make_gbm()
    ens, sol = _solved(model, n_paths=2000)
    var = solve_variational_bsde(model, ens, sol, GLOBAL2)
    # g(x) = x, so the terminal gradient is the flow itself
    np.testing.assert_array_equal(var.gradY[:, -1, 0], ens.flows[:, -1, 0, 0])


def test_gbm_initial_gradient_matches_flow_mean():
    # Y_t = X_t E[X_T]/X_t-type martingale structure collapses the initial
    # gradient to E[flow_T], which the Euler scheme fixes at (1 + mu dt)^N
    mu, n = 0.05, 8
    model = make_gbm(mu=mu)
    ens, sol = _solved(model, n_steps=n, n_paths=20000)
    var = solve_variational_bsde(model, ens, sol, GLOBAL2)
    target = (1.0 + mu * model.T / n) ** n
    assert var.gradY[:, 0, 0].mean() == pytest.approx(target, abs=1e-2)


def test_tanh_terminal_gradient_matches_quadrature():
    # gradY_0 = E[g'(W_T)] for zero-drift unit-volatility paths; the constant
    # below is E[sech^2(W_1)] from 201-node Hermite quadrature
    model = make_brownian(terminal="tanh")
    ens, sol = _solved(model, n_paths=40000)
    var = solve_variational_bsde(model, ens, sol, GLOBAL2)
    assert var.gradY[:, 0, 0].mean() == pytest.approx(0.6057055096021588, abs=1e-2)


def test_representation_identity_on_brownian():
    model = make_brownian()
    ens, sol = _solved(model)
    var = solve_variational_bsde(model, ens, sol, GLOBAL2)
    report = representation_check(model, ens, sol, var)
    # Z and gradY flow_inv sigma both estimate the constant 1; their gap is
    # pure regression noise
    assert report.time_avg_rms < 5e-2
    assert report.per_node_rms.shape == (8,)
    # ">=" up to summation rounding: at the deterministic first node every
    # path carries the same residual and mean vs max differ by an ulp
    assert np.all(report.per_node_max >= report.per_node_rms - 1e-12)


def test_implicit_factor_guard():
    model = make_discount(rate=0.1)
    part = Partition.uniform(model.T, 4)
    ens = simulate_variational(model, simulate_forward(model, part, 500, seed=1))
    sol = solve_backward_regression(model, ens, GLOBAL2)
    stiff = model.with_driver(f_y=lambda t, x, y, z: np.full(x.shape[0], 3.0))
    with pytest.raises(PicardDivergence):
        solve_variational_bsde(stiff, ens, sol, GLOBAL2)


def test_base_shape_mismatch_rejected():
    model = make_brownian()
    part = Partition.uniform(model.T, 4)
    ens = simulate_variational(model, simulate_forward(model, part, 500, seed=1))
    sol = solve_backward_regression(model, ens, GLOBAL2)
    short = simulate_variational(model, simulate_forward(model, part, 400, seed=1))
    with pytest.raises(InvalidParameters):
        solve_variational_bsde(model, short, sol, GLOBAL2)


def test_truncated_gradients_clamp_once_per_step(monkeypatch):
    # at level 0.5 the clamp engages at every step; above the realized max
    # |Z| it is the identity and neither the clamp nor its slope is evaluated
    for level, engaged in ((0.5, True), (10.0, False)):
        model = truncate_driver(make_quadratic(), level)
        ens, sol = _solved(model, n_steps=6, n_paths=3000)
        assert (np.abs(sol.Z).max() > 1.0) if engaged else (np.abs(sol.Z).max() < level)
        clamps, grads = [], []

        def counting(calls, fn):
            return lambda level, z: (calls.append(level), fn(level, z))[1]

        with monkeypatch.context() as mp:
            mp.setattr(truncation, "smooth_clamp", counting(clamps, smooth_clamp))
            for module in (truncation, variational):
                mp.setattr(module, "smooth_clamp_grad",
                           counting(grads, smooth_clamp_grad))
            var = solve_variational_bsde(model, ens, sol, GLOBAL2)
        assert clamps == grads == [level] * (6 if engaged else 0)
        # the truncated model's own f_x, f_y and f_z clamp on every call
        ref = solve_variational_bsde(dataclasses.replace(model, truncation=None), ens,
                                     sol, GLOBAL2)
        np.testing.assert_array_equal(var.gradY, ref.gradY)
        np.testing.assert_array_equal(var.gradZ, ref.gradZ)


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
        driver_z_lipschitz=0.4, assumption_level=AssumptionLevel.HX1Y1)


def _gradient_loop_with_own_estimator(model, ensemble, base, basis):
    """The gradient solve with its own copy of the pair of projections, in
    its own (d, m) column order; the shared estimator must reproduce it."""
    times = ensemble.partition.times
    X, dW, F = ensemble.states, ensemble.increments, ensemble.flows
    P, n, m, d = X.shape[0], times.size - 1, model.m, model.d
    U = empty_time_major(n + 1, P, (m,))
    V = empty_time_major(n, P, (d, m))
    U[:, n] = np.einsum("pa,pak->pk", np.asarray(model.g_grad(X[:, n])), F[:, n])
    for i in range(n - 1, -1, -1):
        dt = times[i + 1] - times[i]
        t, xi = times[i], X[:, i]
        design = step_design(basis, xi, step=i)
        e_fit, _ = project(design, U[:, i + 1])
        v_targets = ((U[:, i + 1] - e_fit)[:, None, :] * dW[:, i, :, None] / dt)
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
def test_planar_gradient_solve_matches_its_own_estimator_bit_for_bit(basis):
    model = _planar_model()
    ens, sol = _solved(model, n_steps=6, n_paths=4000, basis=basis)
    var = solve_variational_bsde(model, ens, sol, basis)
    U, V = _gradient_loop_with_own_estimator(model, ens, sol, basis)
    assert np.abs(V).max() > 1e-2  # gradZ is not trivially zero
    assert np.array_equal(var.gradY, U)
    assert np.array_equal(var.gradZ, V)
