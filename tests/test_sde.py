import numpy as np
import pytest

from qgbsde import (AssumptionLevel, AssumptionLevelTooLow, InvalidParameters,
                    ModelSpec, NumericalBlowup, Partition, PathEnsemble,
                    dump_ensemble, fit_convergence_order,
                    flow_identity_residual, load_ensemble, make_brownian,
                    make_gbm, normal_increments, simulate_forward,
                    simulate_variational)
from qgbsde.errors import SingularFlow


def test_initial_state_exact():
    ens = simulate_forward(make_gbm(x0=1.5), Partition.uniform(1.0, 8), 50, 3)
    assert np.all(ens.states[:, 0, 0] == 1.5)
    assert ens.states.shape == (50, 9, 1)
    assert ens.increments.shape == (50, 8, 1)


def test_additive_model_is_exact():
    # b=0, sigma=1: Euler is exact, X_t = x0 + W_t
    ens = simulate_forward(make_brownian(x0=0.7), Partition.uniform(1.0, 16), 200, 5)
    walk = 0.7 + np.cumsum(ens.increments[:, :, 0], axis=1)
    np.testing.assert_allclose(ens.states[:, 1:, 0], walk, atol=1e-14)


def test_deterministic_drift():
    model = ModelSpec(
        name="drift_only", m=1, d=1, x0=np.array([0.0]), T=1.0,
        b=lambda t, x: np.ones_like(x),
        sigma=lambda t, x: np.zeros(x.shape + (1,)),
        f=lambda t, x, y, z: np.zeros(x.shape[0]),
        g=lambda x: x[:, 0],
    )
    ens = simulate_forward(model, Partition.uniform(1.0, 10), 7, 1)
    # dX = dt integrates to exactly 1 on a uniform grid
    np.testing.assert_allclose(ens.states[:, -1, 0], 1.0, atol=1e-12)


def test_gbm_strong_order_half():
    # Euler error against the closed-form solution on shared increments
    model = make_gbm(mu=0.05, vol=0.2, x0=1.0)
    fine = Partition.uniform(1.0, 64)
    ens = simulate_forward(model, fine, 20_000, 9)
    w_term = ens.increments[:, :, 0].sum(axis=1)
    exact = np.exp((0.05 - 0.5 * 0.2 ** 2) + 0.2 * w_term)
    scales, errors = [], []
    for n in (8, 16, 32, 64):
        step = 64 // n
        idx = np.arange(n) * step
        inc = np.add.reduceat(ens.increments[:, :, 0], idx, axis=1)
        x = np.ones(inc.shape[0])
        dt = 1.0 / n
        for i in range(n):
            x = x + 0.05 * x * dt + 0.2 * x * inc[:, i]
        scales.append(dt)
        errors.append(np.sqrt(((x - exact) ** 2).mean()))
    fit = fit_convergence_order(scales, errors)
    assert 0.35 <= fit.slope <= 0.65
    assert fit.r_squared >= 0.95


def test_worker_count_bit_identical():
    model = make_gbm()
    part = Partition.uniform(1.0, 8)
    a = simulate_forward(model, part, 70_000, 4, workers=1)
    b = simulate_forward(model, part, 70_000, 4, workers=3)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.increments, b.increments)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blowup_detected():
    # the overflow must surface as NumericalBlowup only, never as a warning
    model = ModelSpec(
        name="explosive", m=1, d=1, x0=np.array([1.0]), T=1.0,
        b=lambda t, x: x ** 9,
        sigma=lambda t, x: np.zeros(x.shape + (1,)),
        f=lambda t, x, y, z: np.zeros(x.shape[0]),
        g=lambda x: x[:, 0],
    )
    with pytest.raises(NumericalBlowup) as err:
        simulate_forward(model, Partition.uniform(10.0, 40), 4, 0)
    assert err.value.step is not None


def test_variational_needs_gradients():
    model = ModelSpec(
        name="nograd", m=1, d=1, x0=np.array([0.0]), T=1.0,
        b=lambda t, x: np.zeros_like(x),
        sigma=lambda t, x: np.ones(x.shape + (1,)),
        f=lambda t, x, y, z: np.zeros(x.shape[0]),
        g=lambda x: x[:, 0],
    )
    ens = simulate_forward(model, Partition.uniform(1.0, 4), 10, 0)
    with pytest.raises(AssumptionLevelTooLow):
        simulate_variational(model, ens)


def test_flow_constant_coefficients():
    # b and sigma state-independent: the flow is identically the identity
    ens = simulate_forward(make_brownian(), Partition.uniform(1.0, 8), 100, 2)
    ens = simulate_variational(make_brownian(), ens)
    np.testing.assert_allclose(ens.flows, 1.0, atol=1e-14)
    assert flow_identity_residual(ens) <= 1e-12


def test_flow_gbm_closed_form():
    # dX = mu X dt + vol X dW is linear, so the flow solves the same
    # recursion started at 1: flow = X / x0 path by path, exactly under Euler
    model = make_gbm(mu=0.3, vol=0.1, x0=2.0)
    ens = simulate_forward(model, Partition.uniform(1.0, 32), 500, 6)
    ens = simulate_variational(model, ens)
    np.testing.assert_allclose(ens.flows[:, :, 0, 0], ens.states[:, :, 0] / 2.0,
                               rtol=1e-12)
    assert flow_identity_residual(ens) <= 1e-8


def test_flow_mean_matches_deterministic_exponential():
    # E[flow] for GBM Euler is (1 + mu dt)^N -> e^mu
    model = make_gbm(mu=0.3, vol=0.1, x0=1.0)
    for n in (16, 64):
        ens = simulate_variational(model, simulate_forward(
            model, Partition.uniform(1.0, n), 100_000, 8))
        got = ens.flows[:, -1, 0, 0].mean()
        assert got == pytest.approx((1.0 + 0.3 / n) ** n, abs=3e-3)
    assert abs((1.0 + 0.3 / 64) ** 64 - np.exp(0.3)) < 2e-3


def _linear_flow_model(rates):
    """dX = -diag(rates) X dt + dW: the Euler flow is diag((1 - rates dt)^i)."""
    rates = np.asarray(rates, dtype=np.float64)
    m = rates.size

    def driver_grad(shape_tail):
        return lambda t, x, y, z: np.zeros(x.shape[:1] + shape_tail)

    return ModelSpec(
        name="linear_flow", m=m, d=m, x0=np.zeros(m), T=1.0,
        b=lambda t, x: -rates * x,
        sigma=lambda t, x: np.broadcast_to(np.eye(m), x.shape + (m,)).copy(),
        f=lambda t, x, y, z: np.zeros(x.shape[0]),
        g=lambda x: x.sum(axis=1),
        b_jac=lambda t, x: np.broadcast_to(-np.diag(rates), x.shape + (m,)).copy(),
        sigma_jac=lambda t, x: np.zeros(x.shape[:1] + (m, m, m)),
        f_x=driver_grad((m,)), f_y=driver_grad(()), f_z=driver_grad((m,)),
        g_grad=lambda x: np.ones_like(x),
        driver_z_lipschitz=0.0, assumption_level=AssumptionLevel.HX1Y1)


def test_flow_condition_cap_and_singular_flow():
    part = Partition.uniform(1.0, 4)
    # rates 0 and 3.6 at dt = 1/4: the flow ends at diag(1, 0.1^4), whose
    # condition number is 1e4 (Frobenius bound 1e4 + 1e-4)
    model = _linear_flow_model([0.0, 3.6])
    ens = simulate_forward(model, part, 50, 1)
    flows = simulate_variational(model, ens, condition_cap=1e5)
    np.testing.assert_allclose(flows.flows[:, -1, 1, 1], 1e-4, rtol=1e-12)
    with pytest.raises(SingularFlow):
        simulate_variational(model, ens, condition_cap=5e3)
    # rate 4 at dt = 1/4 sends the flow to exactly zero after one step
    singular = _linear_flow_model([4.0])
    ens = simulate_forward(singular, part, 50, 1)
    with pytest.raises(SingularFlow):
        simulate_variational(singular, ens)


def test_inverse_sde_cross_check():
    model = make_gbm(mu=0.2, vol=0.3)
    ens = simulate_forward(model, Partition.uniform(1.0, 256), 1000, 3)
    solved = simulate_variational(model, ens, inverse_mode="solve")
    stepped = simulate_variational(model, ens, inverse_mode="sde")
    # the integrated inverse agrees with the exact inverse to O(mesh)
    diff = np.abs(solved.flow_inverses - stepped.flow_inverses).max()
    assert diff < 0.05


def test_dump_load_roundtrip(tmp_path):
    ens = simulate_forward(make_gbm(), Partition.uniform(1.0, 5), 37, 11)
    path = tmp_path / "ens.bin"
    dump_ensemble(ens, path)
    back = load_ensemble(path)
    assert back.seed == 11
    assert np.array_equal(back.states, ens.states)
    assert np.array_equal(back.increments, ens.increments)
    assert np.array_equal(back.partition.times, ens.partition.times)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(InvalidParameters):
        load_ensemble(path)
    ens = simulate_forward(make_gbm(), Partition.uniform(1.0, 4), 10, 0)
    dump_ensemble(ens, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])  # drop the tail of the states block
    with pytest.raises(InvalidParameters):
        load_ensemble(path)


def test_ensemble_shape_validation():
    part = Partition.uniform(1.0, 4)
    with pytest.raises(InvalidParameters):
        PathEnsemble(partition=part, seed=0,
                     increments=np.zeros((10, 3, 1)), states=np.zeros((10, 5, 1)))
    with pytest.raises(InvalidParameters):
        PathEnsemble(partition=part, seed=0,
                     increments=np.zeros((10, 4, 1)), states=np.zeros((9, 5, 1)))


def test_increments_scale_with_dt():
    ens = simulate_forward(make_brownian(), Partition.uniform(4.0, 4), 50_000, 1)
    # each increment has variance dt = 1
    var = ens.increments.var()
    assert var == pytest.approx(1.0, rel=0.05)
    raw = normal_increments(1, 50_000, 4, 1)
    np.testing.assert_allclose(ens.increments, raw * 1.0, atol=1e-14)
