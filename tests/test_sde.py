import tracemalloc
import types
import warnings

import numpy as np
import pytest

from qgbsde import (AssumptionLevelTooLow, InvalidParameters,
                    ModelSpec, NumericalBlowup, Partition, PathEnsemble,
                    dump_ensemble, fit_convergence_order,
                    flow_identity_residual, flow_inverse, load_ensemble,
                    make_brownian,
                    make_gbm, make_quadratic, simulate_forward,
                    simulate_variational)
from qgbsde import cli, rng, sde
from qgbsde.errors import SingularFlow
from qgbsde.regression import RegressionBasis
from qgbsde.rng import _fill_block
from qgbsde.solver import solve_backward_regression


def _drawn(ens):
    """The scaled normals the Euler step of ens took, (P, N, d)."""
    n = ens.partition.n_steps
    return (_fill_block(ens.seed, 0, ens.n_paths, n, ens.d)
            * np.sqrt(ens.partition.dt)[None, :, None])


def _derived(model, ens):
    """Every step's increment as the ensemble derives it, (P, N, d)."""
    return np.stack([ens.increment(model, i) for i in range(ens.partition.n_steps)],
                    axis=1)


def test_initial_state_exact():
    ens = simulate_forward(make_gbm(x0=1.5), Partition.uniform(1.0, 8), 50, 3)
    assert np.all(ens.states[:, 0, 0] == 1.5)
    assert ens.states.shape == (50, 9, 1)
    assert ens.increment(make_gbm(x0=1.5), 7).shape == (50, 1)


def test_additive_model_is_exact():
    # b=0, sigma=1: Euler is exact, X_t = x0 + W_t
    ens = simulate_forward(make_brownian(x0=0.7), Partition.uniform(1.0, 16), 200, 5)
    walk = 0.7 + np.cumsum(_drawn(ens)[:, :, 0], axis=1)
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
    dw = _drawn(ens)[:, :, 0]
    w_term = dw.sum(axis=1)
    exact = np.exp((0.05 - 0.5 * 0.2 ** 2) + 0.2 * w_term)
    scales, errors = [], []
    for n in (8, 16, 32, 64):
        step = 64 // n
        idx = np.arange(n) * step
        inc = np.add.reduceat(dw, idx, axis=1)
        x = np.ones(inc.shape[0])
        dt = 1.0 / n
        for i in range(n):
            x = x + 0.05 * x * dt + 0.2 * x * inc[:, i]
        scales.append(dt)
        errors.append(np.sqrt(((x - exact) ** 2).mean()))
    fit = fit_convergence_order(scales, errors)
    assert 0.35 <= fit.slope <= 0.65
    assert fit.r_squared >= 0.95


def test_worker_count_bit_identical(monkeypatch):
    # the normals are drawn block by block inside the Euler loop; neither
    # the worker count nor the block size may change a state
    model = make_gbm()
    part = Partition.uniform(1.0, 8)
    a = simulate_forward(model, part, 70_000, 4, workers=1)
    b = simulate_forward(model, part, 70_000, 4, workers=3)
    assert np.array_equal(a.states, b.states)
    monkeypatch.setattr(rng, "_DEFAULT_BLOCK", 1000)
    for workers in (1, 3):
        c = simulate_forward(model, part, 70_000, 4, workers=workers)
        assert np.array_equal(a.states, c.states)


@pytest.mark.parametrize("block, N", [(1000, 64), (None, 256)],
                         ids=["block_1000", "default_block"])
def test_forward_simulation_holds_one_block_of_normals(monkeypatch, block, N):
    # the traced peak is the states, one path block's normals (at most 3
    # padding draws per path) and per-step temporaries of one block; at the
    # default block, on the longest fine grid any run uses, those normals
    # stay within 17 MiB
    if block is None:
        block = rng._DEFAULT_BLOCK
        P = 5 * block // 2
    else:
        monkeypatch.setattr(rng, "_DEFAULT_BLOCK", block)
        P = 4000
    normals = 8 * block * 4 * rng._blocks_per_path(N, 1)
    assert normals <= 17 * 2 ** 20, normals
    ens, peak = _traced_peak(lambda: simulate_forward(
        make_gbm(), Partition.uniform(1.0, N), P, 2))
    assert peak <= ens.states.nbytes + normals + 8 * block * 16, peak


def test_m_other_than_d_is_rejected_before_any_draw(monkeypatch):
    def refuse(*args):
        raise AssertionError("drew before the dimension check")

    monkeypatch.setattr(sde, "_fill_block", refuse)
    model = ModelSpec(
        name="rect", m=1, d=2, x0=np.array([0.0]), T=1.0,
        b=lambda t, x: np.zeros_like(x),
        sigma=lambda t, x: np.ones(x.shape + (2,)),
        f=lambda t, x, y, z: np.zeros(x.shape[0]),
        g=lambda x: x[:, 0],
    )
    with pytest.raises(InvalidParameters, match="m = 1 but d = 2"):
        simulate_forward(model, Partition.uniform(1.0, 4), 10, 0)


@pytest.mark.parametrize("m", [1, 2])
def test_singular_sigma_on_a_path_fails_the_solve_at_its_step_and_path(m):
    # sigma vanishes at the one state 5.0, which path 17 takes at node 4:
    # the Euler step there does not determine the increment
    def sigma(t, x):
        eye = np.broadcast_to(np.eye(m), x.shape + (m,))
        return np.where((x[:, :1] == 5.0)[:, :, None], 0.0, eye)

    model = ModelSpec(
        name="vanishing", m=m, d=m, x0=np.zeros(m), T=1.0,
        b=lambda t, x: np.zeros_like(x), sigma=sigma,
        f=lambda t, x, y, z: np.zeros(x.shape[0]),
        g=lambda x: x.sum(axis=1), driver_z_lipschitz=0.0)
    ens = simulate_forward(model, Partition.uniform(1.0, 6), 50, 2)
    states = np.array(ens.states)
    states[17, 4] = 5.0
    hand = PathEnsemble(partition=ens.partition, seed=2, states=states)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalBlowup, match="sigma is singular") as err:
            solve_backward_regression(model, hand, RegressionBasis(
                kind="global_polynomial", degree=1))
    assert (err.value.step, err.value.path) == (4, 17)


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


def _flow_stack(model, ens):
    """Every node's flow as simulate_variational serves it, last node
    first, stacked node 0 first and time-major into (P, N+1, m, m), and the
    identity residual it returned."""
    served, resid = simulate_variational(model, ens)
    return np.stack(list(served)[::-1]).swapaxes(0, 1), resid


def _whole_array_flows(model, ens):
    """The flow at every node by the forward recursion on one path-major
    (P, N+1, m, m) array."""
    times, X = ens.partition.times, ens.states
    n = ens.partition.n_steps
    F = np.empty((ens.n_paths, n + 1, model.m, model.m))
    F[:, 0] = np.eye(model.m)
    for i in range(n):
        B = model.b_jac(times[i], X[:, i])
        S = model.sigma_jac(times[i], X[:, i])
        F[:, i + 1] = (F[:, i] + np.einsum("pab,pbc->pac", B, F[:, i])
                       * (times[i + 1] - times[i])
                       + np.einsum("pjab,pbc,pj->pac", S, F[:, i], ens.increment(model, i)))
    return F


def _flow_model(b_jac, sigma_jac):
    return ModelSpec(
        name="stiff_flow", m=1, d=1, x0=np.array([0.0]), T=1.0,
        b=lambda t, x: np.zeros_like(x),
        sigma=lambda t, x: np.ones(x.shape + (1,)),
        f=lambda t, x, y, z: np.zeros(x.shape[0]),
        g=lambda x: x[:, 0],
        b_jac=lambda t, x: np.full(x.shape + (1,), b_jac),
        sigma_jac=lambda t, x: np.full(x.shape[:1] + (1, 1, 1), sigma_jac),
    )


def test_flow_blowup_reports_its_step_and_path():
    # F_{i+1} = (1 + 1e30 dt) F_i first overflows at F[:, 11], i.e. step 10
    model = _flow_model(1e30, 0.0)
    ens = simulate_forward(model, Partition.uniform(1.0, 40), 100, 0)
    with pytest.raises(NumericalBlowup) as err:
        simulate_variational(model, ens)
    assert (err.value.step, err.value.path) == (10, 0)


def test_flow_blowup_is_no_warning():
    # once F overflows, the drift term adds inf to the noise term's -inf on
    # some paths; that must surface as NumericalBlowup only
    model = _flow_model(1.0, 1e30)
    ens = simulate_forward(model, Partition.uniform(1.0, 40), 100, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalBlowup) as err:
            simulate_variational(model, ens)
    assert err.value.step is not None and err.value.path is not None


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
    flows, flow_residual = _flow_stack(make_brownian(), ens)
    np.testing.assert_allclose(flows, 1.0, atol=1e-14)
    assert flow_residual <= 1e-12


def test_flow_gbm_closed_form():
    # dX = mu X dt + vol X dW is linear, so the flow solves the same
    # recursion started at 1: flow = X / x0 path by path, exactly under Euler
    model = make_gbm(mu=0.3, vol=0.1, x0=2.0)
    ens = simulate_forward(model, Partition.uniform(1.0, 32), 500, 6)
    flows, flow_residual = _flow_stack(model, ens)
    np.testing.assert_allclose(flows[:, :, 0, 0], ens.states[:, :, 0] / 2.0,
                               rtol=1e-12)
    # returned as measured, the largest over the nodes
    assert flow_residual == max(
        flow_identity_residual(F, flow_inverse(F)).max()
        for F in flows.swapaxes(0, 1))
    assert flow_residual <= 1e-8


def test_flow_mean_matches_deterministic_exponential():
    # E[flow] for GBM Euler is (1 + mu dt)^N -> e^mu
    model = make_gbm(mu=0.3, vol=0.1, x0=1.0)
    for n in (16, 64):
        served, _ = simulate_variational(model, simulate_forward(
            model, Partition.uniform(1.0, n), 100_000, 8))
        got = next(served)[:, 0, 0].mean()  # the last node's flow comes first
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
        driver_z_lipschitz=0.0)


def test_flow_condition_cap_and_singular_flow(monkeypatch):
    part = Partition.uniform(1.0, 4)
    # rates 0 and 3.6 at dt = 1/4: the flow at node i is diag(1, 0.1^i), whose
    # condition number is 10^i (Frobenius bound 10^i + 10^-i)
    model = _linear_flow_model([0.0, 3.6])
    ens = simulate_forward(model, part, 50, 1)
    monkeypatch.setattr(sde, "FLOW_CONDITION_CAP", 1e5)
    served, _ = simulate_variational(model, ens)
    np.testing.assert_allclose(next(served)[:, 1, 1], 1e-4, rtol=1e-12)
    # only the last node exceeds the cap; every path alike, so the worst is
    # the first
    monkeypatch.setattr(sde, "FLOW_CONDITION_CAP", 5e3)
    with pytest.raises(SingularFlow) as err:
        simulate_variational(model, ens)
    assert (err.value.step, err.value.path) == (4, 0)
    assert "(step 4, path 0)" in str(err.value)
    # rate 4 at dt = 1/4 sends the flow to exactly zero after one step; its
    # reciprocal is inf, which fails the cap without a warning
    singular = _linear_flow_model([4.0])
    ens = simulate_forward(singular, part, 50, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularFlow) as err:
            simulate_variational(singular, ens)
    assert (err.value.step, err.value.path) == (1, 0)


def test_flow_identity_residual_fails_at_its_node_and_path(monkeypatch):
    # an m = 2 flow whose inverse is perturbed on one path at one node
    model = _linear_flow_model([0.5, 1.5])
    ens = simulate_forward(model, Partition.uniform(1.0, 6), 30, 4)

    def perturbed(flow):
        inv = np.linalg.inv(flow)
        if flow[0, 1, 1] < 0.3:  # node 4 onwards, where (1 - 1.5 / 6)^i < 0.3
            inv[7, 0, 1] += 1e-6
        return inv

    monkeypatch.setattr(sde, "flow_inverse", perturbed)
    with pytest.raises(SingularFlow) as err:
        simulate_variational(model, ens)
    assert (err.value.step, err.value.path) == (5, 7)
    assert "identity residual" in str(err.value)


@pytest.mark.parametrize("n_steps", [1, 3, 8, 15, 64])
@pytest.mark.parametrize("model", [make_gbm(mu=0.3, vol=0.4),
                                   _linear_flow_model([0.5, 1.5]),
                                   make_brownian(), make_quadratic()],
                         ids=["gbm", "linear", "brownian", "quadratic"])
def test_served_flows_are_the_whole_array_recursion_bit_for_bit(model, n_steps):
    # checkpoints every ceil(sqrt(N + 1)) nodes: N + 1 = 4, 9 and 16 fill
    # their last segment, 2 and 65 do not
    ens = simulate_forward(model, Partition.uniform(1.0, n_steps), 300, 5)
    want = _whole_array_flows(model, ens)
    served, flow_residual = simulate_variational(model, ens)
    nodes = list(served)
    assert len(nodes) == n_steps + 1
    for i, flow in zip(range(n_steps, -1, -1), nodes):  # last node first
        np.testing.assert_array_equal(flow, want[:, i])
    assert flow_residual == max(flow_identity_residual(F, flow_inverse(F)).max()
                                for F in want.swapaxes(0, 1))
    preset = model.meta.get("preset")
    if preset == "gbm":  # gbm's flows differ from path to path
        assert np.ptp(want[:, -1]) > 0.1
    elif preset in ("brownian", "quadratic"):
        # b_jac and sigma_jac vanish: the identity, one array at every node
        assert all(flow is nodes[0] for flow in nodes)


def _diagonal_flow_model(b_jac):
    """m = d = 2 Brownian states whose b_jac is diag(b_jac), which the drift
    does not follow: every path's flow is diag((1 + b_jac dt)^i)."""
    return ModelSpec(
        name="diagonal_flow", m=2, d=2, x0=np.zeros(2), T=1.0,
        b=lambda t, x: np.zeros_like(x),
        sigma=lambda t, x: np.broadcast_to(np.eye(2), x.shape + (2,)).copy(),
        f=lambda t, x, y, z: np.zeros(x.shape[0]),
        g=lambda x: x.sum(axis=1),
        b_jac=lambda t, x: np.broadcast_to(np.diag(b_jac), x.shape + (2,)).copy(),
        sigma_jac=lambda t, x: np.zeros(x.shape[:1] + (2, 2, 2)))


def test_first_failing_node_in_forward_order_raises(monkeypatch):
    # at dt = 1/40 the flow is diag(2.5e28^i, 0.5^i): its condition bound
    # 5e28^i fails the cap from node 1 on, and its first entry overflows at
    # step 10 (node 11); the forward pass checks node 1 before it gets there
    model = _diagonal_flow_model([1e30, -20.0])
    ens = simulate_forward(model, Partition.uniform(1.0, 40), 20, 0)
    with pytest.raises(SingularFlow) as err:
        simulate_variational(model, ens)
    assert (err.value.step, err.value.path) == (1, 0)
    assert "condition bound" in str(err.value)
    # without the cap the overflow is the first failure
    monkeypatch.setattr(sde, "FLOW_CONDITION_CAP", np.inf)
    with pytest.raises(NumericalBlowup) as err:
        simulate_variational(model, ens)
    assert (err.value.step, err.value.path) == (10, 0)


def test_scalar_flow_inverse_is_bit_for_bit_linalg_inv():
    # state-dependent flows of gbm, plus log-normal ones over many decades
    model = make_gbm(mu=0.3, vol=0.4)
    flows, _ = _flow_stack(model, simulate_forward(
        model, Partition.uniform(1.0, 16), 2000, 3))
    rng = np.random.default_rng(2)
    for F in (flows.reshape(-1, 1, 1),
              np.exp(rng.normal(scale=20.0, size=(100_000, 1, 1))),
              -np.exp(rng.normal(scale=20.0, size=(100_000, 1, 1)))):
        assert np.ptp(F) > 0.5
        assert np.array_equal(flow_inverse(F), np.linalg.inv(F))


def test_flow_identity_residual_matches_whole_array_formula():
    # node by node against the (P, N+1, m, m) product it replaced, on exact
    # and perturbed inverses, time-major and path-major
    model = _linear_flow_model([0.5, 1.5])
    ens = simulate_forward(model, Partition.uniform(1.0, 6), 300, 4)
    flows, _ = _flow_stack(model, ens)
    inverses = np.linalg.inv(flows)
    noise = np.random.default_rng(1).normal(scale=1e-3, size=flows.shape)
    for G in (inverses, inverses + noise):
        for F, Gs in ((flows, G),
                      (np.ascontiguousarray(flows), np.ascontiguousarray(G))):
            want = float(np.abs(np.einsum("piab,pibc->piac", F, Gs) - np.eye(2)).max())
            got = max(flow_identity_residual(F[:, i], Gs[:, i]).max()
                      for i in range(F.shape[1]))
            assert got == pytest.approx(want, rel=1e-12)
    assert want > 1e-4  # the perturbed inverses leave a visible residual


def test_dump_load_roundtrip(tmp_path):
    ens = simulate_forward(make_gbm(), Partition.uniform(1.0, 5), 37, 11)
    path = tmp_path / "ens.bin"
    dump_ensemble(ens, path)
    back = load_ensemble(path)
    assert back.seed == 11
    assert np.array_equal(back.states, ens.states)
    assert np.array_equal(back.partition.times, ens.partition.times)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(InvalidParameters):
        load_ensemble(path)
    ens = simulate_forward(make_gbm(), Partition.uniform(1.0, 4), 10, 0)
    dump_ensemble(ens, path)
    blob = path.read_bytes()
    # cut after whole floats, inside a float, and inside the header
    for cut in (blob[:-16], blob[:-3], blob[:20]):
        path.write_bytes(cut)
        with pytest.raises(InvalidParameters):
            load_ensemble(path)
    # d must equal m: the states alone determine the increments
    path.write_bytes(blob[:12] + (2).to_bytes(8, "little") + blob[20:])
    with pytest.raises(InvalidParameters, match="d = 2 but m = 1"):
        load_ensemble(path)


def _ensemble_bytes(ens):
    return ens.partition.times.nbytes + ens.states.nbytes


def _traced_peak(call):
    """call()'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_ensemble_reads_in_place(tmp_path):
    # no whole-file buffer: the traced peak is the arrays it returns
    ens = simulate_forward(make_gbm(), Partition.uniform(1.0, 16), 20_000, 1)
    dump_ensemble(ens, tmp_path / "ens.bin")
    back, peak = _traced_peak(lambda: load_ensemble(tmp_path / "ens.bin"))
    assert peak <= 1.1 * _ensemble_bytes(back)


def test_dump_ensemble_copies_no_time_major_array(tmp_path):
    ens = simulate_forward(make_gbm(), Partition.uniform(1.0, 16), 20_000, 1)
    _, peak = _traced_peak(lambda: dump_ensemble(ens, tmp_path / "ens.bin"))
    assert peak <= 0.1 * _ensemble_bytes(ens)


def test_load_checks_the_header_before_allocating(tmp_path, monkeypatch):
    path = tmp_path / "huge.bin"
    path.write_bytes(sde._HEADER.pack(sde._MAGIC, 1, 1, 4, 2 ** 40, 0) + b"\x00" * 64)

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(sde, "empty_time_major", refuse)
    with pytest.raises(InvalidParameters, match="header"):
        load_ensemble(path)


def test_load_rejects_the_path_major_format(tmp_path, monkeypatch):
    # the same header, then the increments and the states: path-major in a
    # QGB1 file, node by node in a QGB2 file
    model, part = make_gbm(), Partition.uniform(1.0, 4)
    ens = simulate_forward(model, part, 10, 0)
    path = tmp_path / "old.bin"
    dump_ensemble(ens, path)
    head = path.read_bytes()[4:44] + ens.partition.times.tobytes()
    dw = _drawn(ens)
    old = {b"QGB1": (dw, ens.states),
           b"QGB2": (dw.swapaxes(0, 1), ens.states.swapaxes(0, 1))}
    for magic, arrays in old.items():
        path.write_bytes(magic + head + b"".join(np.ascontiguousarray(a).tobytes()
                                                 for a in arrays))
        with pytest.raises(InvalidParameters, match=f"magic {magic!r}"):
            load_ensemble(path)
    # as a cache file, a QGB2 file sits under a cache key of format 3, which
    # no run asks for: it is neither read nor rejected nor replaced
    current = cli._CACHE_FORMAT
    monkeypatch.setattr(cli, "_CACHE_FORMAT", 3)
    stale = tmp_path / "cache" / f"ens_{cli._cache_key(model, part, 10, 0)}.bin"
    monkeypatch.setattr(cli, "_CACHE_FORMAT", current)
    stale.parent.mkdir()
    stale.write_bytes(path.read_bytes())
    monkeypatch.setenv("QGBSDE_CACHE_DIR", str(stale.parent))
    notes = []
    ctx = types.SimpleNamespace(model=model, n_paths=10, seed=0, workers=1,
                                note=notes.append, warn=notes.append)
    assert np.array_equal(cli.get_ensemble(ctx, part).states, ens.states)
    assert notes == [] and stale.read_bytes() == path.read_bytes()
    assert len(list(stale.parent.glob("ens_*.bin"))) == 2


def test_ensemble_shape_validation():
    part = Partition.uniform(1.0, 4)
    with pytest.raises(InvalidParameters):
        PathEnsemble(partition=part, seed=0, states=np.zeros((10, 4, 1)))
    with pytest.raises(InvalidParameters):
        PathEnsemble(partition=part, seed=0, states=np.zeros((10, 5)))


def test_increments_scale_with_dt():
    ens = simulate_forward(make_brownian(), Partition.uniform(4.0, 4), 50_000, 1)
    # each increment has variance dt = 1, and is the draw to rounding
    dw = _derived(make_brownian(), ens)
    assert dw.var() == pytest.approx(1.0, rel=0.05)
    raw = _fill_block(1, 0, 50_000, 4, 1)
    np.testing.assert_allclose(dw, raw * 1.0, atol=1e-14)
    # as it is under a state-dependent drift and sigma
    gbm = make_gbm(mu=0.3, vol=0.4)
    ens = simulate_forward(gbm, Partition.uniform(1.0, 32), 20_000, 3)
    np.testing.assert_allclose(_derived(gbm, ens), _drawn(ens), rtol=0, atol=1e-14)
