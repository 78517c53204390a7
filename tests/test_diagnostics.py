"""Tests for path-regularity statistics, truncation sweeps, and order fits."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from qgbsde import diagnostics
from qgbsde.diagnostics import (TruncationPoint, diagnose_pass, effective_qbar,
                                fit_convergence_order, regularity_pass,
                                truncation_error_curve)
from qgbsde.errors import InvalidParameters, InvalidPoints, PicardDivergence
from qgbsde.model import (ModelSpec, Partition, empty_time_major, make_brownian,
                          make_gbm, make_quadratic)
from qgbsde import solver
from qgbsde.regression import RegressionBasis, project, step_design
from qgbsde.sde import PathEnsemble, simulate_forward, simulate_variational
from qgbsde.solver import BackwardSolution, SolverMeta, solve_backward_regression
from qgbsde.truncation import truncate_driver
from qgbsde.variational import _representation_node
from test_sde import _flow_stack
from test_variational import _gradient_loop_with_own_estimator

GLOBAL2 = RegressionBasis(kind="global_polynomial", degree=2)
PLANAR = ModelSpec(
    name="planar", m=2, d=2, x0=np.zeros(2), T=1.0,
    b=lambda t, x: np.zeros_like(x),
    sigma=lambda t, x: np.broadcast_to(np.eye(2), x.shape + (2,)).copy(),
    f=lambda t, x, y, z: -0.5 * (z ** 2).sum(axis=1),
    g=lambda x: np.tanh(x).sum(axis=1),
    driver_z_lipschitz=1.0)


def _meta(n):
    return SolverMeta(y_residual_rms=np.zeros(n), z_residual_rms=np.zeros(n),
                      picard_residuals=np.zeros(n), conditions=np.ones(n),
                      fallback_cells=np.zeros(n, dtype=np.int64))


def _crafted(partition, Y, Z):
    return BackwardSolution(partition=partition, Y=Y, Z=Z,
                            meta=_meta(partition.n_steps))


# Reference statistics: one loop per statistic over two stored solutions,
# as the package computed them before regularity_pass. The crafted-value
# tests pin these formulas; the pass must reproduce them to rounding, since
# it sums the same terms row by row in another order.

def _coarse_nodes(coarse, fine):
    """Fine node indices of the coarse nodes: every factor-th fine node."""
    return np.arange(fine.times.size)[::fine.n_steps // coarse.n_steps]


def _ref_y_increment_stat(base, fine):
    idx = _coarse_nodes(base.partition, fine.partition)
    yf = fine.Y
    worst = 0.0
    for i in range(len(idx) - 1):
        lo, hi = idx[i], idx[i + 1]
        inc = yf[:, lo + 1:hi + 1] - yf[:, lo:lo + 1]
        worst = max(worst, float((inc ** 2).mean(axis=0).max()))
    return worst


def _ref_z_increment_stat(Z):
    worst = 0.0
    for i in range(Z.shape[1] - 1):
        dz = Z[:, i + 1] - Z[:, i]
        worst = max(worst, float(np.einsum("pd,pd->", dz, dz)) / Z.shape[0])
    return worst


def _ref_z_l2_regularity(base, fine, zbar):
    """E sum_j |Z_j - zbar_i(j)|^2 dt_j for a (P, N_coarse, d) zbar."""
    idx = _coarse_nodes(base.partition, fine.partition)
    dt_f = fine.partition.dt
    total = 0.0
    for i in range(len(idx) - 1):
        lo, hi = idx[i], idx[i + 1]
        diff = fine.Z[:, lo:hi] - zbar[:, i:i + 1]
        total += float(((diff ** 2).sum(axis=2) * dt_f[lo:hi]).mean(axis=0).sum())
    return total


def _ref_window_average_fit(fine, fine_ens, coarse, basis):
    idx = _coarse_nodes(coarse, fine.partition)
    dtf = fine.partition.dt
    P, _, d = fine.Z.shape
    out = empty_time_major(coarse.n_steps, P, (d,))
    for i in range(coarse.n_steps):
        j0, j1 = idx[i], idx[i + 1]
        h = coarse.times[i + 1] - coarse.times[i]
        avg = np.einsum("pjd,j->pd", fine.Z[:, j0:j1], dtf[j0:j1]) / h
        out[:, i] = project(step_design(basis, fine_ens.states[:, j0], step=i), avg)[0]
    return out


def _ref_node_fit(sol, ens, basis):
    zbar = np.empty_like(sol.Z)
    for i in range(sol.partition.n_steps):
        zbar[:, i] = project(step_design(basis, ens.states[:, i], step=i), sol.Z[:, i])[0]
    return zbar


def _ref_left_endpoint(base, fine):
    return fine.Z[:, _coarse_nodes(base.partition, fine.partition)[:-1]]


def _path_major(ens):
    return PathEnsemble(partition=ens.partition, seed=ens.seed,
                        states=np.ascontiguousarray(ens.states))


def test_fit_convergence_order_recovers_exact_slopes():
    fit = fit_convergence_order([1.0, 0.5, 0.25], [2.0, 1.0, 0.5])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert np.exp(fit.intercept) == pytest.approx(2.0, rel=1e-12)
    half = fit_convergence_order([1.0, 0.25, 0.0625], np.sqrt([1.0, 0.25, 0.0625]))
    assert half.slope == pytest.approx(0.5, abs=1e-12)


def test_fit_convergence_order_rejects_bad_points():
    with pytest.raises(InvalidPoints):
        fit_convergence_order([1.0, 0.5], [1.0, 0.5])
    with pytest.raises(InvalidPoints):
        fit_convergence_order([1.0, 0.5, -0.1], [1.0, 0.5, 0.1])
    with pytest.raises(InvalidPoints):
        fit_convergence_order([1.0, 0.5, 0.25], [1.0, 0.0, 0.5])
    with pytest.raises(InvalidPoints):
        fit_convergence_order([1.0, 0.5, 0.25], [[1.0], [0.5], [0.25]])
    with pytest.raises(InvalidPoints):
        fit_convergence_order([0.5, 0.5, 0.5], [1.0, 1.0, 1.0])


def test_y_increment_stat_crafted_values():
    coarse = Partition.uniform(1.0, 2)
    fine = Partition.uniform(1.0, 4)
    Y = np.tile(np.arange(5.0), (3, 1))  # every path walks 0,1,2,3,4
    sol_c = _crafted(coarse, Y[:, ::2], np.zeros((3, 2, 1)))
    sol_f = _crafted(fine, Y, np.zeros((3, 4, 1)))
    # windows close on the right, so each one sees the full 2-node excursion
    assert _ref_y_increment_stat(sol_c, sol_f) == 4.0


def test_y_increment_stat_brownian_scaling():
    # for Y = W the worst window statistic is the window width itself
    model = make_brownian()
    ens_f = simulate_forward(model, Partition.uniform(1.0, 16), 20000, seed=9)
    stat = regularity_pass(model, ens_f, 4, GLOBAL2).y_increment_sq
    assert 0.8 * 0.25 < stat < 1.2 * 0.25
    # halving the window halves the statistic
    stat8 = regularity_pass(model, ens_f, 2, GLOBAL2).y_increment_sq
    assert 0.7 * 0.5 < stat8 / stat < 1.3 * 0.5


def test_z_increment_stat_crafted():
    Z = np.tile(np.arange(4.0)[:, None], (5, 1, 1))
    assert _ref_z_increment_stat(Z) == 1.0


def test_z_increment_stat_matches_whole_array_formula():
    # the per-step loop against the (P, N, d) difference, on a path-major and
    # a time-major copy of the same control
    Z = np.random.default_rng(5).normal(size=(2000, 6, 2)) * np.arange(1.0, 7.0)[:, None]
    want = float(((Z[:, 1:] - Z[:, :-1]) ** 2).sum(axis=2).mean(axis=0).max())
    time_major = np.ascontiguousarray(Z.swapaxes(0, 1)).swapaxes(0, 1)
    for z in (Z, time_major):
        assert _ref_z_increment_stat(z) == pytest.approx(want, rel=1e-13)


def test_z_l2_regularity_exact_projections():
    # fine control Z_t = t, constant across paths: every projection is exact
    # and the sums reduce to closed-form Riemann sums
    model = make_brownian()
    coarse, fine = Partition.uniform(1.0, 4), Partition.uniform(1.0, 16)
    ens_f = simulate_forward(model, fine, 500, seed=2)
    tz = np.tile(fine.times[:16][None, :, None], (500, 1, 1))
    sol_f = _crafted(fine, np.zeros((500, 17)), tz)
    left_vals = tz[:, ::4][:, :4]
    sol_c = _crafted(coarse, np.zeros((500, 5)), left_vals)

    left = _ref_z_l2_regularity(sol_c, sol_f, _ref_left_endpoint(sol_c, sol_f))
    assert left == pytest.approx(7.0 / 512.0, rel=1e-12)
    node = _ref_z_l2_regularity(sol_c, sol_f, left_vals)  # an exact node fit
    assert node == pytest.approx(7.0 / 512.0, rel=1e-12)
    window = _ref_z_l2_regularity(
        sol_c, sol_f, _ref_window_average_fit(sol_f, ens_f, coarse, GLOBAL2))
    # the window mean is the optimal constant: sum of centered squares
    assert window == pytest.approx(5.0 / 1024.0, rel=1e-7)
    assert window < left


QUAD6 = truncate_driver(make_quadratic(), 6.0)
GLOBAL4 = RegressionBasis(kind="global_polynomial", degree=4)
_PASS_CASES = {
    # model, basis, fine steps, factor, paths, path-major fine ensemble
    # (70k paths: nine forward blocks of at most 8192 paths; the global
    # projection has no path blocks)
    "global4_70k": (QUAD6, GLOBAL4, 16, 4, 70_000, False),
    "local1": (make_brownian(terminal="tanh"),
               RegressionBasis(kind="local_partition", degree=1, cells_per_dim=20),
               18, 3, 20_000, False),
    "planar": (PLANAR, GLOBAL2, 8, 2, 5_000, False),
    "planar_local": (PLANAR, RegressionBasis(kind="local_partition", degree=1,
                                             cells_per_dim=6), 8, 2, 5_000, False),
    "path_major": (QUAD6, GLOBAL4, 16, 4, 10_000, True),
    # the extreme factors: one window over the whole horizon, and windows of
    # one fine step each
    "one_window": (QUAD6, GLOBAL2, 8, 8, 5_000, False),
    "factor_1": (QUAD6, GLOBAL2, 8, 1, 5_000, False),
}


def _recording_coarse_steps(monkeypatch, fine):
    """Record what every coarse step of a pass over fine returns, by node:
    Y_i, Z_i, the two residual RMS, the Picard residual and the design's
    condition and fallback count, in the layout of a BackwardSolution."""
    steps = {}

    def recording(model, design, ensemble, i, dw, y_next):
        out = solver._backward_step(model, design, ensemble, i, dw, y_next)
        if ensemble is not fine:
            steps[i] = (design, *out)
        return out

    monkeypatch.setattr(diagnostics, "_backward_step", recording)

    def solution():
        n = len(steps)
        assert sorted(steps) == list(range(n))
        design, y, z, y_rms, z_rms, pic = zip(*(steps[i] for i in range(n)))
        return (np.stack(y, axis=1), np.stack(z, axis=1),
                _meta_of(design, y_rms, z_rms, pic))
    return solution


def _meta_of(designs, y_rms, z_rms, pic):
    return SolverMeta(y_residual_rms=np.array(y_rms), z_residual_rms=np.array(z_rms),
                      picard_residuals=np.array(pic),
                      conditions=np.array([d.condition for d in designs]),
                      fallback_cells=np.array([d.fallback_cells for d in designs]))


@pytest.mark.parametrize("case", list(_PASS_CASES))
def test_regularity_pass_matches_stored_solutions(case, monkeypatch):
    model, basis, n_fine, factor, n_paths, path_major = _PASS_CASES[case]
    ens_f = simulate_forward(model, Partition.uniform(1.0, n_fine), n_paths, seed=3)
    if path_major:
        ens_f = _path_major(ens_f)
    coarse_solution = _recording_coarse_steps(monkeypatch, ens_f)
    reg = regularity_pass(model, ens_f, factor, basis)
    # the coarse ensemble: the fine states at every factor-th node, and the
    # window sums of the fine increments
    ens_c = diagnostics._coarsen(ens_f, factor)
    coarse = ens_c.partition
    np.testing.assert_array_equal(coarse.times, ens_f.partition.times[::factor])
    np.testing.assert_array_equal(ens_c.states, ens_f.states[:, ::factor])
    fine_dw = np.stack([ens_f.increment(model, j) for j in range(n_fine)], axis=1)
    np.testing.assert_allclose(
        np.stack([ens_c.increment(model, i) for i in range(coarse.n_steps)], axis=1),
        np.add.reduceat(fine_dw, np.arange(0, n_fine, factor), axis=1),
        rtol=0, atol=1e-15)
    sol_c = solve_backward_regression(model, ens_c, basis)
    sol_f = solve_backward_regression(model, ens_f, basis)
    want = dict(
        y_increment_sq=_ref_y_increment_stat(sol_c, sol_f),
        z_regularity_sum=_ref_z_l2_regularity(
            sol_c, sol_f, _ref_window_average_fit(sol_f, ens_f, coarse, basis)),
        z_regularity_node=_ref_z_l2_regularity(
            sol_c, sol_f, _ref_node_fit(sol_c, ens_c, basis)),
        z_regularity_left_endpoint=_ref_z_l2_regularity(
            sol_c, sol_f, _ref_left_endpoint(sol_c, sol_f)),
        z_increment_sq=_ref_z_increment_stat(sol_f.Z))
    # the statistics to rounding, with no absolute floor: at factor 1 the
    # window sum is ~1e-19, the rounding noise of the fits, and must still
    # match to rel 1e-12
    assert {k: getattr(reg, k) for k in want} == {
        k: pytest.approx(v, rel=1e-12, abs=0.0) for k, v in want.items()}
    # the coarse solve, held one node at a time, is the stored one's bit for bit
    Y, Z, meta = coarse_solution()
    np.testing.assert_array_equal(Y, sol_c.Y[:, :-1])
    np.testing.assert_array_equal(Z, sol_c.Z)
    for field in ("y_residual_rms", "z_residual_rms", "picard_residuals",
                  "conditions", "fallback_cells"):
        np.testing.assert_array_equal(getattr(meta, field), getattr(sol_c.meta, field))


def _ref_bmo(sol, ens, basis):
    """The BMO estimate and plain mean from a stored solution: every node's
    tail sum of |Z|^2 dt at once, as a reversed cumulative sum over the
    nodes, each regressed on its node's state."""
    terms = (sol.Z ** 2).sum(axis=2) * sol.partition.dt
    tails = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
    nodes = [np.ascontiguousarray(tails[:, i]) for i in range(sol.partition.n_steps)]
    fitted = [project(step_design(basis, ens.states[:, i], step=i), tail[:, None])[0]
              for i, tail in enumerate(nodes)]
    return (max(float(f.max()) for f in fitted),
            max(float(tail.mean()) for tail in nodes))


def _bmo(diag):
    return diag.bmo_estimate, diag.bmo_plain


def _standalone_chain(model, ens_c, basis):
    """The checks diagnose_pass fuses, one after another on the coarse
    ensemble: its stored solve, the BMO estimate of it, the flows, the
    gradient solve with its own estimator and the representation residual
    at each node. Returns the BMO estimate, the flows, their identity
    residual and the residual's per-node RMS and max, (N, 2)."""
    sol = solve_backward_regression(model, ens_c, basis)
    flows, flow_residual = _flow_stack(model, ens_c)
    U, _ = _gradient_loop_with_own_estimator(model, ens_c, flows, sol, basis)
    rep = [_representation_node(model, ens_c, i, flows[:, i], U[:, i], sol.Z[:, i])
           for i in range(sol.partition.n_steps)]
    return _ref_bmo(sol, ens_c, basis), flows, flow_residual, np.array(rep)


_DIAGNOSE_CASES = {
    # model, basis, fine steps, factor, paths; gbm's flows are the states
    # over x0, the quadratic model's are exactly 1
    "quadratic": (QUAD6, GLOBAL4, 16, 4, 20_000),
    "gbm": (make_gbm(mu=0.3, vol=0.4), GLOBAL2, 12, 3, 5_000),
    "gbm_local": (make_gbm(), RegressionBasis(kind="local_partition", degree=1,
                                              cells_per_dim=10), 8, 2, 4_000),
}


@pytest.mark.parametrize("case", list(_DIAGNOSE_CASES))
def test_diagnose_pass_matches_the_standalone_chain_bitwise(case, monkeypatch):
    model, basis, n_fine, factor, n_paths = _DIAGNOSE_CASES[case]
    ens_f = simulate_forward(model, Partition.uniform(1.0, n_fine), n_paths, seed=3)
    served = []  # the flows served to the pass, in the order it read them

    def keeping(model, ensemble):
        flows, resid = simulate_variational(model, ensemble)

        def recording():
            for flow in flows:
                served.append(flow)
                yield flow
        return recording(), resid

    monkeypatch.setattr(diagnostics, "simulate_variational", keeping)
    diag = diagnose_pass(model, ens_f, factor, basis)
    reg = regularity_pass(model, ens_f, factor, basis)
    assert diag.regularity == reg
    bmo, flows, flow_residual, rep = _standalone_chain(
        model, diagnostics._coarsen(ens_f, factor), basis)
    assert diag.gradient_error is None
    assert _bmo(diag) == bmo
    assert diag.flow_identity_residual == flow_residual
    # every node once, from the last to the first
    assert len(served) == flows.shape[1]
    np.testing.assert_array_equal(np.stack(served[::-1], axis=1), flows)
    np.testing.assert_array_equal(diag.representation_rms, rep[:, 0])
    np.testing.assert_array_equal(diag.representation_max, rep[:, 1])
    if model.name == "gbm":
        assert np.ptp(flows) > 0.1
    else:
        assert np.all(flows == 1.0)


@pytest.mark.parametrize("case", ["quadratic", "gbm_local"])
def test_diagnose_pass_at_factor_1_is_the_single_grid_solve(case, monkeypatch):
    # the coarse ensemble is the fine one bit for bit, so every check is
    # taken on the solve_backward_regression of the given paths
    model, basis, n_steps, _, n_paths = _DIAGNOSE_CASES[case]
    ens = simulate_forward(model, Partition.uniform(1.0, n_steps), n_paths, seed=3)
    coarse_solution = _recording_coarse_steps(monkeypatch, ens)
    diag = diagnose_pass(model, ens, 1, basis)
    ens_c = diagnostics._coarsen(ens, 1)
    np.testing.assert_array_equal(ens_c.states, ens.states)
    np.testing.assert_array_equal(ens_c.partition.times, ens.partition.times)
    for i in range(n_steps):
        np.testing.assert_array_equal(ens_c.increment(model, i), ens.increment(model, i))
    sol = solve_backward_regression(model, ens, basis)
    Y, Z, meta = coarse_solution()
    np.testing.assert_array_equal(Y, sol.Y[:, :-1])
    np.testing.assert_array_equal(Z, sol.Z)
    assert meta.y_residual_rms[0] == sol.meta.y_residual_rms[0]
    assert meta.z_residual_rms[0] == sol.meta.z_residual_rms[0]
    assert _bmo(diag) == _ref_bmo(sol, ens, basis)


def test_coarse_window_is_the_fine_increments_and_their_forward_sum():
    # one derivation gives the fine steps of a window and the coarse step's
    # increment, which _lockstep and simulate_variational both read
    model = make_gbm(mu=0.3, vol=0.4)
    ens = simulate_forward(model, Partition.uniform(1.0, 12), 500, seed=3)
    coarse = diagnostics._coarsen(ens, 3)
    for i in range(4):
        dws, dw = coarse.window(model, i)
        assert len(dws) == 3
        for k, inc in enumerate(dws):
            np.testing.assert_array_equal(inc, ens.increment(model, 3 * i + k))
        np.testing.assert_array_equal(dw, (dws[0] + dws[1]) + dws[2])
        np.testing.assert_array_equal(coarse.increment(model, i), dw)


def test_diagnose_pass_goes_on_without_a_failing_gradient():
    # f_y = 3 makes the gradient's implicit factor 1 - dt f_y = 0.25 from
    # t < 0.5 on, which fails at node 1 of 4; without b_jac there are no flows
    quad = truncate_driver(make_quadratic(), 6.0)
    stiff = dataclasses.replace(
        quad, f_y=lambda t, x, y, z: np.full(x.shape[0], 3.0 if t < 0.5 else 0.0))
    ens_f = simulate_forward(quad, Partition.uniform(1.0, 8), 3000, seed=2)
    reg = regularity_pass(quad, ens_f, 2, GLOBAL2)
    ens_c = diagnostics._coarsen(ens_f, 2)
    sol = solve_backward_regression(quad, ens_c, GLOBAL2)
    diverged = "implicit factor 1 - dt f_y reached 2.500e-01; refine the grid (step 1)"
    for model, error in ((stiff, diverged), (dataclasses.replace(quad, b_jac=None), None)):
        diag = diagnose_pass(model, ens_f, 2, GLOBAL2)
        assert diag.representation_rms is None and diag.representation_max is None
        assert diag.regularity == reg
        assert _bmo(diag) == _ref_bmo(sol, ens_c, GLOBAL2)
        if error is not None:
            assert diag.gradient_error == error
    assert "b_jac" in diag.gradient_error
    assert diag.flow_identity_residual is None


def test_diagnose_pass_releases_the_flows_when_the_gradient_fails(monkeypatch):
    # the fixture above, whose gradient fails at coarse node 1 of 4: from
    # there on nothing reads the flows, so the pass no longer holds them
    quad = truncate_driver(make_quadratic(), 6.0)
    stiff = dataclasses.replace(
        quad, f_y=lambda t, x, y, z: np.full(x.shape[0], 3.0 if t < 0.5 else 0.0))
    ens_f = simulate_forward(quad, Partition.uniform(1.0, 8), 3000, seed=2)
    flows, alive = [], []

    def keeping(model, ensemble):
        served, resid = simulate_variational(model, ensemble)
        flows.append(weakref.ref(served))
        return served, resid

    def watching(model, fine, coarse, basis, at_node):
        def at(i, *args):
            at_node(i, *args)
            alive.append((i, flows[0]() is not None))
        return lockstep(model, fine, coarse, basis, at)

    lockstep = diagnostics._lockstep
    monkeypatch.setattr(diagnostics, "simulate_variational", keeping)
    monkeypatch.setattr(diagnostics, "_lockstep", watching)
    diag = diagnose_pass(stiff, ens_f, 2, GLOBAL2)
    assert diag.gradient_error.endswith("(step 1)")
    assert alive == [(3, True), (2, True), (1, False), (0, False)]


@pytest.mark.parametrize("run", [regularity_pass, diagnose_pass],
                         ids=lambda run: run.__name__)
def test_pass_result_does_not_keep_the_fine_states(run):
    ens = simulate_forward(QUAD6, Partition.uniform(1.0, 8), 2000, seed=3)
    # the states and the array that owns their memory
    refs = [weakref.ref(a) for a in (ens.states, ens.states.base)]
    result = run(QUAD6, ens, 2, GLOBAL2)
    del ens
    gc.collect()
    assert all(ref() is None for ref in refs)  # while the result lives on
    if run is diagnose_pass:  # its flows and gradient ran
        assert result.representation_rms is not None


def test_factor_1_runs_each_backward_step_once(monkeypatch):
    # the window's one fine step is the coarse step bit for bit (the
    # factor_1 pass case), so it is taken from the coarse step, not rerun
    steps = []

    def counting(model, design, ensemble, i, dw, y_next):
        steps.append(i)
        return solver._backward_step(model, design, ensemble, i, dw, y_next)

    monkeypatch.setattr(diagnostics, "_backward_step", counting)
    ens = simulate_forward(QUAD6, Partition.uniform(1.0, 8), 2000, seed=3)
    regularity_pass(QUAD6, ens, 1, GLOBAL2)
    assert steps == list(range(7, -1, -1))
    steps.clear()
    regularity_pass(QUAD6, ens, 2, GLOBAL2)
    assert len(steps) == 8 + 4


def test_regularity_pass_rejects_coarse_states_off_the_fine_paths():
    # the pass builds the coarse states from the fine paths itself; what is
    # left to reject is a factor that leaves no whole windows
    model = make_brownian()
    ens_f = simulate_forward(model, Partition.uniform(1.0, 8), 500, seed=1)
    for factor in (3, 0):
        with pytest.raises(InvalidParameters, match="does not divide"):
            regularity_pass(model, ens_f, factor, GLOBAL2)
    regularity_pass(model, ens_f, 4, GLOBAL2)


def test_bmo_estimate_constant_control(monkeypatch):
    # |Z| = 1 makes every tail sum T - t_i, so both estimates equal T; the
    # pass's coarse control is replaced by 1 as it is handed to the checks
    def unit_control(model, design, ensemble, i, dw, y_next):
        y, z, *rest = solver._backward_step(model, design, ensemble, i, dw, y_next)
        return (y, np.ones_like(z), *rest)

    monkeypatch.setattr(diagnostics, "_backward_step", unit_control)
    ens = simulate_forward(make_brownian(), Partition.uniform(1.0, 8), 2000, seed=3)
    diag = diagnose_pass(make_brownian(), ens, 1, GLOBAL2)
    assert diag.bmo_plain == pytest.approx(1.0, rel=1e-12)
    assert diag.bmo_estimate == pytest.approx(1.0, rel=1e-6)


def test_truncation_curve_saturated_levels_are_exact_zero():
    model = make_quadratic()
    part = Partition.uniform(1.0, 8)
    ens = simulate_forward(model, part, 4000, seed=5)
    curve = truncation_error_curve(model, ens, GLOBAL2, levels=[2.0, 4.0])
    # the canonical control stays near tanh scale, far below these levels,
    # so the truncation never engages and the recursions agree bitwise
    assert curve.realized_max_z < 2.0
    assert all(p.err_y == 0.0 and p.err_z == 0.0 for p in curve.points)
    assert curve.positive_points() == []
    assert effective_qbar(curve) is None


def test_truncation_curve_decay_and_qbar():
    model = make_quadratic()
    part = Partition.uniform(1.0, 8)
    ens = simulate_forward(model, part, 4000, seed=5)
    # the 4.0 rung sets the reference level at 8.0; its error is 0, below
    # the noise floor, so the fit takes the four decaying levels only
    curve = truncation_error_curve(model, ens, GLOBAL2,
                                   levels=[0.05, 0.1, 0.2, 0.4, 4.0])
    errs = [p.err_y for p in curve.points]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    out = effective_qbar(curve)
    assert out is not None
    qbar, fit = out
    assert fit.slope < 0.0
    assert qbar > 0.0


def test_batched_curve_matches_per_level_solves():
    # reference implementation: one full solve per level, errors taken on
    # the stored solutions; the pass steps each column on the kernels of a
    # single solve, so it agrees bit for bit. The second ladder lies entirely
    # below the realized max |Z|, so the reference's own column splits off
    # as well.
    model = make_quadratic()
    part = Partition.uniform(1.0, 8)
    ens = simulate_forward(model, part, 4000, seed=5)
    for levels in ([0.1, 0.2, 0.4, 4.0], [0.1, 0.2]):
        curve = truncation_error_curve(model, ens, GLOBAL2, levels)
        ref_level = curve.reference_level
        assert ref_level == 2 * levels[-1]
        ref = solve_backward_regression(truncate_driver(model, ref_level), ens, GLOBAL2)
        got, want = [], []
        for p, n in zip(curve.points, levels):
            sol = solve_backward_regression(truncate_driver(model, n), ens, GLOBAL2)
            err_y = float(((sol.Y - ref.Y) ** 2).max(axis=1).mean())
            err_z = float((((sol.Z - ref.Z) ** 2).sum(axis=2) * part.dt)
                          .mean(axis=0).sum())
            assert p.level == n
            got += [p.err_y, p.err_z, p.y0, *p.z0, p.y0_residual_rms,
                    p.z0_residual_rms]
            want += [err_y, err_z, sol.y0, *sol.Z[:, 0].mean(axis=0),
                     sol.meta.y_residual_rms[0], sol.meta.z_residual_rms[0]]
        got += [curve.realized_max_z, curve.y_scale]
        want += [float(np.abs(ref.Z).max()), float((ref.Y ** 2).max(axis=1).mean())]
        assert got == want
        # exactly the levels above the realized max |Z| share the reference
        assert ([p.err_y == 0.0 for p in curve.points]
                == [n >= curve.realized_max_z for n in levels])
    assert curve.realized_max_z > ref_level  # the reference split off


def _own_solve_point(model, ens, level, ref):
    """level's TruncationPoint from its own solve, with errors against the
    reference solve ref on the stored solutions."""
    sol = solve_backward_regression(truncate_driver(model, level), ens, GLOBAL2)
    err_y = float(((sol.Y - ref.Y) ** 2).max(axis=1).mean())
    err_z = float((((sol.Z - ref.Z) ** 2).sum(axis=2) * ens.partition.dt)
                  .mean(axis=0).sum())
    return TruncationPoint(level, err_y, err_z, sol.y0, tuple(sol.z0),
                           sol.meta.y_residual_rms[0], sol.meta.z_residual_rms[0])


@pytest.mark.parametrize("level", [0.05, 0.15, 0.4, 1.0, 6.0])
def test_solved_level_beside_a_clamping_reference_is_its_own_solve(level):
    # the [0.1, 0.2] ladder's reference, 0.4, clamps: a level above it
    # leaves the reference's row on the reference's first clamped step
    model = make_quadratic()
    ens = simulate_forward(model, Partition.uniform(1.0, 8), 4000, seed=5)
    base = truncation_error_curve(model, ens, GLOBAL2, [0.1, 0.2])
    curve = truncation_error_curve(model, ens, GLOBAL2, [0.1, 0.2], level=level)
    assert base.realized_max_z > base.reference_level == 0.4
    assert curve.points == base.points
    assert ([curve.reference_level, curve.realized_max_z, curve.y_scale]
            == [base.reference_level, base.realized_max_z, base.y_scale])
    ref = solve_backward_regression(truncate_driver(model, 0.4), ens, GLOBAL2)
    assert curve.solve == _own_solve_point(model, ens, level, ref)


@pytest.mark.parametrize("levels, clamps", [([0.3, 0.6, 1.2], False), ([0.2, 0.4], True)],
                         ids=["reference-above-max-z", "reference-clamps"])
def test_planar_curve_matches_per_level_solves(levels, clamps):
    # d = 2, realized max |Z| 1.29: the 1.2 level engages its clamp, and the
    # second ladder's reference, 0.8, clamps as well
    ens = simulate_forward(PLANAR, Partition.uniform(1.0, 8), 4000, seed=5)
    curve = truncation_error_curve(PLANAR, ens, GLOBAL2, levels)
    ref = solve_backward_regression(truncate_driver(PLANAR, curve.reference_level),
                                    ens, GLOBAL2)
    assert curve.points == tuple(_own_solve_point(PLANAR, ens, n, ref) for n in levels)
    assert ([curve.realized_max_z, curve.y_scale]
            == [float(np.abs(ref.Z).max()), float((ref.Y ** 2).max(axis=1).mean())])
    assert (curve.realized_max_z > curve.reference_level) == clamps
    assert all(p.err_y > 0.0 for p in curve.points)


def test_levels_above_the_realized_max_z_share_one_column(monkeypatch):
    # max |Z| is 1.49: no level engages its clamp, so every step projects
    # one column, and every level's y0 is the reference solve's bit for bit
    widths = []

    def counting(design, targets):
        widths.append(targets.shape[1])
        return project(design, targets)

    model = make_quadratic()
    ens = simulate_forward(model, Partition.uniform(model.T, 6), 2000, seed=1)
    monkeypatch.setattr(solver, "project", counting)
    curve = truncation_error_curve(model, ens, GLOBAL2, [2.0, 3.0])
    assert widths == [1] * (2 * 6)  # the Y and the Z projection per step
    assert curve.realized_max_z < 2.0
    ref = solve_backward_regression(truncate_driver(model, 6.0), ens, GLOBAL2)
    for p in curve.points:
        assert p.y0 == ref.y0
        assert p.err_y == 0.0 and p.err_z == 0.0


def _falling_sigma():
    """g(x) = x gives Z = sigma(t), here 3 at t = 0 falling to 1 at t = 1:
    a clamp below 3 engages partway through the backward pass."""
    quad = make_quadratic(terminal="identity")
    model = dataclasses.replace(
        quad, sigma=lambda t, x: np.full(x.shape + (1,), 3.0 - 2.0 * t))
    part = Partition.uniform(1.0, 8)
    return model, part, simulate_forward(model, part, 4000, seed=5)


def test_level_split_off_partway_matches_its_own_solve():
    # level 2 shares the reference's column over the last steps of the grid
    # and splits off once the clamp engages partway through the pass
    model, part, ens = _falling_sigma()
    curve = truncation_error_curve(model, ens, GLOBAL2, [2.0])
    ref = solve_backward_regression(truncate_driver(model, 4.0), ens, GLOBAL2)
    sol = solve_backward_regression(truncate_driver(model, 2.0), ens, GLOBAL2)
    engaged = np.abs(sol.Z).max(axis=(0, 2)) > 2.0
    assert engaged[0] and not engaged[-1]
    assert np.abs(ref.Z).max() < 4.0
    err_y = float(((sol.Y - ref.Y) ** 2).max(axis=1).mean())
    err_z = float((((sol.Z - ref.Z) ** 2).sum(axis=2) * part.dt).mean(axis=0).sum())
    (p,) = curve.points
    assert p.err_y > 0.0
    assert ([p.err_y, p.err_z, p.y0, curve.realized_max_z, curve.y_scale]
            == [err_y, err_z, sol.y0, float(np.abs(ref.Z).max()),
                float((ref.Y ** 2).max(axis=1).mean())])


def test_truncation_curve_diverging_column_raises_with_step():
    # f = 2 y |z|^2 with Z near sigma = 3: the Picard factor dt 2 clamp(Z)^2
    # stays below 1/4 at level 0.01 (|clamp| <= 1.01) but reaches about 2.25
    # once the level no longer engages, so only that column diverges
    model = dataclasses.replace(
        make_quadratic(terminal="identity", sigma=3.0),
        f=lambda t, x, y, z: 2.0 * y * np.sum(z * z, axis=1))
    ens = simulate_forward(model, Partition.uniform(1.0, 8), 4000, seed=5)
    curve = truncation_error_curve(model, ens, GLOBAL2, [0.01])
    assert np.isfinite(curve.points[0].y0)
    with pytest.raises(PicardDivergence) as exc:
        truncation_error_curve(model, ens, GLOBAL2, [0.01, 4.0])
    assert exc.value.step == 7  # the first step of the backward pass


def test_truncation_curve_validation():
    model = make_quadratic()
    part = Partition.uniform(1.0, 4)
    ens = simulate_forward(model, part, 500, seed=0)
    with pytest.raises(InvalidParameters):
        truncation_error_curve(model, ens, GLOBAL2, levels=[])
    with pytest.raises(InvalidParameters):
        truncation_error_curve(model, ens, GLOBAL2, levels=[-1.0, 2.0])


@pytest.mark.parametrize("model", [make_quadratic(), PLANAR], ids=["d1", "d2"])
def test_truncation_points_compare_and_hash_by_value(model):
    ens = simulate_forward(model, Partition.uniform(1.0, 4), 500, seed=0)
    a, b = (truncation_error_curve(model, ens, GLOBAL2, [1.0, 2.0]).points
            for _ in range(2))
    assert all(type(v) is float for p in a for v in p.z0) and len(a[0].z0) == model.d
    assert a == b and [hash(p) for p in a] == [hash(p) for p in b]
    moved = dataclasses.replace(a[0], z0=tuple(v + 1.0 for v in a[0].z0))
    assert a[0] != moved and a[0] != a[1]
    assert len({*a, *b, moved}) == 3


def _counting_kernels(monkeypatch):
    calls = {"pair": 0, "implicit": 0}

    def counting(name, kernel):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(diagnostics, "_row_pair",
                        counting("pair", diagnostics._row_pair))
    monkeypatch.setattr(diagnostics, "_implicit_step",
                        counting("implicit", diagnostics._implicit_step))
    return calls


# shares: the level steps a row the pass steps anyway
@pytest.mark.parametrize("level, shares", [
    (2.0, True),  # on the ladder: that ladder row
    (1.5, False),  # between two ladder levels
    (0.5, False),  # below the ladder
    ("realized", True),  # at the reference's max |Z|
    (4.0, True),  # the reference level
    (6.0, True),  # above it
], ids=["on-ladder", "between", "below", "at-realized-max-z", "reference", "above"])
def test_solved_level_is_one_more_unreported_row(monkeypatch, level, shares):
    # ladder 1, 2 with the reference at 4; both ladder levels split off
    # partway, as does any level below 3
    model, part, ens = _falling_sigma()
    calls = _counting_kernels(monkeypatch)
    base = truncation_error_curve(model, ens, GLOBAL2, [1.0, 2.0])
    base_calls = dict(calls)
    if level == "realized":
        level = base.realized_max_z
    curve = truncation_error_curve(model, ens, GLOBAL2, [1.0, 2.0], level=level)
    extra = {k: calls[k] - 2 * base_calls[k] for k in calls}
    if shares:
        assert extra == {"pair": 0, "implicit": 0}
    else:
        assert extra["pair"] > 0 and extra["implicit"] > 0
    # the reported curve is the one without the level, bit for bit
    assert curve.points == base.points
    assert ([curve.reference_level, curve.realized_max_z, curve.y_scale]
            == [base.reference_level, base.realized_max_z, base.y_scale])
    assert curve.reference_level == 4.0 and base.solve is None
    # and the solved level is its own solve, errors against the reference's
    sol = solve_backward_regression(truncate_driver(model, level), ens, GLOBAL2)
    ref = solve_backward_regression(truncate_driver(model, 4.0), ens, GLOBAL2)
    err_y = float(((sol.Y - ref.Y) ** 2).max(axis=1).mean())
    err_z = float((((sol.Z - ref.Z) ** 2).sum(axis=2) * part.dt).mean(axis=0).sum())
    assert curve.solve == TruncationPoint(
        level, err_y, err_z, sol.y0, tuple(sol.z0), sol.meta.y_residual_rms[0],
        sol.meta.z_residual_rms[0])
    assert (err_y == 0.0) == (level >= base.realized_max_z)


@pytest.mark.parametrize("level", [-1.0, np.nan, np.inf])
def test_solved_level_is_checked_before_any_step(monkeypatch, level):
    model = make_quadratic()
    ens = simulate_forward(model, Partition.uniform(1.0, 4), 500, seed=0)
    steps = []
    monkeypatch.setattr(diagnostics, "step_design",
                        lambda *args, **kwargs: steps.append(args) or step_design(
                            *args, **kwargs))
    with pytest.raises(InvalidParameters):
        truncation_error_curve(model, ens, GLOBAL2, [1.0, 2.0], level=level)
    assert steps == []
