"""Tests for path-regularity statistics, truncation sweeps, and order fits."""

import dataclasses

import numpy as np
import pytest

from qgbsde.diagnostics import (BmoEstimate, bmo_estimate, effective_qbar,
                                fit_convergence_order, regularity_pass,
                                truncation_error_curve)
from qgbsde.errors import InvalidParameters, InvalidPoints, PicardDivergence
from qgbsde.model import (ModelSpec, Partition, empty_time_major, make_brownian,
                          make_quadratic, nested_indices)
from qgbsde import solver
from qgbsde.regression import RegressionBasis, project, step_design
from qgbsde.sde import PathEnsemble, simulate_forward
from qgbsde.solver import BackwardSolution, SolverMeta, solve_backward_regression
from qgbsde.truncation import truncate_driver

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
# tests pin these formulas; the pass must reproduce them bit for bit.

def _ref_y_increment_stat(base, fine):
    idx = nested_indices(base.partition, fine.partition)
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
    idx = nested_indices(base.partition, fine.partition)
    dt_f = fine.partition.dt
    total = 0.0
    for i in range(len(idx) - 1):
        lo, hi = idx[i], idx[i + 1]
        diff = fine.Z[:, lo:hi] - zbar[:, i:i + 1]
        total += float(((diff ** 2).sum(axis=2) * dt_f[lo:hi]).mean(axis=0).sum())
    return total


def _ref_window_average_fit(fine, fine_ens, coarse, basis):
    idx = nested_indices(coarse, fine.partition)
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
    return fine.Z[:, nested_indices(base.partition, fine.partition)[:-1]]


def _path_major(ens):
    return PathEnsemble(partition=ens.partition, seed=ens.seed,
                        increments=np.ascontiguousarray(ens.increments),
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
    # (70k paths: two regression blocks of 65,536)
    "global4_70k": (QUAD6, GLOBAL4, 16, 4, 70_000, False),
    "local1": (make_brownian(terminal="tanh"),
               RegressionBasis(kind="local_partition", degree=1, cells_per_dim=20),
               18, 3, 20_000, False),
    "planar": (PLANAR, GLOBAL2, 8, 2, 5_000, False),
    "path_major": (QUAD6, GLOBAL4, 16, 4, 10_000, True),
    # the extreme factors: one window over the whole horizon, and windows of
    # one fine step each
    "one_window": (QUAD6, GLOBAL2, 8, 8, 5_000, False),
    "factor_1": (QUAD6, GLOBAL2, 8, 1, 5_000, False),
}


@pytest.mark.parametrize("case", list(_PASS_CASES))
def test_regularity_pass_matches_stored_solutions_bitwise(case):
    model, basis, n_fine, factor, n_paths, path_major = _PASS_CASES[case]
    ens_f = simulate_forward(model, Partition.uniform(1.0, n_fine), n_paths, seed=3)
    if path_major:
        ens_f = _path_major(ens_f)
    reg = regularity_pass(model, ens_f, factor, basis)
    # the coarse ensemble: the fine states at every factor-th node, and the
    # window sums of the fine increments
    ens_c = reg.ensemble
    coarse = ens_c.partition
    np.testing.assert_array_equal(coarse.times, ens_f.partition.times[::factor])
    np.testing.assert_array_equal(ens_c.states, ens_f.states[:, ::factor])
    np.testing.assert_allclose(
        ens_c.increments,
        np.add.reduceat(ens_f.increments, np.arange(0, n_fine, factor), axis=1),
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
    assert {k: getattr(reg, k) for k in want} == want
    np.testing.assert_array_equal(reg.solution.Y, sol_c.Y)
    np.testing.assert_array_equal(reg.solution.Z, sol_c.Z)
    for field in ("y_residual_rms", "z_residual_rms", "picard_residuals",
                  "conditions", "fallback_cells"):
        np.testing.assert_array_equal(getattr(reg.solution.meta, field),
                                      getattr(sol_c.meta, field))


def test_regularity_pass_rejects_coarse_states_off_the_fine_paths():
    # the pass builds the coarse states from the fine paths itself; what is
    # left to reject is a factor that leaves no whole windows
    model = make_brownian()
    ens_f = simulate_forward(model, Partition.uniform(1.0, 8), 500, seed=1)
    for factor in (3, 0):
        with pytest.raises(InvalidParameters, match="does not divide"):
            regularity_pass(model, ens_f, factor, GLOBAL2)
    regularity_pass(model, ens_f, 4, GLOBAL2)
    with pytest.raises(InvalidParameters, match="picard_iters"):
        regularity_pass(model, ens_f, 4, GLOBAL2, picard_iters=0)


def test_bmo_estimate_constant_control():
    # |Z| = 1 makes every tail sum T - t_i, so both estimates equal T
    model = make_brownian()
    part = Partition.uniform(1.0, 8)
    ens = simulate_forward(model, part, 2000, seed=3)
    sol = _crafted(part, np.zeros((2000, 9)), np.ones((2000, 8, 1)))
    est = bmo_estimate(sol, ens, GLOBAL2)
    assert isinstance(est, BmoEstimate)
    assert est.plain_max == pytest.approx(1.0, rel=1e-12)
    assert est.regression_max == pytest.approx(1.0, rel=1e-6)


def test_truncation_curve_saturated_levels_are_exact_zero():
    model = make_quadratic()
    part = Partition.uniform(1.0, 8)
    ens = simulate_forward(model, part, 4000, seed=5)
    curve = truncation_error_curve(model, ens, GLOBAL2, levels=[2.0, 4.0],
                                   reference_level=8.0)
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
    curve = truncation_error_curve(model, ens, GLOBAL2,
                                   levels=[0.05, 0.1, 0.2, 0.4],
                                   reference_level=8.0)
    errs = [p.err_y for p in curve.points]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    out = effective_qbar(curve)
    assert out is not None
    qbar, fit = out
    assert fit.slope < 0.0
    assert qbar > 0.0


def test_batched_curve_matches_per_level_solves():
    # reference implementation: one full solve per level, errors taken on
    # the stored solutions; the batched pass may differ only by the rounding
    # of multi-column matrix products. The second ladder lies entirely below
    # the realized max |Z|, so the reference's own column splits off as well.
    model = make_quadratic()
    part = Partition.uniform(1.0, 8)
    ens = simulate_forward(model, part, 4000, seed=5)
    for levels, ref_level in (([0.1, 0.2, 0.4, 4.0], 8.0), ([0.1, 0.2], 0.4)):
        curve = truncation_error_curve(model, ens, GLOBAL2, levels,
                                       reference_level=ref_level)
        ref = solve_backward_regression(truncate_driver(model, ref_level), ens, GLOBAL2)
        got, want = [], []
        for p, n in zip(curve.points, levels):
            sol = solve_backward_regression(truncate_driver(model, n), ens, GLOBAL2)
            err_y = float(((sol.Y - ref.Y) ** 2).max(axis=1).mean())
            err_z = float((((sol.Z - ref.Z) ** 2).sum(axis=2) * part.dt)
                          .mean(axis=0).sum())
            assert p.level == n
            got += [p.err_y, p.err_z, p.y0]
            want += [err_y, err_z, sol.y0]
        got += [curve.realized_max_z, curve.y_scale]
        want += [float(np.abs(ref.Z).max()), float((ref.Y ** 2).max(axis=1).mean())]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
        # exactly the levels above the realized max |Z| share the reference
        assert ([p.err_y == 0.0 for p in curve.points]
                == [n >= curve.realized_max_z for n in levels])
    assert curve.realized_max_z > ref_level  # the reference split off


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
    curve = truncation_error_curve(model, ens, GLOBAL2, [2.0, 3.0], reference_level=6.0)
    assert widths == [1] * (2 * 6)  # the Y and the Z projection per step
    assert curve.realized_max_z < 2.0
    ref = solve_backward_regression(truncate_driver(model, 6.0), ens, GLOBAL2)
    for p in curve.points:
        assert p.y0 == ref.y0
        assert p.err_y == 0.0 and p.err_z == 0.0


def test_level_split_off_partway_matches_its_own_solve():
    # g(x) = x gives Z = sigma(t), here 3 at t = 0 falling to 1 at t = 1, so
    # level 2 shares the reference's column over the last steps of the grid
    # and splits off once the clamp engages partway through the pass
    quad = make_quadratic(terminal="identity")
    model = dataclasses.replace(
        quad, sigma=lambda t, x: np.full(x.shape + (1,), 3.0 - 2.0 * t))
    part = Partition.uniform(1.0, 8)
    ens = simulate_forward(model, part, 4000, seed=5)
    curve = truncation_error_curve(model, ens, GLOBAL2, [2.0], reference_level=4.0)
    ref = solve_backward_regression(truncate_driver(model, 4.0), ens, GLOBAL2)
    sol = solve_backward_regression(truncate_driver(model, 2.0), ens, GLOBAL2)
    engaged = np.abs(sol.Z).max(axis=(0, 2)) > 2.0
    assert engaged[0] and not engaged[-1]
    assert np.abs(ref.Z).max() < 4.0
    err_y = float(((sol.Y - ref.Y) ** 2).max(axis=1).mean())
    err_z = float((((sol.Z - ref.Z) ** 2).sum(axis=2) * part.dt).mean(axis=0).sum())
    (p,) = curve.points
    assert p.err_y > 0.0
    np.testing.assert_allclose([p.err_y, p.err_z, p.y0, curve.realized_max_z],
                               [err_y, err_z, sol.y0, float(np.abs(ref.Z).max())],
                               rtol=1e-9, atol=0.0)


def test_truncation_curve_diverging_column_raises_with_step():
    # f = 2 y |z|^2 with Z near sigma = 3: the Picard factor dt 2 clamp(Z)^2
    # stays below 1/4 at level 0.01 (|clamp| <= 1.01) but reaches about 2.25
    # once the level no longer engages, so only that column diverges
    model = make_quadratic(terminal="identity", sigma=3.0).with_driver(
        f=lambda t, x, y, z: 2.0 * y * np.sum(z * z, axis=1))
    ens = simulate_forward(model, Partition.uniform(1.0, 8), 4000, seed=5)
    curve = truncation_error_curve(model, ens, GLOBAL2, [0.01], reference_level=0.02)
    assert np.isfinite(curve.points[0].y0)
    with pytest.raises(PicardDivergence) as exc:
        truncation_error_curve(model, ens, GLOBAL2, [0.01, 4.0], reference_level=8.0)
    assert exc.value.step == 7  # the first step of the backward pass


def test_truncation_curve_validation():
    model = make_quadratic()
    part = Partition.uniform(1.0, 4)
    ens = simulate_forward(model, part, 500, seed=0)
    with pytest.raises(InvalidParameters):
        truncation_error_curve(model, ens, GLOBAL2, levels=[])
    with pytest.raises(InvalidParameters):
        truncation_error_curve(model, ens, GLOBAL2, levels=[-1.0, 2.0])
    with pytest.raises(InvalidParameters):
        truncation_error_curve(model, ens, GLOBAL2, levels=[1.0, 2.0],
                               reference_level=2.0)
    with pytest.raises(InvalidParameters):
        truncation_error_curve(model, ens, GLOBAL2, levels=[1.0], picard_iters=0)
