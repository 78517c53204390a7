"""Tests for path-regularity statistics, truncation sweeps, and order fits."""

import numpy as np
import pytest

from qgbsde.diagnostics import (BmoEstimate, bmo_estimate, effective_qbar,
                                fit_convergence_order, truncation_error_curve,
                                y_increment_stat, z_increment_stat,
                                z_l2_regularity)
from qgbsde.errors import (GridMismatch, InvalidParameters, InvalidPoints,
                           PicardDivergence)
from qgbsde.model import Partition, make_brownian, make_quadratic
from qgbsde.regression import RegressionBasis
from qgbsde.sde import simulate_forward
from qgbsde.solver import BackwardSolution, SolverMeta, solve_backward_regression
from qgbsde.truncation import truncate_driver

GLOBAL2 = RegressionBasis(kind="global_polynomial", degree=2)


def _meta(n):
    return SolverMeta(basis="crafted", picard_iters=1,
                      y_residual_rms=np.zeros(n), z_residual_rms=np.zeros(n),
                      picard_residuals=np.zeros(n), conditions=np.ones(n),
                      fallback_cells=np.zeros(n, dtype=np.int64))


def _crafted(partition, Y, Z, Zbar=None):
    return BackwardSolution(partition=partition, Y=Y, Z=Z, Zbar=Zbar,
                            meta=_meta(partition.n_steps))


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
    assert y_increment_stat(sol_c, sol_f) == 4.0


def test_y_increment_stat_brownian_scaling():
    # for Y = W the worst window statistic is the window width itself
    model = make_brownian()
    coarse, fine = Partition.uniform(1.0, 4), Partition.uniform(1.0, 16)
    ens_f = simulate_forward(model, fine, 20000, seed=9)
    sol_f = solve_backward_regression(model, ens_f, GLOBAL2)
    idx = np.arange(5) * 4
    from qgbsde.sde import PathEnsemble
    ens_c = PathEnsemble(partition=coarse, seed=ens_f.seed,
                         increments=np.add.reduceat(ens_f.increments, idx[:-1], axis=1),
                         states=ens_f.states[:, idx])
    sol_c = solve_backward_regression(model, ens_c, GLOBAL2)
    stat = y_increment_stat(sol_c, sol_f)
    assert 0.8 * 0.25 < stat < 1.2 * 0.25
    # halving the window halves the statistic
    coarse8 = Partition.uniform(1.0, 8)
    idx8 = np.arange(9) * 2
    ens_c8 = PathEnsemble(partition=coarse8, seed=ens_f.seed,
                          increments=np.add.reduceat(ens_f.increments, idx8[:-1], axis=1),
                          states=ens_f.states[:, idx8])
    sol_c8 = solve_backward_regression(model, ens_c8, GLOBAL2)
    stat8 = y_increment_stat(sol_c8, sol_f)
    assert 0.7 * 0.5 < stat8 / stat < 1.3 * 0.5


def test_z_increment_stat_crafted():
    part = Partition.uniform(1.0, 4)
    Z = np.tile(np.arange(4.0)[:, None], (5, 1, 1))
    sol = _crafted(part, np.zeros((5, 5)), Z)
    assert z_increment_stat(sol) == 1.0


def test_z_increment_stat_matches_whole_array_formula():
    # the per-step loop against the (P, N, d) difference it replaced, on a
    # path-major and a time-major copy of the same control
    part = Partition.uniform(1.0, 6)
    Z = np.random.default_rng(5).normal(size=(2000, 6, 2)) * np.arange(1.0, 7.0)[:, None]
    want = float(((Z[:, 1:] - Z[:, :-1]) ** 2).sum(axis=2).mean(axis=0).max())
    time_major = np.ascontiguousarray(Z.swapaxes(0, 1)).swapaxes(0, 1)
    for z in (Z, time_major):
        got = z_increment_stat(_crafted(part, np.zeros((2000, 7)), z))
        assert got == pytest.approx(want, rel=1e-13)


def test_z_l2_regularity_exact_projections():
    # fine control Z_t = t, constant across paths: every projection is exact
    # and the sums reduce to closed-form Riemann sums
    model = make_brownian()
    coarse, fine = Partition.uniform(1.0, 4), Partition.uniform(1.0, 16)
    ens_f = simulate_forward(model, fine, 500, seed=2)
    tz = np.tile(fine.times[:16][None, :, None], (500, 1, 1))
    sol_f = _crafted(fine, np.zeros((500, 17)), tz)
    left_vals = tz[:, ::4][:, :4]
    sol_c = _crafted(coarse, np.zeros((500, 5)), left_vals, Zbar=left_vals)

    left = z_l2_regularity(sol_c, sol_f, projection="left")
    assert left == pytest.approx(7.0 / 512.0, rel=1e-12)
    node = z_l2_regularity(sol_c, sol_f, projection="node")
    assert node == pytest.approx(7.0 / 512.0, rel=1e-12)
    window = z_l2_regularity(sol_c, sol_f, ensemble=ens_f, basis=GLOBAL2,
                             projection="window")
    # the window mean is the optimal constant: sum of centered squares
    assert window == pytest.approx(5.0 / 1024.0, rel=1e-7)
    assert window < left


def test_z_l2_regularity_validation():
    model = make_brownian()
    coarse, fine = Partition.uniform(1.0, 2), Partition.uniform(1.0, 4)
    sol_c = _crafted(coarse, np.zeros((5, 3)), np.zeros((5, 2, 1)))
    sol_f = _crafted(fine, np.zeros((5, 5)), np.zeros((5, 4, 1)))
    with pytest.raises(InvalidParameters):
        z_l2_regularity(sol_c, sol_f, projection="window")  # no ensemble
    with pytest.raises(InvalidParameters):
        z_l2_regularity(sol_c, sol_f, projection="node")  # no Zbar
    with pytest.raises(InvalidParameters):
        z_l2_regularity(sol_c, sol_f, projection="midpoint")


def test_grid_mismatch_between_solutions():
    sol_c = _crafted(Partition.uniform(1.0, 4), np.zeros((5, 5)), np.zeros((5, 4, 1)))
    sol_f = _crafted(Partition.uniform(1.0, 6), np.zeros((5, 7)), np.zeros((5, 6, 1)))
    with pytest.raises(GridMismatch):
        y_increment_stat(sol_c, sol_f)


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
    # of multi-column matrix products
    model = make_quadratic()
    part = Partition.uniform(1.0, 8)
    ens = simulate_forward(model, part, 4000, seed=5)
    levels = [0.1, 0.2, 0.4, 4.0]
    curve = truncation_error_curve(model, ens, GLOBAL2, levels, reference_level=8.0)
    ref = solve_backward_regression(truncate_driver(model, 8.0), ens, GLOBAL2)
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
    assert curve.points[-1].err_y == 0.0  # above the realized max |Z|


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
