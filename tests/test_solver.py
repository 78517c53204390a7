"""Tests for the backward regression and quadrature solvers."""

import dataclasses
import itertools

import numpy as np
import pytest

from qgbsde.errors import (DomainTooSmall, InvalidParameters, PicardDivergence,
                           RejectedModel)
from qgbsde.model import (ModelSpec, Partition, make_brownian, make_discount,
                          make_gbm, make_quadratic)
from qgbsde.oracle import cole_hopf_from_model
from qgbsde.regression import RegressionBasis, step_design
from qgbsde import regression, solver, truncation
from qgbsde.diagnostics import truncation_error_curve
from qgbsde.sde import PathEnsemble, simulate_forward
from qgbsde.solver import SolverMeta, solve_backward_regression, solve_quadrature_1d
from qgbsde.truncation import smooth_clamp, truncate_driver

GLOBAL2 = RegressionBasis(kind="global_polynomial", degree=2)


def _brownian_ensemble(n_steps=8, n_paths=20000, seed=3):
    model = make_brownian()
    part = Partition.uniform(model.T, n_steps)
    return model, simulate_forward(model, part, n_paths, seed=seed)


def test_terminal_slice_is_exact():
    model, ens = _brownian_ensemble(n_steps=4, n_paths=500)
    sol = solve_backward_regression(model, ens, GLOBAL2)
    np.testing.assert_array_equal(sol.Y[:, -1], ens.states[:, -1, 0])


def test_brownian_identity_solution():
    # exact solution Y = X, Z = 1; affine conditional means live inside the
    # basis, so only sampling noise separates the estimate from the truth
    model, ens = _brownian_ensemble()
    sol = solve_backward_regression(model, ens, GLOBAL2)
    err_y = np.sqrt(np.mean((sol.Y - ens.states[:, :, 0]) ** 2, axis=0))
    assert err_y.max() < 5e-2
    err_z = np.sqrt(np.mean((sol.Z[:, :, 0] - 1.0) ** 2, axis=0))
    assert err_z.max() < 2e-1
    assert abs(sol.y0) < 2e-2
    assert abs(sol.z0[0] - 1.0) < 5e-2


def test_constant_terminal_propagates_exactly():
    model = make_brownian(terminal="constant", kappa=0.7)
    part = Partition.uniform(model.T, 6)
    ens = simulate_forward(model, part, 2000, seed=1)
    sol = solve_backward_regression(model, ens, GLOBAL2)
    np.testing.assert_allclose(sol.Y, 0.7, atol=1e-8)
    np.testing.assert_allclose(sol.Z, 0.0, atol=1e-7)


def test_discount_matches_scheme_product():
    # with a constant target the regression is exact and each implicit step
    # multiplies by the cubic Picard polynomial of r dt, so the scheme value
    # is known in closed form; the continuous limit exp(-r T) is approached
    # at first order in dt
    rate, n = 0.1, 16
    model = make_discount(rate=rate)
    part = Partition.uniform(model.T, n)
    ens = simulate_forward(model, part, 1000, seed=2)
    sol = solve_backward_regression(model, ens, GLOBAL2)
    rdt = rate * model.T / n
    expected = (1.0 - rdt + rdt ** 2 - rdt ** 3) ** n
    assert sol.y0 == pytest.approx(expected, abs=1e-8)
    assert abs(sol.y0 - np.exp(-rate * model.T)) < 1e-3
    np.testing.assert_allclose(sol.Z, 0.0, atol=1e-7)


def test_more_picard_sweeps_tighten_the_implicit_step(monkeypatch):
    rate, n = 0.4, 8
    model = make_discount(rate=rate)
    part = Partition.uniform(model.T, n)
    ens = simulate_forward(model, part, 500, seed=2)
    rdt = rate * model.T / n
    fixed_point = ((1.0 / (1.0 + rdt)) ** n)
    errs = []
    for k in (1, 2, 4):
        monkeypatch.setattr(solver, "PICARD_PASSES", k)
        sol = solve_backward_regression(model, ens, GLOBAL2)
        errs.append(abs(sol.y0 - fixed_point))
    assert errs[0] > errs[1] > errs[2]


def test_raw_quadratic_driver_is_rejected():
    model = make_quadratic()
    part = Partition.uniform(model.T, 4)
    ens = simulate_forward(model, part, 500, seed=0)
    with pytest.raises(RejectedModel):
        solve_backward_regression(model, ens, GLOBAL2)
    with pytest.raises(RejectedModel):
        solve_quadrature_1d(model, part)


def test_picard_divergence_on_stiff_driver(monkeypatch):
    # dt * f_y = 50/4 >> 1, the inner fixed point cannot contract
    model = dataclasses.replace(make_discount(rate=0.1), f=lambda t, x, y, z: 50.0 * y)
    part = Partition.uniform(model.T, 4)
    ens = simulate_forward(model, part, 500, seed=0)
    monkeypatch.setattr(solver, "PICARD_PASSES", 4)
    with pytest.raises(PicardDivergence) as exc:
        solve_backward_regression(model, ens, GLOBAL2)
    assert exc.value.step is not None


def _every_pass(f, t, x, base, z, dt, step):
    """The Picard loop without the early stop: every pass runs."""
    y, prev = base, None
    for _ in range(solver.PICARD_PASSES):
        y_new = base + dt * np.asarray(f(t, x, y, z))
        res = float(np.sqrt(np.mean((y_new - y) ** 2)))
        tol = 1e-12 * max(1.0, float(np.sqrt(np.mean(y_new ** 2))))
        if prev is not None and res > prev and res > tol:
            raise PicardDivergence(f"residual grew {prev:.3e} -> {res:.3e}", step=step)
        y, prev = y_new, res
    return y, prev if prev is not None else 0.0


@pytest.mark.parametrize("rate, passes", [(0.0, 2), (0.4, 4)])
def test_early_stop_and_single_clamp_match_every_pass(monkeypatch, rate, passes):
    # at rate 0 the driver ignores y, so pass 2 repeats pass 1 bit for bit
    # and the loop stops there; at rate > 0 every pass changes y and runs
    calls = []
    quad = make_quadratic(rate=rate)
    counted = dataclasses.replace(
        quad,
        f=lambda t, x, y, z: (calls.append(1), quad.f(t, x, y, z))[1])
    model = truncate_driver(counted, 0.5)
    part = Partition.uniform(model.T, 8)
    ens = simulate_forward(model, part, 4000, seed=2)
    monkeypatch.setattr(solver, "PICARD_PASSES", 4)
    sol = solve_backward_regression(model, ens, GLOBAL2)
    assert len(calls) == 8 * passes
    assert np.abs(sol.Z).max() > 1.0  # the clamp engages
    quad_y0z0 = solve_quadrature_1d(model, part)

    monkeypatch.setattr(solver, "_picard_resolve", _every_pass)
    ref = solve_backward_regression(model, ens, GLOBAL2)
    np.testing.assert_array_equal(sol.Y, ref.Y)
    np.testing.assert_array_equal(sol.Z, ref.Z)
    for field in dataclasses.fields(SolverMeta):
        np.testing.assert_array_equal(getattr(sol.meta, field.name),
                                      getattr(ref.meta, field.name))
    if rate == 0.0:
        assert not sol.meta.picard_residuals.any()
    assert quad_y0z0 == solve_quadrature_1d(model, part)


def test_clamp_once_per_column_and_step(monkeypatch):
    # the truncated driver clamps only where the clamp is not the identity:
    # every smooth_clamp call sees a max |z| above its level
    calls = []

    def counting(level, z):
        calls.append((level, float(np.abs(z).max())))
        return smooth_clamp(level, z)

    monkeypatch.setattr(truncation, "smooth_clamp", counting)
    model = make_quadratic()
    ens = simulate_forward(model, Partition.uniform(model.T, 6), 2000, seed=1)
    solve_backward_regression(truncate_driver(model, 1.0), ens, GLOBAL2)
    # max |Z| is 1.49 at the first step of the pass and below 0.7 after it;
    # the driver ignores y, so that step takes two Picard passes
    assert [level for level, _ in calls] == [1.0, 1.0]
    truncation_error_curve(model, ens, GLOBAL2, [0.5, 1.0, 2.0])
    assert all(top > level for level, top in calls)
    # levels 2 and 4 share one unclamped column at every step; 0.5 and 1
    # split off at the first step, and 1 engages only there
    assert sorted(level for level, _ in calls[2:]) == [0.5] * 12 + [1.0] * 2


def test_sweep_steps_each_distinct_column_on_the_single_column_kernels(monkeypatch):
    # the ladder of test_clamp_once_per_column_and_step: every level starts
    # in one shared column, and 0.5 and 1 split off at the first step
    designs, widths, resolved = [], [], []

    def counting(design, targets):
        designs.append(design)
        widths.append(targets.shape[1])
        return regression.project(design, targets)

    picard = solver._picard_resolve

    def checking(f, t, x, base, z, dt, step):
        assert base.flags.c_contiguous and z.flags.c_contiguous
        resolved.append(step)
        return picard(f, t, x, base, z, dt, step)

    monkeypatch.setattr(solver, "project", counting)
    monkeypatch.setattr(solver, "_picard_resolve", checking)
    model = make_quadratic()
    ens = simulate_forward(model, Partition.uniform(model.T, 6), 2000, seed=1)
    truncation_error_curve(model, ens, GLOBAL2, [0.5, 1.0, 2.0])
    assert widths == [1] * len(widths)
    # projections per step, in pass order: two per distinct column, and a
    # step's distinct columns are the ones the step before it resolved
    per_step = [len(list(group)) for _, group in itertools.groupby(designs, key=id)]
    assert per_step == [2] + [2 * resolved.count(i + 1) for i in range(4, -1, -1)]
    assert per_step == [2] + [6] * 5


def test_dimension_mismatch_is_rejected():
    model2 = ModelSpec(
        name="planar", m=2, d=2, x0=np.zeros(2), T=1.0,
        b=lambda t, x: np.zeros_like(x),
        sigma=lambda t, x: np.broadcast_to(np.eye(2), x.shape + (2,)).copy(),
        f=lambda t, x, y, z: np.zeros(x.shape[0]),
        g=lambda x: x.sum(axis=1),
        driver_z_lipschitz=0.0)
    _, ens = _brownian_ensemble(n_steps=4, n_paths=500)
    with pytest.raises(InvalidParameters):
        solve_backward_regression(model2, ens, GLOBAL2)


def test_quadrature_brownian_identity_is_exact():
    model = make_brownian()
    y0, z0 = solve_quadrature_1d(model, Partition.uniform(model.T, 8))
    assert abs(y0) < 1e-6
    assert abs(z0 - 1.0) < 1e-6


def test_quadrature_discount_value():
    model = make_discount(rate=0.1)
    n = 16
    y0, z0 = solve_quadrature_1d(model, Partition.uniform(model.T, n))
    rdt = 0.1 / n
    assert y0 == pytest.approx((1.0 - rdt + rdt ** 2 - rdt ** 3) ** n, abs=1e-7)
    assert abs(z0) < 1e-7


def test_quadrature_matches_closed_form_reference():
    model = truncate_driver(make_quadratic(), level=6.0)
    ref = cole_hopf_from_model(make_quadratic())
    y0, z0 = solve_quadrature_1d(model, Partition.uniform(model.T, 32))
    assert abs(y0 - ref.y0) < 1e-4
    assert abs(z0 - ref.z0) < 1e-2  # z carries the larger time-grid bias


def test_spline_matches_scipy_not_a_knot_cubic_spline():
    from scipy.interpolate import CubicSpline
    rng = np.random.default_rng(5)
    for lo, hi in [(-3.0, 5.0), (-75.8, 77.8)]:
        grid = np.linspace(lo, hi, solver._GRID_SIZE)
        slope_map = solver._not_a_knot_slopes(grid)
        for y in (np.tanh(rng.standard_normal(grid.size).cumsum() / 5.0),
                  np.exp(grid / (hi - lo))):
            pts = np.concatenate([rng.uniform(lo, hi, 2000), grid])
            # relative to the spline's scale: pointwise relative errors blow
            # up where it crosses zero
            np.testing.assert_allclose(solver._spline(grid, slope_map, y, pts),
                                       CubicSpline(grid, y)(pts), rtol=0,
                                       atol=1e-14 * np.abs(y).max())
            for end in (lo, hi):
                assert solver._spline(grid, slope_map, y, end) == pytest.approx(
                    float(CubicSpline(grid, y)(end)), rel=1e-14, abs=0)


@pytest.mark.parametrize("model, n, expected", [
    (truncate_driver(make_quadratic(), 6.0), 64, (0.18893456004766393, 0.5639178935769574)),
    (truncate_driver(make_quadratic(kappa=5.0), 4.0), 32,
     (0.37032704389998045, 0.6435838884636242)),
    (make_gbm(), 16, (1.051189139721731, 0.20958288143984685)),
], ids=["quadratic-6", "quadratic-kappa5-4", "gbm"])
def test_quadrature_values_are_pinned(model, n, expected):
    # values of the scipy CubicSpline version of the quadrature
    got = solve_quadrature_1d(model, Partition.uniform(model.T, n))
    assert got == pytest.approx(expected, rel=1e-12, abs=0)


def test_quadrature_domain_guard():
    # sigma = 0.5 x grows with the grid, so doubling the half-width leaves
    # the leak near 2 Phi(-2) and the search gives up
    model = make_gbm(vol=0.5)
    with pytest.raises(DomainTooSmall, match="after 8 doublings"):
        solve_quadrature_1d(model, Partition.uniform(model.T, 8))


def test_solver_is_deterministic():
    model, ens = _brownian_ensemble(n_steps=4, n_paths=2000)
    a = solve_backward_regression(model, ens, GLOBAL2)
    b = solve_backward_regression(model, ens, GLOBAL2)
    assert np.array_equal(a.Y, b.Y)
    assert np.array_equal(a.Z, b.Z)


def test_meta_reads_condition_and_fallbacks_from_the_step_design():
    # 2000 paths in 200 cells of degree 1: every step after t = 0 has cells
    # too sparse to fit, counted once per step, and the condition is that of
    # the cells the fit solved
    model = make_brownian(terminal="tanh")
    ens = simulate_forward(model, Partition.uniform(model.T, 4), 2000, seed=7)
    basis = RegressionBasis(kind="local_partition", degree=1, cells_per_dim=200)
    meta = solve_backward_regression(model, ens, basis).meta
    designs = [step_design(basis, ens.states[:, i]) for i in range(4)]
    assert meta.fallback_cells.tolist() == [d.fallback_cells for d in designs]
    assert meta.conditions.tolist() == [d.condition for d in designs]
    assert meta.fallback_cells[0] == 0 and meta.fallback_cells[1:].min() > 0
    assert meta.conditions.max() <= regression.CONDITION_CAP
