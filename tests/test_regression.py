"""Tests for the least-squares conditional expectation machinery."""

import numpy as np
import pytest

from qgbsde.errors import DegenerateRegression, InvalidParameters
from qgbsde.regression import (FitInfo, RegressionBasis, project, step_bounds,
                               step_design)


def _fit(basis, x, targets, step=None):
    """A one-off fit: a design built on x and applied to the targets."""
    return project(step_design(basis, x, step), targets)


def test_global_recovers_polynomial_exactly():
    rng = np.random.default_rng(0)
    x = rng.uniform(-2.0, 3.0, size=(5000, 1))
    targets = (2.0 + 3.0 * x - 0.5 * x ** 2).reshape(-1, 1)
    basis = RegressionBasis(kind="global_polynomial", degree=2)
    fitted, info = _fit(basis, x, targets)
    np.testing.assert_allclose(fitted, targets, atol=1e-8)
    assert info.residual_rms[0] < 1e-8
    assert info.n_features == 3
    assert not info.degenerate


def test_global_two_dimensional_cross_terms():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.0, 1.0, size=(4000, 2))
    targets = (1.0 + x[:, 0] + 0.7 * x[:, 0] * x[:, 1])[:, None]
    basis = RegressionBasis(kind="global_polynomial", degree=2)
    fitted, info = _fit(basis, x, targets)
    np.testing.assert_allclose(fitted, targets, atol=1e-8)
    # monomials of total degree <= 2 in two variables: 1, x, y, x^2, xy, y^2
    assert info.n_features == 6


def test_global_multiple_target_columns():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3000, 1))
    targets = np.column_stack([x[:, 0], x[:, 0] ** 2 - 1.0])
    basis = RegressionBasis(kind="global_polynomial", degree=3)
    fitted, _ = _fit(basis, x, targets)
    np.testing.assert_allclose(fitted, targets, atol=1e-7)


def test_constant_fit_on_degenerate_state():
    # at a deterministic node every path sits at the same point, and the
    # conditional expectation collapses to the plain mean
    x = np.full((500, 1), 1.25)
    targets = np.column_stack([np.arange(500.0), np.ones(500)])
    fitted, info = _fit(RegressionBasis(), x, targets)
    assert info.degenerate
    assert info.n_features == 1
    np.testing.assert_allclose(fitted[:, 0], np.arange(500.0).mean())
    np.testing.assert_allclose(fitted[:, 1], 1.0)


def test_local_degree0_is_cellwise_mean():
    basis = RegressionBasis(kind="local_partition", degree=0, cells_per_dim=2,
                            bounds=np.array([[0.0, 1.0]]))
    x = np.array([[0.1], [0.2], [0.6], [0.9]])
    targets = np.array([[1.0], [3.0], [10.0], [20.0]])
    fitted, info = _fit(basis, x, targets)
    np.testing.assert_allclose(fitted[:, 0], [2.0, 2.0, 15.0, 15.0])
    assert info.fallback_cells == 0


def test_local_degree1_recovers_affine():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, size=(20000, 1))
    targets = (1.0 + 2.0 * x).reshape(-1, 1)
    basis = RegressionBasis(kind="local_partition", degree=1, cells_per_dim=10)
    fitted, info = _fit(basis, x, targets)
    np.testing.assert_allclose(fitted, targets, atol=1e-8)
    assert info.fallback_cells == 0


def test_local_fallback_accounting():
    # cell 1 holds two points (below the degree-1 population floor) and cell 2
    # none at all; both must be reported, and the sparse cell must predict its
    # own mean rather than an extrapolated slope
    basis = RegressionBasis(kind="local_partition", degree=1, cells_per_dim=4,
                            bounds=np.array([[0.0, 1.0]]))
    rng = np.random.default_rng(4)
    x0 = rng.uniform(0.00, 0.25, size=10)
    x1 = np.array([0.30, 0.40])
    x3 = rng.uniform(0.75, 1.00, size=10)
    x = np.concatenate([x0, x1, x3])[:, None]
    targets = np.concatenate([np.ones(10), [4.0, 8.0], np.full(10, 2.0)])[:, None]
    fitted, info = _fit(basis, x, targets)
    assert info.fallback_cells == 2
    np.testing.assert_allclose(fitted[10:12, 0], 6.0)


def test_global_collinear_design_raises():
    rng = np.random.default_rng(5)
    u = rng.normal(size=4000)
    x = np.column_stack([u, u])  # second coordinate adds no rank
    targets = u[:, None]
    basis = RegressionBasis(kind="global_polynomial", degree=1)
    with pytest.raises(DegenerateRegression) as exc:
        _fit(basis, x, targets, step=5)
    assert exc.value.step == 5


def test_local_every_cell_failed_raises():
    basis = RegressionBasis(kind="local_partition", degree=1, cells_per_dim=1)
    x = np.array([[0.2], [0.8]])  # one cell, two points, floor is three
    with pytest.raises(DegenerateRegression):
        _fit(basis, x, np.array([[1.0], [2.0]]))


def test_fit_is_deterministic():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(30000, 1))
    targets = np.column_stack([np.sin(x[:, 0]), np.cos(x[:, 0])])
    for basis in (RegressionBasis(kind="global_polynomial", degree=4),
                  RegressionBasis(kind="local_partition", degree=1,
                                  cells_per_dim=25)):
        a, _ = _fit(basis, x, targets)
        b, _ = _fit(basis, x, targets)
        assert np.array_equal(a, b)


def test_points_outside_bounds_use_edge_cells():
    basis = RegressionBasis(kind="local_partition", degree=0, cells_per_dim=2,
                            bounds=np.array([[0.0, 1.0]]))
    x = np.array([[-5.0], [0.2], [0.8], [7.0]])
    targets = np.array([[1.0], [3.0], [5.0], [7.0]])
    fitted, _ = _fit(basis, x, targets)
    assert np.all(np.isfinite(fitted))
    # the stray points share their edge cell's mean
    np.testing.assert_allclose(fitted[:, 0], [2.0, 2.0, 6.0, 6.0])


def test_step_bounds_sources():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(100000, 1))
    b = step_bounds(RegressionBasis(), x)
    # default 0.1% / 99.9% quantiles of a standard normal sit near +-3.09
    assert -3.4 < b[0, 0] < -2.9
    assert 2.9 < b[0, 1] < 3.4
    configured = np.array([[-1.0, 2.0]])
    np.testing.assert_array_equal(
        step_bounds(RegressionBasis(bounds=configured), x), configured)
    with pytest.raises(InvalidParameters):
        step_bounds(RegressionBasis(bounds=np.array([[1.0, -1.0]])), x)
    with pytest.raises(InvalidParameters):
        step_bounds(RegressionBasis(bounds=np.zeros((2, 2))), x)


def test_basis_validation():
    with pytest.raises(InvalidParameters):
        RegressionBasis(kind="fourier")
    with pytest.raises(InvalidParameters):
        RegressionBasis(kind="global_polynomial", degree=-1)
    with pytest.raises(InvalidParameters):
        RegressionBasis(kind="local_partition", degree=2)
    with pytest.raises(InvalidParameters):
        RegressionBasis(cells_per_dim=0)
    with pytest.raises(InvalidParameters):
        RegressionBasis(lower_quantile=0.5, upper_quantile=0.5)
    assert RegressionBasis(kind="global_polynomial", degree=3).describe() \
        == "global_polynomial(degree=3)"
    assert "cells=50" in RegressionBasis().describe()


def test_fit_step_shape_validation():
    with pytest.raises(InvalidParameters):
        _fit(RegressionBasis(), np.zeros(10), np.zeros((10, 1)))
    with pytest.raises(InvalidParameters):
        _fit(RegressionBasis(), np.zeros((10, 1)), np.zeros((9, 1)))


def test_fit_info_residual_reflects_noise():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, size=(50000, 1))
    noise = rng.normal(scale=0.3, size=(50000, 1))
    targets = x + noise
    _, info = _fit(RegressionBasis(kind="global_polynomial", degree=1), x, targets)
    assert info.residual_rms[0] == pytest.approx(0.3, rel=0.05)


_KINDS = (RegressionBasis(kind="global_polynomial", degree=4),
          RegressionBasis(kind="local_partition", degree=1, cells_per_dim=12),
          RegressionBasis(kind="local_partition", degree=0, cells_per_dim=12))


def _noisy_targets(x, rng, k):
    u = x.sum(axis=1)
    cols = [np.sin((j + 1) * u) + rng.normal(scale=0.2, size=u.size) for j in range(k)]
    return np.column_stack(cols)


@pytest.mark.parametrize("basis", _KINDS, ids=lambda b: b.describe())
@pytest.mark.parametrize("m", [1, 2])
def test_multi_column_projection_matches_single_column_fits(basis, m):
    # one design applied to k columns at once must give what k one-off fits
    # give, up to the rounding of a multi-column matrix product
    rng = np.random.default_rng(9)
    x = rng.normal(size=(20000, m))
    targets = _noisy_targets(x, rng, 5)
    fitted, info = project(step_design(basis, x, step=2), targets)
    assert fitted.shape == targets.shape
    for j in range(targets.shape[1]):
        single, single_info = _fit(basis, x, targets[:, j:j + 1], step=2)
        scale = np.abs(single).max()
        assert np.abs(fitted[:, j] - single[:, 0]).max() <= 1e-12 * scale
        assert info.residual_rms[j] == pytest.approx(single_info.residual_rms[0],
                                                     rel=1e-12)
        assert info.condition == single_info.condition
        assert info.fallback_cells == single_info.fallback_cells


@pytest.mark.parametrize("basis", _KINDS, ids=lambda b: b.describe())
def test_duplicate_target_columns_fit_bit_identically(basis):
    # the truncation sweep relies on this: a level the clamp never engages
    # must reproduce the reference column exactly
    rng = np.random.default_rng(10)
    x = rng.normal(size=(70000, 1))  # more than one regression block
    a, b = _noisy_targets(x, rng, 2).T
    fitted, _ = project(step_design(basis, x), np.column_stack([a, b, a, a, b, a, b]))
    for j in (2, 3, 5):
        assert np.array_equal(fitted[:, j], fitted[:, 0])
    for j in (4, 6):
        assert np.array_equal(fitted[:, j], fitted[:, 1])


def test_design_is_reusable_and_checks_targets():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 1.0, size=(3000, 1))
    design = step_design(RegressionBasis(kind="global_polynomial", degree=2), x, step=4)
    assert design.step == 4 and design.n_paths == 3000
    first, _ = project(design, (x ** 2))
    second, _ = project(design, 1.0 + x)
    np.testing.assert_allclose(first, x ** 2, atol=1e-8)
    np.testing.assert_allclose(second, 1.0 + x, atol=1e-8)
    with pytest.raises(InvalidParameters):
        project(design, np.zeros((2999, 1)))
    with pytest.raises(InvalidParameters):
        project(design, np.zeros(3000))
