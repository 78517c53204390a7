"""Tests for the least-squares conditional expectation machinery."""

import math
from unittest import mock

import numpy as np
import pytest

from qgbsde import regression
from qgbsde.errors import DegenerateRegression, InvalidParameters
from qgbsde.regression import RegressionBasis, project, step_bounds, step_design


def _fit(basis, x, targets, step=None):
    """A one-off fit: a design built on x and applied to the targets."""
    return project(step_design(basis, x, step), targets)


def test_global_recovers_polynomial_exactly():
    rng = np.random.default_rng(0)
    x = rng.uniform(-2.0, 3.0, size=(5000, 1))
    targets = (2.0 + 3.0 * x - 0.5 * x ** 2).reshape(-1, 1)
    design = step_design(RegressionBasis(kind="global_polynomial", degree=2), x)
    fitted, residual_rms = project(design, targets)
    np.testing.assert_allclose(fitted, targets, atol=1e-8)
    assert residual_rms[0] < 1e-8
    assert design.features.shape[0] == 3
    assert design.kind != "constant"


def test_global_two_dimensional_cross_terms():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.0, 1.0, size=(4000, 2))
    targets = (1.0 + x[:, 0] + 0.7 * x[:, 0] * x[:, 1])[:, None]
    design = step_design(RegressionBasis(kind="global_polynomial", degree=2), x)
    fitted, _ = project(design, targets)
    np.testing.assert_allclose(fitted, targets, atol=1e-8)
    # monomials of total degree <= 2 in two variables: 1, x, y, x^2, xy, y^2
    assert design.features.shape[0] == 6


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
    design = step_design(RegressionBasis(), x)
    fitted, _ = project(design, targets)
    assert design.kind == "constant"
    np.testing.assert_allclose(fitted[:, 0], np.arange(500.0).mean())
    np.testing.assert_allclose(fitted[:, 1], 1.0)


def test_local_degree0_is_cellwise_mean(monkeypatch):
    # bounds at the sample's extremes, [0.1, 0.9], split into two cells at 0.5
    monkeypatch.setattr(regression, "QUANTILES", (0.0, 1.0))
    basis = RegressionBasis(kind="local_partition", degree=0, cells_per_dim=2)
    x = np.array([[0.1], [0.2], [0.6], [0.9]])
    targets = np.array([[1.0], [3.0], [10.0], [20.0]])
    design = step_design(basis, x)
    fitted, _ = project(design, targets)
    np.testing.assert_allclose(fitted[:, 0], [2.0, 2.0, 15.0, 15.0])
    assert design.fallback_cells == 0


def test_local_degree1_recovers_affine():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, size=(20000, 1))
    targets = (1.0 + 2.0 * x).reshape(-1, 1)
    design = step_design(RegressionBasis(kind="local_partition", degree=1,
                                         cells_per_dim=10), x)
    fitted, _ = project(design, targets)
    np.testing.assert_allclose(fitted, targets, atol=1e-8)
    assert design.fallback_cells == 0


@pytest.mark.parametrize("degree", [0, 1])
def test_local_fallback_accounting(monkeypatch, degree):
    # cell 1 holds two points (below the degree-1 population floor) and cell 2
    # none at all; at degree 1 both must be reported, and the sparse cell must
    # predict its own mean rather than an extrapolated slope; at degree 0 that
    # mean is the cell's fit and only the empty cell is reported; the sample
    # spans [0, 1], so its extremes as bounds give the cells [0, 0.25), ...,
    # [0.75, 1]
    monkeypatch.setattr(regression, "QUANTILES", (0.0, 1.0))
    basis = RegressionBasis(kind="local_partition", degree=degree, cells_per_dim=4)
    rng = np.random.default_rng(4)
    x0 = np.append(0.0, rng.uniform(0.00, 0.25, size=9))
    x1 = np.array([0.30, 0.40])
    x3 = np.append(rng.uniform(0.75, 1.00, size=9), 1.0)
    x = np.concatenate([x0, x1, x3])[:, None]
    targets = np.concatenate([np.ones(10), [4.0, 8.0], np.full(10, 2.0)])[:, None]
    design = step_design(basis, x)
    fitted, _ = project(design, targets)
    assert design.fallback_cells == 1 + degree
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


def test_points_outside_bounds_use_edge_cells(monkeypatch):
    # the quartiles of the sample, [-1.1, 2.35], leave both extremes outside
    monkeypatch.setattr(regression, "QUANTILES", (0.25, 0.75))
    basis = RegressionBasis(kind="local_partition", degree=0, cells_per_dim=2)
    x = np.array([[-5.0], [0.2], [0.8], [7.0]])
    np.testing.assert_allclose(step_bounds(x), [[-1.1, 2.35]])
    targets = np.array([[1.0], [3.0], [5.0], [7.0]])
    fitted, _ = _fit(basis, x, targets)
    assert np.all(np.isfinite(fitted))
    # the stray points share their edge cell's mean
    np.testing.assert_allclose(fitted[:, 0], [2.0, 2.0, 6.0, 6.0])


def test_step_bounds_sources():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(100000, 1))
    b = step_bounds(x)
    # default 0.1% / 99.9% quantiles of a standard normal sit near +-3.09
    assert -3.4 < b[0, 0] < -2.9
    assert 2.9 < b[0, 1] < 3.4


def test_basis_validation():
    with pytest.raises(InvalidParameters):
        RegressionBasis(kind="fourier")
    with pytest.raises(InvalidParameters):
        RegressionBasis(kind="global_polynomial", degree=-1)
    with pytest.raises(InvalidParameters):
        RegressionBasis(kind="local_partition", degree=2)
    with pytest.raises(InvalidParameters):
        RegressionBasis(cells_per_dim=0)
    assert RegressionBasis(kind="global_polynomial", degree=3).describe() \
        == "global_polynomial(degree=3)"
    assert "cells=50" in RegressionBasis().describe()


def test_fit_step_shape_validation():
    with pytest.raises(InvalidParameters):
        _fit(RegressionBasis(), np.zeros(10), np.zeros((10, 1)))
    with pytest.raises(InvalidParameters):
        _fit(RegressionBasis(), np.zeros((10, 1)), np.zeros((9, 1)))


def test_projection_residual_reflects_noise():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, size=(50000, 1))
    noise = rng.normal(scale=0.3, size=(50000, 1))
    targets = x + noise
    _, residual_rms = _fit(RegressionBasis(kind="global_polynomial", degree=1), x,
                           targets)
    assert residual_rms[0] == pytest.approx(0.3, rel=0.05)


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
    fitted, residual_rms = project(step_design(basis, x, step=2), targets)
    assert fitted.shape == targets.shape
    for j in range(targets.shape[1]):
        single, single_rms = _fit(basis, x, targets[:, j:j + 1], step=2)
        scale = np.abs(single).max()
        assert np.abs(fitted[:, j] - single[:, 0]).max() <= 1e-12 * scale
        assert residual_rms[j] == pytest.approx(single_rms[0], rel=1e-12)


@pytest.mark.parametrize("basis", _KINDS, ids=lambda b: b.describe())
def test_duplicate_target_columns_fit_bit_identically(basis):
    # the truncation sweep relies on this: a level the clamp never engages
    # must reproduce the reference column exactly
    rng = np.random.default_rng(10)
    x = rng.normal(size=(70000, 1))  # the path count of the canonical benchmark run
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
    assert design.n_paths == 3000
    first, _ = project(design, (x ** 2))
    second, _ = project(design, 1.0 + x)
    np.testing.assert_allclose(first, x ** 2, atol=1e-8)
    np.testing.assert_allclose(second, 1.0 + x, atol=1e-8)
    with pytest.raises(InvalidParameters):
        project(design, np.zeros((2999, 1)))
    with pytest.raises(InvalidParameters):
        project(design, np.zeros(3000))


@pytest.mark.parametrize("m", [1, 2])
def test_step_bounds_equal_numpy_quantile_bit_for_bit(m):
    rng = np.random.default_rng(12)
    for P in (2, 3, 7, 100, 1001, 65537, 120000):
        smooth = rng.normal(size=(P, m))
        for x in (smooth, np.round(smooth, 1), rng.integers(0, 3, size=(P, m)) * 0.5):
            for lo, hi in ((0.001, 0.999), (0.0, 1.0), (0.25, 0.75)):
                expected = np.quantile(x, [lo, hi], axis=0).T
                with mock.patch.object(regression, "QUANTILES", (lo, hi)):
                    assert np.array_equal(step_bounds(x), expected), (P, lo, hi)


def _cell_fit_reference(design, targets):
    """The cell fit written cell by cell from the design's cells and
    coordinates alone: each cell's normal equations, ridge and usable rule
    rebuilt from the module's constants, a usable degree-1 cell solved with
    np.linalg.solve, any other cell fitted by its mean. Also returns each
    path's cell condition: that of its normal matrix where solved, 1 for a
    mean."""
    basis, cell = design.basis, design.cell
    phi = np.ones((1, cell.size))
    if basis.degree == 1:
        phi = np.vstack([phi, design.coords])
    nf = len(phi)
    fitted = np.empty(targets.shape)
    condition = np.ones(cell.size)
    for c in np.unique(cell):
        rows = cell == c
        pc = phi[:, rows]
        G, rhs = pc @ pc.T, pc @ targets[rows]
        eig = np.linalg.eigvalsh(G)
        if (basis.degree == 1 and rows.sum() >= nf + 1 and eig[0] > 0
                and eig[-1] / eig[0] <= regression.CONDITION_CAP):
            ridge = regression.RIDGE_SCALE * np.trace(G)
            coef = np.linalg.solve(G + ridge * np.eye(nf), rhs)
            condition[rows] = eig[-1] / eig[0]
        else:
            coef = np.zeros_like(rhs)
            coef[0] = rhs[0] / rows.sum()
        fitted[rows] = pc.T @ coef
    return fitted, condition


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("m, cells", [pytest.param(1, 12, id="1"), pytest.param(2, 12, id="2"),
                                      pytest.param(2, 50, id="2-near-cap")])
@pytest.mark.parametrize("k", [1, 3])
def test_cell_fit_matches_fancy_index_reference(degree, m, cells, k):
    rng = np.random.default_rng(13)
    x = rng.normal(size=(20000, m))
    if cells == 50:
        # four points 3e-7 off one line, alone in a tail cell, whose normal
        # matrix sits within two decades of CONDITION_CAP
        s = np.linspace(-1.0, 1.0, 4)
        x[:4] = np.column_stack([2.44 + 0.01 * s, -2.51 + 0.01 * s + 3e-7 * rng.normal(size=4)])
    # 12 cells per dimension leave sparse and empty edge cells at m = 2, so
    # the fallbacks are part of what must match
    design = step_design(RegressionBasis(kind="local_partition", degree=degree,
                                         cells_per_dim=cells), x)
    assert m == 1 or design.fallback_cells > 0
    if cells == 50 and degree == 1:
        assert 1e10 < design.condition <= regression.CONDITION_CAP
    targets = _noisy_targets(x, rng, k)
    fitted, _ = project(design, targets)
    # the design applies each cell's inverse where the reference solves, so
    # the two agree to rounding that grows with the cell's condition
    reference, condition = _cell_fit_reference(design, targets)
    scale = np.abs(reference).max(axis=0)
    assert np.all(np.abs(fitted - reference) <= 1e-13 * condition[:, None] * scale)


@pytest.mark.parametrize("m", [1, 2])
def test_global_features_are_feature_major(m):
    rng = np.random.default_rng(14)
    x = rng.uniform(-1.0, 1.0, size=(3000, m))
    design = step_design(RegressionBasis(kind="global_polynomial", degree=3), x)
    # monomials of total degree <= 3 in m variables
    assert design.features.shape == (math.comb(m + 3, 3), 3000)
    assert design.features.flags.c_contiguous
    # rows are the monomials sorted by (total degree, exponents): 1, then the
    # coordinates rescaled to [-1, 1], the last coordinate first
    np.testing.assert_array_equal(design.features[0], 1.0)
    lo, hi = design.bounds.T
    np.testing.assert_allclose(design.features[m:0:-1],
                               ((2 * x - (lo + hi)) / (hi - lo)).T, atol=1e-12)


@pytest.mark.parametrize("degree", range(5))
@pytest.mark.parametrize("m", [1, 2])
def test_global_normal_matrix_is_the_gram_of_the_features(m, degree):
    rng = np.random.default_rng(18)
    x = rng.normal(size=(20_000, m))
    design = step_design(RegressionBasis(kind="global_polynomial", degree=degree), x)
    phi = design.features
    gram = phi @ phi.T
    ridge = regression.RIDGE_SCALE * float(np.trace(gram))
    assert np.array_equal(design.normal, design.normal.T)
    unridged = design.normal - ridge * np.eye(len(phi))
    assert np.abs(unridged - gram).max() <= 1e-13 * np.abs(gram).max()
    if m == 1:
        # row p is u ** p by repeated products, u the rescaled coordinate
        lo, hi = design.bounds[0]
        u = (x[:, 0] - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
        power = np.ones(len(x))
        for row in phi:
            assert np.array_equal(row, power)
            power = power * u


@pytest.mark.parametrize("basis", _KINDS, ids=lambda b: b.describe())
def test_zero_width_bounds_raise_with_step_and_dimension(basis):
    rng = np.random.default_rng(15)
    constant_beside_spread = np.column_stack([rng.normal(size=5000), np.full(5000, 0.3)])
    point_mass = rng.normal(size=(5000, 1))
    point_mass[:4996] = 0.7  # more than the 0.1% quantile level on either side
    for x, dim in ((constant_beside_spread, 1), (point_mass, 0)):
        with pytest.raises(DegenerateRegression, match=f"dimension {dim} have zero width") \
                as exc:
            step_design(basis, x, step=9)
        assert exc.value.step == 9


def test_local_design_condition_is_that_of_the_fitted_cells():
    # 2000 points in 200 cells leave many cells with one or two points, whose
    # normal matrices are (near) singular; they fall back to their mean and
    # must not set the design's condition
    rng = np.random.default_rng(16)
    x = rng.normal(size=(2000, 1))
    basis = RegressionBasis(kind="local_partition", degree=1, cells_per_dim=200)
    design = step_design(basis, x)
    assert 0 < design.fallback_cells < 200
    u = design.coords[0]
    counts = np.bincount(design.cell, minlength=200)
    cond = np.full(200, np.inf)
    for c in np.flatnonzero(counts):
        uc = u[design.cell == c]
        G = np.array([[uc.size, uc.sum()], [uc.sum(), (uc * uc).sum()]])
        eig = np.linalg.eigvalsh(G)
        if eig[0] > 0:
            cond[c] = eig[-1] / eig[0]
    usable = (counts >= 3) & (cond <= regression.CONDITION_CAP)
    assert design.fallback_cells == int((~usable).sum())
    conds = cond[usable]
    assert design.condition <= regression.CONDITION_CAP
    assert design.condition == pytest.approx(max(conds), rel=1e-9)


def _blocked_pairwise_projection(design, targets, block=65536):
    """The global fit with both products summed over fixed-size path blocks
    in a fixed pairwise tree; plain products must agree with it to rounding."""
    def tree_product(a, b):
        parts = [a[:, p:p + block] @ b[p:p + block] for p in range(0, a.shape[1], block)]
        while len(parts) > 1:
            parts = [parts[i] + parts[i + 1] if i + 1 < len(parts) else parts[i]
                     for i in range(0, len(parts), 2)]
        return parts[0]

    phi = design.features
    G = tree_product(phi, phi.T)
    normal = G + regression.RIDGE_SCALE * float(np.trace(G)) * np.eye(G.shape[0])
    return phi.T @ np.linalg.solve(normal, tree_product(phi, targets))


def test_global_projection_matches_blocked_pairwise_sums():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(200_000, 1))  # four blocks of 65,536 paths
    targets = _noisy_targets(x, rng, 3)
    design = step_design(RegressionBasis(kind="global_polynomial", degree=4), x)
    fitted, _ = project(design, targets)
    reference = _blocked_pairwise_projection(design, targets)
    scale = np.abs(reference).max(axis=0)
    assert np.all(np.abs(fitted - reference).max(axis=0) <= 1e-13 * scale)
