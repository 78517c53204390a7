import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgbsde import (InvalidParameters, make_quadratic, smooth_clamp,
                    smooth_clamp_grad, truncate_driver)


def test_identity_region():
    assert smooth_clamp(5.0, 3.0) == 3.0
    assert smooth_clamp(5.0, -3.0) == -3.0
    assert smooth_clamp(5.0, 5.0) == 5.0
    assert smooth_clamp_grad(5.0, 2.0) == 1.0


def test_ramp_values():
    # quarter-polynomial ramp on [n, n+2]
    assert smooth_clamp(5.0, 6.0) == pytest.approx(5.75, abs=1e-15)
    assert smooth_clamp(5.0, 6.0) == pytest.approx(23.0 / 4.0, abs=1e-15)
    assert smooth_clamp_grad(5.0, 6.0) == pytest.approx(0.5, abs=1e-15)
    assert smooth_clamp(3.0, 4.0) == pytest.approx(3.75, abs=1e-15)


def test_saturation():
    assert smooth_clamp(5.0, 10.0) == 6.0
    assert smooth_clamp(5.0, -10.0) == -6.0
    assert smooth_clamp_grad(5.0, 7.0) == 0.0
    assert smooth_clamp_grad(5.0, 1e9) == 0.0


def test_vector_arguments():
    out = smooth_clamp(3.0, np.array([1.0, -1.0]))
    np.testing.assert_array_equal(out, [1.0, -1.0])
    out = smooth_clamp(3.0, np.array([10.0, -10.0]))
    np.testing.assert_array_equal(out, [4.0, -4.0])
    out = smooth_clamp(3.0, np.array([[4.0, 0.0]]))
    np.testing.assert_allclose(out, [[3.75, 0.0]], atol=1e-15)
    assert out.shape == (1, 2)


def test_c1_continuity_at_knots():
    for n in (0.0, 1.0, 2.5, 5.0):
        for knot in (n, -n, n + 2.0, -(n + 2.0)):
            lo, hi = knot - 1e-9, knot + 1e-9
            assert abs(smooth_clamp(n, hi) - smooth_clamp(n, lo)) < 1e-8
            assert abs(smooth_clamp_grad(n, hi) - smooth_clamp_grad(n, lo)) < 1e-8
        # value continuity to full precision at the knot itself
        assert smooth_clamp(n, n) == pytest.approx(n, abs=1e-12)
        assert smooth_clamp(n, n + 2.0) == pytest.approx(n + 1.0, abs=1e-12)
        assert smooth_clamp_grad(n, n) == pytest.approx(1.0, abs=1e-12)
        assert smooth_clamp_grad(n, n + 2.0) == pytest.approx(0.0, abs=1e-12)


def test_envelope_and_lipschitz_bulk():
    rng = np.random.default_rng(0)
    z = rng.uniform(-50.0, 50.0, 10 ** 6)
    for n in (0.0, 1.5, 5.0):
        h = smooth_clamp(n, z)
        assert np.all(np.abs(h) <= np.minimum(np.abs(z), n + 1.0) + 1e-12)
        assert np.all(np.abs(smooth_clamp_grad(n, z)) <= 1.0 + 1e-12)
        # sampled difference quotients never exceed 1
        order = np.argsort(z)
        dz = np.diff(z[order])
        dh = np.diff(h[order])
        mask = dz > 1e-9
        assert np.max(np.abs(dh[mask] / dz[mask])) <= 1.0 + 1e-9


@given(st.floats(0.0, 20.0), st.floats(-100.0, 100.0))
@settings(max_examples=300, deadline=None)
def test_odd_and_bounded(n, z):
    h = smooth_clamp(n, z)
    assert smooth_clamp(n, -z) == pytest.approx(-h, abs=1e-12)
    assert abs(h) <= min(abs(z), n + 1.0) + 1e-12
    assert 0.0 <= smooth_clamp_grad(n, z) <= 1.0


@given(st.floats(0.0, 20.0), st.floats(-50.0, 50.0))
@settings(max_examples=300, deadline=None)
def test_grad_matches_finite_difference(n, z):
    h = 1e-6
    fd = (smooth_clamp(n, z + h) - smooth_clamp(n, z - h)) / (2 * h)
    # away from the knots the clamp is polynomial, so central differences
    # are exact to O(h^2); skip the knot neighborhoods
    if min(abs(abs(z) - n), abs(abs(z) - (n + 2.0))) > 1e-3:
        assert smooth_clamp_grad(n, z) == pytest.approx(fd, abs=1e-6)


def _piecewise_clamp(n, z):
    """The clamp and its derivative written branch by branch."""
    az = np.abs(z)
    with np.errstate(over="ignore", invalid="ignore"):  # unused ramp at |z| = inf
        ramp = (-n * n + 2.0 * n * az - az * (az - 4.0)) / 4.0
    mag = np.where(az <= n, az, np.where(az >= n + 2.0, n + 1.0, ramp))
    grad = np.where(az <= n, 1.0, np.where(az >= n + 2.0, 0.0, (n - az + 2.0) / 2.0))
    return np.where(z < 0, -mag, mag), grad


def test_clamp_matches_piecewise_formula():
    # exact on the identity and saturated ranges (the sweep's zero error
    # above the realized max |Z| rests on the identity range), rounding-level
    # on the ramp
    rng = np.random.default_rng(11)
    for n in range(13):
        z = np.concatenate([rng.uniform(-(n + 4.0), n + 4.0, 20000),
                            [0.0, n, -n, n + 2.0, -(n + 2.0), 1e300, -np.inf]])
        want, want_grad = _piecewise_clamp(float(n), z)
        got, got_grad = smooth_clamp(n, z), smooth_clamp_grad(n, z)
        az = np.abs(z)
        flat = (az <= n) | (az >= n + 2.0)
        assert flat.sum() > 1000 and (~flat).sum() > 1000
        np.testing.assert_array_equal(got[flat], want[flat])
        np.testing.assert_array_equal(got_grad[flat], want_grad[flat])
        np.testing.assert_allclose(got[~flat], want[~flat], rtol=1e-14, atol=0)
        np.testing.assert_allclose(got_grad[~flat], want_grad[~flat],
                                   rtol=1e-14, atol=1e-15)


def test_level_validation():
    with pytest.raises(InvalidParameters):
        smooth_clamp(-1.0, 0.0)
    with pytest.raises(InvalidParameters):
        smooth_clamp(np.nan, 0.0)
    with pytest.raises(InvalidParameters):
        smooth_clamp_grad(np.inf, 0.0)


def test_truncated_driver_values():
    model = make_quadratic(gamma=1.0)
    trunc = truncate_driver(model, 4.0)
    x = np.zeros((1, 1))
    y = np.zeros(1)
    z = np.array([[100.0]])
    # clamp saturates at 5, so f = |5|^2 / 2
    assert trunc.f(0.0, x, y, z)[0] == pytest.approx(12.5, abs=1e-12)
    z = np.array([[2.0]])
    assert trunc.f(0.0, x, y, z)[0] == pytest.approx(2.0, abs=1e-12)


def test_truncated_lipschitz_certificate():
    model = make_quadratic(gamma=1.0)
    assert model.driver_z_lipschitz is None
    for n in (1.0, 4.0):
        trunc = truncate_driver(model, n)
        cert = trunc.driver_z_lipschitz
        assert cert == pytest.approx(model.growth_M * (3.0 + 2.0 * n))
        rng = np.random.default_rng(3)
        z1 = rng.uniform(-30, 30, (4096, 1))
        z2 = rng.uniform(-30, 30, (4096, 1))
        x = np.zeros((4096, 1))
        y = np.zeros(4096)
        df = np.abs(trunc.f(0.0, x, y, z1) - trunc.f(0.0, x, y, z2))
        dz = np.abs(z1 - z2)[:, 0]
        mask = dz > 1e-9
        assert np.max(df[mask] / dz[mask]) <= cert + 1e-9


def test_truncated_gradient_chain_rule():
    model = make_quadratic(gamma=2.0)
    trunc = truncate_driver(model, 3.0)
    rng = np.random.default_rng(1)
    z = rng.uniform(-8, 8, (256, 1))
    x = np.zeros((256, 1))
    y = np.zeros(256)
    fz = trunc.f_z(0.0, x, y, z)
    h = 1e-6
    fd = (trunc.f(0.0, x, y, z + h) - trunc.f(0.0, x, y, z - h)) / (2 * h)
    near_knot = np.minimum(np.abs(np.abs(z[:, 0]) - 3.0),
                           np.abs(np.abs(z[:, 0]) - 5.0)) < 1e-3
    np.testing.assert_allclose(fz[~near_knot, 0], fd[~near_knot], atol=1e-5)


@given(st.floats(0.0, 10.0),
       st.lists(st.floats(-15.0, 15.0), min_size=1, max_size=16))
@settings(max_examples=300, deadline=None)
def test_truncated_callables_evaluate_the_base_at_the_clamp(n, values):
    base = make_quadratic(gamma=1.5, rate=0.3)
    model = truncate_driver(base, n)
    z = np.array(values)[:, None]
    x = np.linspace(-1.0, 1.0, z.shape[0])[:, None]
    y = np.linspace(0.5, -0.5, z.shape[0])
    zc = smooth_clamp(n, z)
    for name in ("f", "f_x", "f_y"):
        np.testing.assert_array_equal(getattr(model, name)(0.3, x, y, z),
                                      getattr(base, name)(0.3, x, y, zc))
    np.testing.assert_array_equal(model.f_z(0.3, x, y, z),
                                  base.f_z(0.3, x, y, zc) * smooth_clamp_grad(n, z))


def test_truncated_driver_keeps_nan():
    # a NaN fails the identity test, so the whole column is clamped and the
    # NaN comes out, where the solvers raise NumericalBlowup on it
    base = make_quadratic()
    model = truncate_driver(base, 2.0)
    x, y = np.zeros((2, 1)), np.zeros(2)
    z = np.array([[5.0], [np.nan]])
    f, fz = model.f(0.0, x, y, z), model.f_z(0.0, x, y, z)
    assert np.isnan(f[1]) and np.isnan(fz[1, 0])
    zc = smooth_clamp(2.0, z[:1])
    assert f[0] == base.f(0.0, x[:1], y[:1], zc)[0]
    assert fz[0, 0] == (base.f_z(0.0, x[:1], y[:1], zc) * smooth_clamp_grad(2.0, z[:1]))[0, 0]


def test_truncation_metadata():
    model = make_quadratic()
    trunc = truncate_driver(model, 6.0)
    assert trunc.meta["truncation_level"] == 6.0
    assert trunc.name.endswith("_n6")
    # original model untouched
    assert model.driver_z_lipschitz is None
    assert "truncation_level" not in model.meta
