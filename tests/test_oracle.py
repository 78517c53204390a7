import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from qgbsde import (InvalidParameters, Partition, QuadratureUnstable,
                    bmo_bound, cole_hopf_from_model, cole_hopf_increment_stat,
                    cole_hopf_reference, make_brownian, make_quadratic)

CANONICAL_Y0 = 0.18892605897056897
CANONICAL_Z0 = 0.5622511325266476


def test_canonical_values():
    ref = cole_hopf_reference(1.0, np.tanh, 0.0, 1.0, 1.0,
                              terminal_grad=lambda x: 1.0 / np.cosh(x) ** 2)
    assert ref.y0 == pytest.approx(CANONICAL_Y0, abs=1e-12)
    assert ref.z0 == pytest.approx(CANONICAL_Z0, abs=1e-10)
    assert ref.error_estimate < 1e-10


def test_from_model():
    ref = cole_hopf_from_model(make_quadratic())
    assert ref.y0 == pytest.approx(CANONICAL_Y0, abs=1e-12)
    assert ref.z0 == pytest.approx(CANONICAL_Z0, abs=1e-10)


@pytest.mark.parametrize("kappa", [2.0, 5.0])
def test_steep_terminals_match_adaptive_quadrature(kappa):
    # tanh(kappa x) has poles at distance pi / (2 kappa) from the real axis;
    # the lattice rule must stay exact where Gauss-Hermite loses digits
    def expect(f):
        integrand = lambda x: (f(x) * math.exp(math.tanh(kappa * x) - x * x / 2.0)
                               / math.sqrt(2.0 * math.pi))
        return quad(integrand, -12.0, 12.0, points=[0.0], epsabs=1e-13,
                    epsrel=1e-13, limit=200)[0]

    ey = expect(lambda x: 1.0)
    ez = expect(lambda x: kappa / math.cosh(kappa * x) ** 2)
    ref = cole_hopf_from_model(make_quadratic(kappa=kappa))
    assert ref.y0 == pytest.approx(math.log(ey), abs=1e-10)
    assert ref.z0 == pytest.approx(ez / ey, abs=1e-10)


def test_constant_terminal_is_exact():
    # g == c: Y_0 = (1/gamma) log E[e^{gamma c}] = c, Z_0 = 0
    ref = cole_hopf_reference(2.0, lambda x: np.full_like(x, 0.3), 0.0, 1.0, 1.0,
                              terminal_grad=lambda x: np.zeros_like(x))
    assert ref.y0 == pytest.approx(0.3, abs=1e-13)
    assert ref.z0 == pytest.approx(0.0, abs=1e-13)


def test_small_gamma_limit():
    # gamma -> 0: Y_0 = E[g(X_T)] + (gamma/2) Var(g(X_T)) + O(gamma^2).
    # E[tanh(W_1)] = 0 by symmetry, so Y_0 should shrink linearly in gamma.
    var_g = 0.39429449  # E[tanh(W_1)^2], 201-node Hermite quadrature
    for gamma in (1e-3, 1e-4):
        ref = cole_hopf_reference(gamma, np.tanh, 0.0, 1.0, 1.0)
        assert ref.y0 == pytest.approx(gamma * var_g / 2.0, rel=1e-2)


def test_gamma_scaling_of_mean():
    # linear terminal: Y_0 = x0 + gamma sigma^2 T / 2 exactly
    # (log of a Gaussian mgf)
    for gamma, sigma, T in ((1.0, 1.0, 1.0), (2.0, 0.5, 2.0)):
        ref = cole_hopf_reference(gamma, lambda x: x, 0.3, sigma, T)
        assert ref.y0 == pytest.approx(0.3 + gamma * sigma ** 2 * T / 2.0,
                                       abs=1e-9)


def test_validation():
    with pytest.raises(InvalidParameters):
        cole_hopf_reference(0.0, np.tanh, 0.0, 1.0, 1.0)
    with pytest.raises(InvalidParameters):
        cole_hopf_reference(1.0, np.tanh, 0.0, -1.0, 1.0)
    with pytest.raises(InvalidParameters):
        cole_hopf_reference(1.0, np.tanh, 0.0, 1.0, 0.0)
    with pytest.raises(InvalidParameters):
        cole_hopf_reference(1.0, lambda x: np.full_like(x, np.inf), 0.0, 1.0, 1.0)


def test_instability_detected():
    # tanh(50 x) has poles 0.031 from the real axis, too close for the
    # 0.025 lattice: halving the step moves y0 by about 5e-5
    with pytest.raises(QuadratureUnstable, match="step halving"):
        cole_hopf_reference(1.0, lambda x: np.tanh(50.0 * x), 0.0, 1.0, 1.0)


def test_overflowing_exponential_raises():
    # exp(1000 x) is not finite on the lattice: the rule must refuse the
    # value instead of returning it, and without a floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureUnstable, match="not finite"):
            cole_hopf_reference(1000.0, lambda x: x, 0.0, 1.0, 1.0)


def test_increment_stat_linear_terminal_exact():
    # g(x) = x: Y_t = X_t + gamma sigma^2 (T - t) / 2, so over a step h
    # E (Y_t - Y_s)^2 = sigma^2 h + (gamma sigma^2 h / 2)^2, largest at the
    # full window
    gamma, sigma, T = 2.0, 0.5, 2.0
    model = make_quadratic(gamma=gamma, terminal="identity", sigma=sigma,
                           x0=0.3, horizon=T)
    base = Partition.uniform(T, 4)
    h = base.mesh
    want = sigma ** 2 * h + (gamma * sigma ** 2 * h / 2.0) ** 2
    got = cole_hopf_increment_stat(model, base, base.refine(3))
    assert got == pytest.approx(want, rel=1e-12)


def test_increment_stat_canonical_values():
    # tanh terminal, fine grid 4N, at both ends of the acceptance ladder
    model = make_quadratic()
    for n, want in ((8, 0.4565922), (64, 0.4633931)):
        base = Partition.uniform(1.0, n)
        got = cole_hopf_increment_stat(model, base, base.refine(4)) / base.mesh
        assert got == pytest.approx(want, abs=1e-6)


def test_increment_stat_matches_dense_quadrature():
    # the canonical model (g = tanh, gamma = sigma = T = 1, x0 = 0) and its
    # steeper kappa = 2 variant at N = 8, fine grid 32, evaluated apart from
    # the oracle with 200-point Gauss-Hermite rules in every dimension:
    # Y_t = u(t, W_t) with u(t, x) = log E exp(tanh(kappa (x + sqrt(1 - t) U)))
    u, w = np.polynomial.hermite.hermgauss(200)
    u, w = math.sqrt(2.0) * u, w / math.sqrt(math.pi)
    base = Partition.uniform(1.0, 8)
    fine = base.refine(4)
    for kappa in (1.0, 2.0):
        def value(t, x):
            pts = x[..., None] + math.sqrt(1.0 - t) * u
            return np.log(np.exp(np.tanh(kappa * pts)) @ w)

        dense = 0.0
        for i in range(8):
            s = base.times[i]
            ws = math.sqrt(s) * u
            ys = value(s, ws)[:, None]
            for t in fine.times[4 * i + 1:4 * i + 5]:
                yt = value(t, ws[:, None] + math.sqrt(t - s) * u)
                dense = max(dense, float(w @ (yt - ys) ** 2 @ w))
        got = cole_hopf_increment_stat(make_quadratic(kappa=kappa), base, fine)
        assert got == pytest.approx(dense, rel=1e-6)


def test_increment_stat_validation():
    base = Partition.uniform(1.0, 4)
    with pytest.raises(InvalidParameters):
        cole_hopf_increment_stat(make_brownian(), base, base.refine(2))
    with pytest.raises(InvalidParameters):
        cole_hopf_increment_stat(make_quadratic(horizon=2.0), base, base.refine(2))


def test_from_model_rejects_wrong_models():
    with pytest.raises(InvalidParameters):
        cole_hopf_from_model(make_brownian())
    with pytest.raises(InvalidParameters):
        cole_hopf_from_model(make_quadratic(rate=0.5))
    drifted = make_quadratic().with_driver(b=lambda t, x: np.ones_like(x))
    with pytest.raises(InvalidParameters):
        cole_hopf_from_model(drifted)
    statedep = make_quadratic().with_driver(
        sigma=lambda t, x: 1.0 + 0.1 * np.abs(x[..., None]))
    with pytest.raises(InvalidParameters):
        cole_hopf_from_model(statedep)


def test_bmo_bound_pinned_value():
    want = (10.0 / 3.0) * math.exp(7.0)
    got = bmo_bound(1.0, 1.0, 1.0)
    assert abs(got - want) / want < 1e-9
    assert got == pytest.approx(3655.4438614281953, rel=1e-12)


def test_bmo_bound_monotonicity():
    assert bmo_bound(1.0, 1.0, 2.0) > bmo_bound(1.0, 1.0, 1.0)
    assert bmo_bound(1.0, 2.0, 1.0) > bmo_bound(1.0, 1.0, 1.0)
    assert bmo_bound(1.0, 1.5, 0.0) > bmo_bound(1.0, 1.0, 0.0)


def test_bmo_bound_validation():
    with pytest.raises(InvalidParameters):
        bmo_bound(0.0, 1.0, 1.0)
    with pytest.raises(InvalidParameters):
        bmo_bound(1.0, 0.0, 1.0)
    with pytest.raises(InvalidParameters):
        bmo_bound(1.0, 1.0, -0.1)
