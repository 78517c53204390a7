import dataclasses

import numpy as np
import pytest

from qgbsde import (PRESETS, AssumptionLevelTooLow, InvalidParameters,
                    InvalidPartition, ModelSpec, Partition,
                    check_growth_certificate, make_brownian, make_discount,
                    make_gbm, make_quadratic)
from qgbsde.model import _box_points


def _minimal_model(**overrides):
    kwargs = dict(
        name="minimal", m=1, d=1, x0=np.array([0.0]), T=1.0,
        b=lambda t, x: np.zeros_like(x),
        sigma=lambda t, x: np.ones(x.shape + (1,)),
        f=lambda t, x, y, z: np.zeros(x.shape[0]),
        g=lambda x: x[:, 0],
    )
    kwargs.update(overrides)
    return ModelSpec(**kwargs)


class TestPartition:
    def test_uniform(self):
        p = Partition.uniform(1.0, 4)
        np.testing.assert_allclose(p.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert p.n_steps == 4
        assert p.horizon == 1.0
        assert p.mesh == 0.25

    def test_validation(self):
        with pytest.raises(InvalidPartition):
            Partition(np.array([0.0]))
        with pytest.raises(InvalidPartition):
            Partition(np.array([0.1, 0.5, 1.0]))
        with pytest.raises(InvalidPartition):
            Partition(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(InvalidPartition):
            Partition.uniform(0.0, 4)
        with pytest.raises(InvalidPartition):
            Partition.uniform(1.0, 0)

    def test_times_are_frozen(self):
        p = Partition.uniform(1.0, 4)
        with pytest.raises(ValueError):
            p.times[0] = 1.0

    def test_refine_keeps_coarse_nodes_bitwise(self):
        p = Partition.uniform(1.0, 7)  # 1/7 is not dyadic, exercise rounding
        fine = p.refine(4)
        assert fine.n_steps == 28
        assert np.all(fine.times[::4] == p.times)
        assert p.refine(1) is p
        with pytest.raises(InvalidParameters):
            p.refine(0)


class TestModelSpec:
    def test_dimension_validation(self):
        with pytest.raises(InvalidParameters):
            _minimal_model(m=0)
        with pytest.raises(InvalidParameters):
            _minimal_model(T=-1.0)
        with pytest.raises(InvalidParameters):
            _minimal_model(x0=np.array([0.0, 1.0]))
        with pytest.raises(InvalidParameters):
            _minimal_model(growth_M=-0.5)

    def test_gradient_requirement(self):
        gradients = ("b_jac", "sigma_jac", "f_x", "f_y", "f_z", "g_grad")
        model = _minimal_model(b_jac=lambda t, x: np.zeros(x.shape + (1,)))
        model.require("b_jac")
        with pytest.raises(AssumptionLevelTooLow, match="sigma_jac, g_grad$"):
            model.require("b_jac", "sigma_jac", "g_grad")
        for make in PRESETS.values():
            make().require(*gradients)

    def test_x0_normalized_to_array(self):
        model = _minimal_model(x0=0.5)
        assert model.x0.shape == (1,)
        assert model.x0[0] == 0.5


class TestPresets:
    def test_brownian_defaults(self):
        m = make_brownian()
        assert (m.m, m.d) == (1, 1)
        assert m.driver_z_lipschitz == 0.0
        x = np.array([[2.0], [-1.0]])
        np.testing.assert_array_equal(m.g(x), [2.0, -1.0])
        assert m.f(0.0, x, np.zeros(2), np.zeros((2, 1))).shape == (2,)

    def test_brownian_terminals(self):
        m = make_brownian(terminal="tanh", kappa=2.0)
        assert m.name == "brownian_tanh"
        x = np.array([[0.3]])
        assert m.g(x)[0] == pytest.approx(np.tanh(0.6))
        assert m.g_grad(x)[0, 0] == pytest.approx(2.0 / np.cosh(0.6) ** 2)
        with pytest.raises(InvalidParameters):
            make_brownian(terminal="cubic")

    def test_discount(self):
        m = make_discount(rate=0.1)
        y = np.array([2.0, -3.0])
        x = np.zeros((2, 1))
        np.testing.assert_allclose(m.f(0.0, x, y, np.zeros((2, 1))), [-0.2, 0.3])
        with pytest.raises(InvalidParameters):
            make_discount(rate=-0.1)

    def test_quadratic_driver(self):
        m = make_quadratic(gamma=2.0)
        assert m.driver_z_lipschitz is None
        assert m.growth_M == 1.0
        z = np.array([[3.0]])
        x = np.zeros((1, 1))
        assert m.f(0.0, x, np.zeros(1), z)[0] == pytest.approx(9.0)
        with pytest.raises(InvalidParameters):
            make_quadratic(gamma=0.0)
        with pytest.raises(InvalidParameters):
            make_quadratic(sigma=0.0)
        with pytest.raises(InvalidParameters):
            make_quadratic(rate=-1.0)

    def test_quadratic_with_rate(self):
        m = make_quadratic(gamma=1.0, rate=0.2)
        z = np.array([[2.0]])
        x = np.zeros((1, 1))
        assert m.f(0.0, x, np.ones(1), z)[0] == pytest.approx(-0.2 + 2.0)
        assert m.growth_M == pytest.approx(0.5)

    def test_growth_certificates(self):
        for m in (make_brownian(), make_discount(), make_gbm(),
                  make_quadratic(), make_quadratic(gamma=3.0, rate=0.5)):
            assert check_growth_certificate(m) <= 1.0 + 1e-12

    def test_box_points_are_splitmix64_outputs(self):
        # the reference generator in Python integers, state += golden gamma
        def splitmix64(k):
            mask = 2 ** 64 - 1
            z = k * 0x9E3779B97F4A7C15 & mask
            z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
            z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
            return z ^ z >> 31

        assert splitmix64(1) == 0xE220A8397B1DCDAF  # the published first output
        pts = _box_points(50, 3, 5.0)
        want = [5.0 * (2.0 * (splitmix64(j + 1) >> 11) * 2.0 ** -53 - 1.0)
                for j in range(150)]
        assert pts.shape == (50, 3) and pts.ravel().tolist() == want

    def test_wrong_certificate_detected(self):
        bad = dataclasses.replace(make_quadratic(gamma=2.0), growth_M=0.1)
        assert check_growth_certificate(bad) > 1.0
