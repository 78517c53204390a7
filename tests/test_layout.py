"""Storage order of the path-indexed arrays.

Paths, solutions, flows and gradients are indexed path first, (P, N(+1), ...),
but stored time-major, so the per-node slice a[:, i] that every forward and
backward pass walks is one contiguous block. Path-major arrays built by hand
must still give the same numbers.
"""

import numpy as np
import pytest

from qgbsde.diagnostics import regularity_pass
from qgbsde.model import ModelSpec, Partition, make_gbm, make_quadratic
from qgbsde.regression import RegressionBasis
from qgbsde.sde import (PathEnsemble, dump_ensemble, load_ensemble,
                        simulate_forward, simulate_variational)
from qgbsde.solver import solve_backward_regression
from qgbsde.truncation import truncate_driver
from qgbsde.variational import solve_variational_bsde

GLOBAL2 = RegressionBasis(kind="global_polynomial", degree=2)
PLANAR = ModelSpec(
    name="planar", m=2, d=2, x0=np.zeros(2), T=1.0,
    b=lambda t, x: np.zeros_like(x),
    sigma=lambda t, x: np.broadcast_to(np.eye(2), x.shape + (2,)).copy(),
    f=lambda t, x, y, z: -0.5 * (z ** 2).sum(axis=1),
    g=lambda x: np.tanh(x).sum(axis=1),
    driver_z_lipschitz=1.0)


def _assert_node_slices_contiguous(name, a):
    assert all(a[:, i].flags.c_contiguous for i in range(a.shape[1])), (
        f"{name}: a per-node slice is not contiguous (strides {a.strides})")


def _path_major(ens):
    return PathEnsemble(partition=ens.partition, seed=ens.seed,
                        increments=np.ascontiguousarray(ens.increments),
                        states=np.ascontiguousarray(ens.states))


@pytest.mark.parametrize("model", [PLANAR, truncate_driver(make_quadratic(), 4.0)],
                         ids=["planar", "quadratic"])
def test_forward_and_backward_arrays_are_time_major(model, tmp_path):
    part = Partition.uniform(model.T, 6)
    ens = simulate_forward(model, part, 700, seed=5, workers=2)
    dump_ensemble(ens, tmp_path / "ens.bin")
    loaded = load_ensemble(tmp_path / "ens.bin")
    sol = solve_backward_regression(model, ens, GLOBAL2)
    # the regularity pass, given a path-major copy of a refined ensemble
    ens_f = _path_major(simulate_forward(model, part.refine(2), 700, seed=5))
    coarse = regularity_pass(model, ens_f, 2, GLOBAL2).solution
    for name, a in [("increments", ens.increments), ("states", ens.states),
                    ("loaded increments", loaded.increments),
                    ("loaded states", loaded.states),
                    ("Y", sol.Y), ("Z", sol.Z),
                    ("regularity pass Y", coarse.Y), ("regularity pass Z", coarse.Z)]:
        _assert_node_slices_contiguous(name, a)


def test_flows_and_gradients_are_time_major():
    model = make_gbm()
    ens = simulate_forward(model, Partition.uniform(model.T, 6), 600, seed=2)
    ens_v = simulate_variational(model, ens)
    var = solve_variational_bsde(model, ens_v,
                                 solve_backward_regression(model, ens_v, GLOBAL2),
                                 GLOBAL2)
    for name, a in [("flows", ens_v.flows), ("flow inverses", ens_v.flow_inverses),
                    ("gradY", var.gradY), ("gradZ", var.gradZ)]:
        _assert_node_slices_contiguous(name, a)


def test_coarse_restriction_is_time_major():
    # the regularity pass coarsens the fine ensemble along its node axis
    model = make_gbm()
    ens_f = simulate_forward(model, Partition.uniform(model.T, 15), 300, seed=4)
    ens_c = regularity_pass(model, ens_f, 3, GLOBAL2).ensemble
    for name, a in [("coarse increments", ens_c.increments),
                    ("coarse states", ens_c.states)]:
        _assert_node_slices_contiguous(name, a)
    # the restriction itself: shared nodes and window-summed increments
    np.testing.assert_array_equal(ens_c.states, ens_f.states[:, ::3])
    np.testing.assert_allclose(
        ens_c.increments, ens_f.increments.reshape(300, 5, 3, 1).sum(axis=2),
        rtol=0, atol=1e-15)


def test_path_major_ensemble_gives_the_same_solution():
    model = truncate_driver(make_quadratic(), 4.0)
    ens = simulate_forward(model, Partition.uniform(model.T, 8), 3000, seed=9)
    copy = _path_major(ens)
    assert copy.states.flags.c_contiguous and not ens.states.flags.c_contiguous
    a = solve_backward_regression(model, ens, GLOBAL2)
    b = solve_backward_regression(model, copy, GLOBAL2)
    np.testing.assert_allclose(b.Y, a.Y, rtol=1e-12, atol=0)
    np.testing.assert_allclose(b.Z, a.Z, rtol=1e-12, atol=0)


def test_dump_writes_the_same_bytes_for_either_storage_order(tmp_path):
    ens = simulate_forward(PLANAR, Partition.uniform(1.0, 5), 400, seed=3)
    dump_ensemble(ens, tmp_path / "time_major.bin")
    dump_ensemble(_path_major(ens), tmp_path / "path_major.bin")
    assert ((tmp_path / "time_major.bin").read_bytes()
            == (tmp_path / "path_major.bin").read_bytes())
