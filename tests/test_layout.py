"""Storage order of the path-indexed arrays.

Paths and solutions are indexed path first, (P, N(+1), ...), but stored
time-major, so the per-node slice a[:, i] that every forward and backward
pass walks is one contiguous block; the flows are served one contiguous
node at a time. Path-major arrays built by hand must still give the same
numbers.
"""

import struct

import numpy as np
import pytest

from qgbsde import diagnostics, sde
from qgbsde.errors import InvalidParameters
from qgbsde.model import ModelSpec, Partition, make_gbm, make_quadratic
from qgbsde.regression import RegressionBasis
from qgbsde.rng import _fill_block
from qgbsde.sde import (PathEnsemble, dump_ensemble, load_ensemble,
                        simulate_forward, simulate_variational)
from qgbsde.solver import solve_backward_regression
from qgbsde.truncation import truncate_driver

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
                        states=np.ascontiguousarray(ens.states))


@pytest.mark.parametrize("model", [PLANAR, truncate_driver(make_quadratic(), 4.0)],
                         ids=["planar", "quadratic"])
def test_forward_and_backward_arrays_are_time_major(model, tmp_path):
    part = Partition.uniform(model.T, 6)
    ens = simulate_forward(model, part, 700, seed=5, workers=2)
    dump_ensemble(ens, tmp_path / "ens.bin")
    loaded = load_ensemble(tmp_path / "ens.bin")
    sol = solve_backward_regression(model, ens, GLOBAL2)
    for name, a in [("states", ens.states), ("loaded states", loaded.states),
                    ("Y", sol.Y), ("Z", sol.Z)]:
        _assert_node_slices_contiguous(name, a)


def test_flows_are_time_major():
    model = make_gbm()
    ens = simulate_forward(model, Partition.uniform(model.T, 6), 600, seed=2)
    served, _ = simulate_variational(model, ens)
    assert all(flow.flags.c_contiguous for flow in served)


def test_coarse_restriction_is_time_major():
    # the regularity pass coarsens the fine ensemble along its node axis
    model = make_gbm()
    ens_f = simulate_forward(model, Partition.uniform(model.T, 15), 300, seed=4)
    ens_c = diagnostics._coarsen(ens_f, 3)
    _assert_node_slices_contiguous("coarse states", ens_c.states)
    # the restriction itself: shared nodes, and each window's increment the
    # forward-order sum of the fine ones derived in it (reduceat adds in
    # another order, so to rounding)
    np.testing.assert_array_equal(ens_c.states, ens_f.states[:, ::3])
    fine_dw = np.stack([ens_f.increment(model, j) for j in range(15)], axis=1)
    coarse_dw = np.stack([ens_c.increment(model, i) for i in range(5)], axis=1)
    windows = fine_dw.reshape(300, 5, 3, 1)
    np.testing.assert_array_equal(
        coarse_dw, (windows[:, :, 0] + windows[:, :, 1]) + windows[:, :, 2])
    np.testing.assert_allclose(
        coarse_dw, np.add.reduceat(fine_dw, np.arange(0, 15, 3), axis=1),
        rtol=0, atol=1e-15)
    drawn = _fill_block(4, 0, 300, 15, 1) * np.sqrt(ens_f.partition.dt)[None, :, None]
    np.testing.assert_allclose(coarse_dw, drawn.reshape(300, 5, 3, 1).sum(axis=2),
                               rtol=0, atol=1e-14)  # the window sums of the draws
    # not the increment the coarse states give: for gbm that misses the
    # drift and volatility changes inside the window, by order dt
    own = PathEnsemble(partition=ens_c.partition, seed=4, states=ens_c.states)
    gap = np.abs(np.stack([own.increment(model, i) for i in range(5)], axis=1) - coarse_dw)
    assert gap.max() > 1e-3


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


def test_ensemble_file_follows_the_documented_layout(tmp_path, monkeypatch):
    # README "Outputs": the one artifact read outside the package
    ens = simulate_forward(PLANAR, Partition.uniform(1.0, 5), 300, seed=8)
    path = tmp_path / "ensemble.bin"
    dump_ensemble(ens, path)
    with open(path, "rb") as fh:
        magic, m, d, n, p, seed = struct.unpack("<4s5Q", fh.read(44))
        times = np.fromfile(fh, dtype="<f8", count=n + 1)
        states = np.fromfile(fh, dtype="<f8", count=(n + 1) * p * m).reshape(n + 1, p, m)
        assert fh.read() == b""
    assert (magic, m, d, n, p, seed) == (b"QGB3", 2, 2, 5, 300, 8)
    assert path.stat().st_size == 44 + 8 * ((n + 1) + (n + 1) * p * m)
    np.testing.assert_array_equal(times, ens.partition.times)
    np.testing.assert_array_equal(states.swapaxes(0, 1), ens.states)
    # the size is checked before anything is allocated: with room for the
    # increments of the earlier layout the file is refused
    blob = path.read_bytes()
    path.write_bytes(blob[:44 + 8 * (n + 1)] + bytes(8 * n * p * d) + blob[44 + 8 * (n + 1):])

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(sde, "empty_time_major", refuse)
    with pytest.raises(InvalidParameters, match="header"):
        load_ensemble(path)
