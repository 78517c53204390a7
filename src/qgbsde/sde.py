"""Forward Euler simulation, first variation flow, and the time-major ensemble file.

Paths carry their states only: euler_increment derives each Brownian
increment from the Euler step, once per node of a pass.

simulate_variational returns the flow as an array of its own; its inverse
is not stored. flow_inverse inverts the flow matrices of one node when a
check needs them: simulate_variational's, node by node, and the
representation residual's (variational). For m = 1 the inverse is the
reciprocal, bit for bit what np.linalg.inv gives.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, NumericalBlowup, SingularFlow
from .model import ModelSpec, Partition, empty_time_major
from .rng import _fill_block, _run_blocks

_MAGIC = b"QGB3"
_HEADER = struct.Struct("<4s5Q")  # magic, then m, d, N, P, seed
# simulate_variational's caps on the flow's condition bound and on its
# inverse's identity residual
FLOW_CONDITION_CAP = 1e12
FLOW_TOL = 1e-8


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated Euler states on a fixed grid; d equals m.

    states:     (P, N+1, m) Euler states, states[:, 0] == x0

    Arrays are indexed path first but stored time-major, in memory as in the
    ensemble file (time is the slowest axis, see model.empty_time_major), so
    the per-node slice states[:, i] is contiguous. Path-major arrays built by
    hand are accepted as well; only the speed of the per-node access differs.
    """

    partition: Partition
    seed: int
    states: np.ndarray

    def __post_init__(self):
        n = self.partition.n_steps + 1
        if self.states.ndim != 3 or self.states.shape[1] != n:
            raise InvalidParameters(f"states must be (P, {n}, m), got {self.states.shape}")

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def m(self) -> int:
        return self.states.shape[2]

    d = m

    def increment(self, model: ModelSpec, i) -> np.ndarray:
        """Step i's Brownian increment (P, d), see euler_increment."""
        return euler_increment(model, self.partition.times, i, self.states[:, i],
                               self.states[:, i + 1])


def euler_increment(model: ModelSpec, times, i, x, x_next) -> np.ndarray:
    """The Brownian increment (P, d) of step i that the Euler step from the
    states x (P, m) at times[i] to x_next at times[i + 1] determines:

        dW_i = sigma(t_i, x)^{-1} (x_next - x - b(t_i, x) dt_i)

    At m = d = 1 that is one division. A sigma singular on a path raises
    NumericalBlowup with step i and that path.
    """
    t, dt = times[i], times[i + 1] - times[i]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sig = np.asarray(model.sigma(t, x))
        move = x_next - x - np.asarray(model.b(t, x)) * dt
        if sig.shape[-1] == 1:
            dw = move / sig[:, :, 0]
        else:
            try:
                dw = np.linalg.solve(sig, move[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:  # inf or nan on the singular paths
                dw = move / (np.linalg.det(sig) != 0.0)[:, None]
    if not np.isfinite(dw).all():
        raise NumericalBlowup("sigma is singular: the Euler step does not determine "
                              "dW", step=i, path=_first_bad_path(dw))
    return dw


def _first_bad_path(a: np.ndarray) -> int:
    """The first path of a (P, ...) with a non-finite entry, looked up only
    once a pass over the whole array has found one."""
    return int(np.argmax(~np.isfinite(a.reshape(len(a), -1)).all(axis=1)))


def _euler_block(model, times, seed, X, a, b):
    """The Euler steps of the paths [a, b), on their own normals only."""
    normals = _fill_block(seed, a, b, times.size - 1, model.d)
    for i in range(times.size - 1):
        dt = times[i + 1] - times[i]
        t = times[i]
        xi = X[a:b, i]
        # overflow surfaces as the NumericalBlowup below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            drift = model.b(t, xi)
            diff = model.sigma(t, xi)
            dw = normals[:, i] * np.sqrt(dt)
            nxt = xi + drift * dt + np.einsum("pmd,pd->pm", diff, dw)
        if not np.isfinite(nxt).all():
            raise NumericalBlowup("non-finite state in forward Euler",
                                  step=i, path=a + _first_bad_path(nxt))
        X[a:b, i + 1] = nxt


def simulate_forward(model: ModelSpec, partition: Partition, n_paths: int,
                     seed: int, workers: int = 1) -> PathEnsemble:
    """Left-point Euler scheme for the forward equation.

    Output is bit-identical for any workers value and path block size: the
    normals come from the counter-based generator and path blocks write
    disjoint slices. Beside the states, each running worker holds one path
    block's normals, 8 * rng._DEFAULT_BLOCK * 4 ceil(N d / 4) bytes (16.8 MB
    at N = 256, d = 1). A model with m != d is rejected before any draw.
    """
    if n_paths < 1 or workers < 1:
        raise InvalidParameters(
            f"n_paths and workers must be positive, got {n_paths} and {workers}")
    if not (0 <= int(seed) < 2 ** 64):
        raise InvalidParameters(f"seed must fit in an unsigned 64-bit int, got {seed}")
    if model.m != model.d:  # only a square sigma lets the states determine dW
        raise InvalidParameters(f"model '{model.name}' has m = {model.m} but d = {model.d}")
    times = partition.times
    X = empty_time_major(partition.n_steps + 1, n_paths, (model.m,))
    X[:, 0] = model.x0
    _run_blocks(lambda a, b: _euler_block(model, times, int(seed), X, a, b),
                n_paths, workers)
    return PathEnsemble(partition=partition, seed=int(seed), states=X)


def simulate_variational(model: ModelSpec,
                         ensemble: PathEnsemble) -> tuple[np.ndarray, float]:
    """The first-variation flow of an ensemble's paths and the largest
    identity residual of its inverses.

    The flow is (P, N+1, m, m), indexed like the states and stored
    time-major. Needs the model's b_jac and sigma_jac. The flow is inverted
    node by node (flow_inverse) for two checks: the condition bound is
    capped at FLOW_CONDITION_CAP and the identity residual
    (flow_identity_residual) at FLOW_TOL. Either failure raises SingularFlow
    with the first failing node as its step and that node's worst path. The
    largest residual is returned as measured for the check; the inverses
    are not kept.
    """
    model.require("b_jac", "sigma_jac")
    times = ensemble.partition.times
    X = ensemble.states
    P, m = X.shape[0], model.m
    n = times.size - 1

    F = empty_time_major(n + 1, P, (m, m))
    F[:, 0] = np.eye(m)
    for i in range(n):
        dt = times[i + 1] - times[i]
        Fi = F[:, i]
        dw = ensemble.increment(model, i)
        # overflow surfaces as the NumericalBlowup below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            B = model.b_jac(times[i], X[:, i])
            S = model.sigma_jac(times[i], X[:, i])
            F[:, i + 1] = (Fi + np.einsum("pab,pbc->pac", B, Fi) * dt
                           + np.einsum("pjab,pbc,pj->pac", S, Fi, dw))
        if not np.isfinite(F[:, i + 1]).all():
            raise NumericalBlowup("non-finite variational flow",
                                  step=i, path=_first_bad_path(F[:, i + 1]))

    resid = 0.0
    for i in range(n + 1):
        Fi = F[:, i]
        try:
            Gi = flow_inverse(Fi)
        except np.linalg.LinAlgError as exc:
            raise SingularFlow(f"flow matrix is singular: {exc}", step=i) from exc
        # |F|_F |F^-1|_F bounds the 2-norm condition number from above, so
        # the cap is never looser than on the exact condition number; a
        # singular flow gives NaN or inf here, and fails it
        with np.errstate(over="ignore", invalid="ignore"):
            cond = (np.linalg.norm(Fi, axis=(-2, -1))
                    * np.linalg.norm(Gi, axis=(-2, -1)))
            node_resid = flow_identity_residual(Fi, Gi)
        if not (cond <= FLOW_CONDITION_CAP).all():
            raise SingularFlow(
                f"flow condition bound {np.fmax.reduce(cond):.3e} exceeds cap "
                f"{FLOW_CONDITION_CAP:.3e}", step=i,
                path=int(np.argmax(np.where(np.isnan(cond), np.inf, cond))))
        worst = float(node_resid.max())
        if worst > FLOW_TOL:
            raise SingularFlow(f"flow inverse identity residual {worst:.3e} > "
                               f"{FLOW_TOL:.3e}", step=i, path=int(np.argmax(node_resid)))
        resid = max(resid, worst)
    return F, resid


def flow_inverse(flow: np.ndarray) -> np.ndarray:
    """The inverse of each m x m matrix of flow (P, m, m).

    For m = 1 that is 1 / flow, bit for bit what np.linalg.inv gives at a
    small part of its cost; a zero flow gives inf without a warning, which
    the condition check of simulate_variational rejects. For m > 1 it is
    np.linalg.inv, which raises LinAlgError on an exactly singular matrix.
    """
    if flow.shape[-1] == 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / flow
    return np.linalg.inv(flow)


def flow_identity_residual(flow: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Per path, the max-norm of flow @ inverse minus the identity, for the
    (P, m, m) flow matrices of one node and their inverses."""
    eye = np.eye(flow.shape[-1])
    return np.abs(np.einsum("pab,pbc->pac", flow, inverse) - eye).max(axis=(1, 2))


def dump_ensemble(ensemble: PathEnsemble, path) -> None:
    """Binary dump: magic 'QGB3', little-endian u64 header (m, d, N, P, seed),
    then little-endian float64 times and states node by node (N+1 blocks of
    P x m), so only a path-major array is copied before writing."""
    n = ensemble.partition.n_steps
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, ensemble.m, ensemble.d, n,
                              ensemble.n_paths, ensemble.seed % 2 ** 64))
        for a in (ensemble.partition.times, ensemble.states.swapaxes(0, 1)):
            fh.write(np.ascontiguousarray(a, dtype="<f8").data)


def load_ensemble(path) -> PathEnsemble:
    """Read a dump_ensemble file in place into time-major arrays, once its
    header agrees with the file size; a non-finite state is rejected."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size or head[:4] != _MAGIC:
            raise InvalidParameters(f"not a {_MAGIC.decode()} ensemble file "
                                    f"({size} bytes, magic {head[:4]!r})")
        m, d, n, p, seed = _HEADER.unpack(head)[1:]
        if d != m:
            raise InvalidParameters(f"ensemble file has d = {d} but m = {m}")
        expect = _HEADER.size + 8 * ((n + 1) + (n + 1) * p * m)
        if size != expect:
            raise InvalidParameters(f"ensemble file has {size} bytes, its header {expect}")
        times = np.empty(n + 1)
        states = empty_time_major(n + 1, p, (m,))
        for a in (times, states.swapaxes(0, 1)):
            if fh.readinto(a.data) != a.nbytes:
                raise InvalidParameters("ensemble file truncated while reading")
            if not np.little_endian:
                a.byteswap(inplace=True)
    for i in range(n + 1):  # one node row at a time: no full-size mask
        row = states[:, i]
        if not np.isfinite(row).all():
            raise InvalidParameters(f"ensemble file has a non-finite state at node {i}, "
                                    f"path {_first_bad_path(row)}")
    return PathEnsemble(partition=Partition(times), seed=int(seed), states=states)
