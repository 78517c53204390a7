"""Forward Euler simulation, first variation flow, and the time-major ensemble file.

Paths carry their states only: euler_increment derives each Brownian
increment from the Euler step, once per node of a pass.

simulate_variational checks the first-variation flow in one forward pass
and serves it one node at a time, last node first, rebuilding each segment
from a checkpoint kept every ceil(sqrt(N + 1)) nodes; neither the whole
flow nor its inverse is stored. A step whose Jacobians vanish on every path
hands the flow on as it is, so on an additive-noise model (b_jac and
sigma_jac zero) the flow is one identity array, served at every node and
checked once, and no increment is derived for it. Served rows may thus be
one array shared by several nodes, and must not be written to.
flow_inverse inverts the flow matrices of one node when a check needs
them: simulate_variational's, node by node, and the representation
residual's (variational). For m = 1 the inverse is the reciprocal, bit for
bit what np.linalg.inv gives.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterator
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


@dataclass(frozen=True, eq=False)
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

    def window(self, model: ModelSpec, i) -> tuple[list[np.ndarray], np.ndarray]:
        """Step i's increments (P, d) and their sum: here ([dw], dw), see
        euler_increment; a coarsened ensemble gives its window's fine ones."""
        dw = euler_increment(model, self.partition.times, i, self.states[:, i],
                             self.states[:, i + 1])
        return [dw], dw

    def increment(self, model: ModelSpec, i) -> np.ndarray:
        """Step i's Brownian increment (P, d), the sum of its window."""
        return self.window(model, i)[1]


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
                         ensemble: PathEnsemble) -> tuple[Iterator[np.ndarray], float]:
    """The first-variation flow of an ensemble's paths, served one node at a
    time from the last node to the first, and the largest identity residual
    of its inverses.

    Needs the model's b_jac and sigma_jac. One forward pass steps the flow
    (_flow_step) and checks it node by node, so the first failing node in
    forward order raises: at node i the flow is inverted (flow_inverse), its
    condition bound capped at FLOW_CONDITION_CAP and its identity residual
    (flow_identity_residual) at FLOW_TOL, either failure a SingularFlow with
    step i and that node's worst path; then step i, whose non-finite flow
    raises NumericalBlowup with step i and its first path. A node whose flow
    is the previous node's array, handed on by a step with zero Jacobians,
    is not checked again: it passed already. The largest residual is
    returned as measured for the check; the inverses are not kept.

    The pass keeps the flow only at every s-th node, s = ceil(sqrt(N + 1)),
    and the iterator yields F_N, F_{N-1}, ..., F_0, each (P, m, m) and
    contiguous: it rebuilds one segment of at most s nodes at a time from
    its checkpoint, on the same one-step kernel, so each served node is bit
    for bit the one the pass checked. So at most ceil((N + 1) / s) + s node
    rows are held, not N + 1, at the cost of one more pass of increments and
    flow steps where the flow moves. Where it does not, every checkpoint and
    served row is one array, so no caller may write to a served row. The
    iterator refers to the ensemble and the checkpoints until it is dropped.
    """
    model.require("b_jac", "sigma_jac")
    n = ensemble.partition.n_steps
    s = 1 + math.isqrt(n)  # ceil(sqrt(N + 1))
    flow = np.tile(np.eye(model.m), (ensemble.n_paths, 1, 1))
    checkpoints, resid, checked = [], 0.0, None
    for i in range(n + 1):
        if i % s == 0:
            checkpoints.append(flow)
        if flow is not checked:  # an unchanged flow passed at an earlier node
            resid, checked = max(resid, _checked_residual(flow, i)), flow
        if i < n:
            flow = _flow_step(model, ensemble, i, flow)
    return _served(model, ensemble, checkpoints, s), resid


def _flow_step(model: ModelSpec, ensemble: PathEnsemble, i, flow) -> np.ndarray:
    """The flow at node i + 1 from the flow (P, m, m) at node i, on step i's
    increment; a non-finite result raises NumericalBlowup with step i and
    its first such path. Where b_jac and sigma_jac are zero on every path
    the step is flow + 0, so the flow itself is returned, and no increment
    is derived: callers share it and must not write to it."""
    times, x = ensemble.partition.times, ensemble.states[:, i]
    dt = times[i + 1] - times[i]
    # overflow surfaces as the NumericalBlowup below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        B = model.b_jac(times[i], x)
        S = model.sigma_jac(times[i], x)
        if not (np.any(B) or np.any(S)):
            return flow
        dw = ensemble.increment(model, i)
        nxt = (flow + np.einsum("pab,pbc->pac", B, flow) * dt
               + np.einsum("pjab,pbc,pj->pac", S, flow, dw))
    if not np.isfinite(nxt).all():
        raise NumericalBlowup("non-finite variational flow", step=i,
                              path=_first_bad_path(nxt))
    return nxt


def _checked_residual(flow: np.ndarray, i) -> float:
    """The largest identity residual of the inverse of node i's flow
    (P, m, m), once its condition bound and residual have passed their caps;
    a failure raises SingularFlow with step i and the node's worst path."""
    try:
        inverse = flow_inverse(flow)
    except np.linalg.LinAlgError as exc:
        raise SingularFlow(f"flow matrix is singular: {exc}", step=i) from exc
    # |F|_F |F^-1|_F bounds the 2-norm condition number from above, so the
    # cap is never looser than on the exact condition number; a singular
    # flow gives NaN or inf here, and fails it. Each path's matrices are
    # scaled by their largest entry, which leaves the bound unchanged up to
    # rounding, so that the norms do not overflow on a large but
    # well-conditioned flow
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scale = np.abs(flow).max(axis=(1, 2))[:, None, None]
        cond = (np.linalg.norm(flow / scale, axis=(-2, -1))
                * np.linalg.norm(inverse * scale, axis=(-2, -1)))
        node_resid = flow_identity_residual(flow, inverse)
    if not (cond <= FLOW_CONDITION_CAP).all():
        raise SingularFlow(
            f"flow condition bound {np.fmax.reduce(cond):.3e} exceeds cap "
            f"{FLOW_CONDITION_CAP:.3e}", step=i,
            path=int(np.argmax(np.where(np.isnan(cond), np.inf, cond))))
    worst = float(node_resid.max())
    if worst > FLOW_TOL:
        raise SingularFlow(f"flow inverse identity residual {worst:.3e} > "
                           f"{FLOW_TOL:.3e}", step=i, path=int(np.argmax(node_resid)))
    return worst


def _served(model: ModelSpec, ensemble: PathEnsemble, checkpoints, s):
    """The flows F_N, ..., F_0: the segment of the last checkpoint first,
    each segment rebuilt forward from its checkpoint by _flow_step and then
    yielded backward, so only the checkpoints left and one segment are held.
    Nodes across which the flow does not move are yielded as one array."""
    n = ensemble.partition.n_steps
    while checkpoints:
        first = (len(checkpoints) - 1) * s
        segment = [checkpoints.pop()]
        for i in range(first, min(first + s, n + 1) - 1):
            segment.append(_flow_step(model, ensemble, i, segment[-1]))
        while segment:
            yield segment.pop()


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
