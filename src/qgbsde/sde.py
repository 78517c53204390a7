"""Forward Euler simulation, first variation flow, and the time-major ensemble file.

The flow is stored; its inverse is not. flow_inverse inverts the flow
matrices of one node when a check needs them: simulate_variational's, node
by node, and the representation residual's (variational). For m = 1 the
inverse is the reciprocal, bit for bit what np.linalg.inv gives.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameters, NumericalBlowup, SingularFlow
from .model import ModelSpec, Partition, empty_time_major
from .rng import _run_blocks, normal_increments

_MAGIC = b"QGB2"
_HEADER = struct.Struct("<4s5Q")  # magic, then m, d, N, P, seed
# simulate_variational's caps on the flow's condition bound and on its
# inverse's identity residual
FLOW_CONDITION_CAP = 1e12
FLOW_TOL = 1e-8


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated increments and states on a fixed grid.

    increments: (P, N, d) Brownian increments (already scaled by sqrt(dt_i))
    states:     (P, N+1, m) Euler states, states[:, 0] == x0
    flows:      (P, N+1, m, m) first-variation flow, when simulate_variational ran
    flow_residual: the largest flow_identity_residual of those flows, as
                   simulate_variational measured it for its check

    Arrays are indexed path first but stored time-major, in memory as in the
    ensemble file (time is the slowest axis, see model.empty_time_major), so
    the per-node slice states[:, i] is contiguous. Path-major arrays built by
    hand are accepted as well; only the speed of the per-node access differs.
    """

    partition: Partition
    seed: int
    increments: np.ndarray
    states: np.ndarray
    flows: np.ndarray | None = None
    flow_residual: float | None = None

    def __post_init__(self):
        n = self.partition.n_steps
        if self.increments.ndim != 3 or self.increments.shape[1] != n:
            raise InvalidParameters(
                f"increments must be (P, {n}, d), got {self.increments.shape}")
        if self.states.ndim != 3 or self.states.shape[1] != n + 1:
            raise InvalidParameters(
                f"states must be (P, {n + 1}, m), got {self.states.shape}")
        if self.states.shape[0] != self.increments.shape[0]:
            raise InvalidParameters("states and increments disagree on path count")

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def m(self) -> int:
        return self.states.shape[2]

    @property
    def d(self) -> int:
        return self.increments.shape[2]


def _euler_block(model, times, dW, X, a, b):
    for i in range(times.size - 1):
        dt = times[i + 1] - times[i]
        t = times[i]
        xi = X[a:b, i]
        # overflow surfaces as the NumericalBlowup below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            drift = model.b(t, xi)
            diff = model.sigma(t, xi)
            nxt = xi + drift * dt + np.einsum("pmd,pd->pm", diff, dW[a:b, i])
        bad = ~np.isfinite(nxt).all(axis=1)
        if bad.any():
            raise NumericalBlowup("non-finite state in forward Euler",
                                  step=i, path=a + int(np.argmax(bad)))
        X[a:b, i + 1] = nxt


def simulate_forward(model: ModelSpec, partition: Partition, n_paths: int,
                     seed: int, workers: int = 1) -> PathEnsemble:
    """Left-point Euler scheme for the forward equation.

    Output is bit-identical for any workers value: increments come from the
    counter-based generator and path blocks write disjoint slices.
    """
    if n_paths < 1:
        raise InvalidParameters(f"n_paths must be positive, got {n_paths}")
    times = partition.times
    n, m, d = partition.n_steps, model.m, model.d
    dW = normal_increments(seed, n_paths, n, d, workers=workers)
    dW *= np.sqrt(partition.dt)[None, :, None]

    X = empty_time_major(n + 1, n_paths, (m,))
    X[:, 0] = model.x0
    _run_blocks(lambda p, q: _euler_block(model, times, dW, X, p, q), n_paths, workers)
    return PathEnsemble(partition=partition, seed=int(seed), increments=dW, states=X)


def simulate_variational(model: ModelSpec, ensemble: PathEnsemble) -> PathEnsemble:
    """Attach the first-variation flow to an ensemble.

    Needs the model's b_jac and sigma_jac. The flow is inverted node by node
    (flow_inverse) for two checks: the condition bound is capped at
    FLOW_CONDITION_CAP and the identity residual (flow_identity_residual)
    at FLOW_TOL. Either failure raises SingularFlow with the first failing
    node as its step and that node's worst path. The largest residual is
    handed on as flow_residual; the inverses are not kept.
    """
    model.require("b_jac", "sigma_jac")
    times = ensemble.partition.times
    X, dW = ensemble.states, ensemble.increments
    P, m = X.shape[0], model.m
    n = times.size - 1

    F = empty_time_major(n + 1, P, (m, m))
    F[:, 0] = np.eye(m)
    for i in range(n):
        dt = times[i + 1] - times[i]
        Fi = F[:, i]
        # overflow surfaces as the NumericalBlowup below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            B = model.b_jac(times[i], X[:, i])
            S = model.sigma_jac(times[i], X[:, i])
            F[:, i + 1] = (Fi + np.einsum("pab,pbc->pac", B, Fi) * dt
                           + np.einsum("pjab,pbc,pj->pac", S, Fi, dW[:, i]))
        bad = ~np.isfinite(F[:, i + 1]).all(axis=(1, 2))
        if bad.any():
            raise NumericalBlowup("non-finite variational flow",
                                  step=i, path=int(np.argmax(bad)))

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
    return replace(ensemble, flows=F, flow_residual=resid)


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
    """Binary dump: magic 'QGB2', little-endian u64 header (m, d, N, P, seed),
    then little-endian float64 times, increments node by node (N blocks of
    P x d) and states node by node (N+1 blocks of P x m): the time-major
    storage order, so only a path-major array is copied before writing."""
    n = ensemble.partition.n_steps
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, ensemble.m, ensemble.d, n,
                              ensemble.n_paths, ensemble.seed % 2 ** 64))
        for a in (ensemble.partition.times, ensemble.increments.swapaxes(0, 1),
                  ensemble.states.swapaxes(0, 1)):
            fh.write(np.ascontiguousarray(a, dtype="<f8").data)


def load_ensemble(path) -> PathEnsemble:
    """Read a dump_ensemble file in place into time-major arrays, once its
    header agrees with the file size."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size or head[:4] != _MAGIC:
            raise InvalidParameters(f"not a {_MAGIC.decode()} ensemble file "
                                    f"({size} bytes, magic {head[:4]!r})")
        m, d, n, p, seed = _HEADER.unpack(head)[1:]
        expect = _HEADER.size + 8 * ((n + 1) + p * n * d + p * (n + 1) * m)
        if size != expect:
            raise InvalidParameters(f"ensemble file has {size} bytes, its header {expect}")
        times = np.empty(n + 1)
        inc = empty_time_major(n, p, (d,))
        states = empty_time_major(n + 1, p, (m,))
        for a in (times, inc.swapaxes(0, 1), states.swapaxes(0, 1)):
            if fh.readinto(a.data) != a.nbytes:
                raise InvalidParameters("ensemble file truncated while reading")
            if not np.little_endian:
                a.byteswap(inplace=True)
    return PathEnsemble(partition=Partition(times), seed=int(seed),
                        increments=inc, states=states)
