"""Forward Euler simulation, first variation flow, and ensemble (de)serialization."""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import (AssumptionLevelTooLow, InvalidParameters, NumericalBlowup,
                     SingularFlow)
from .model import AssumptionLevel, ModelSpec, Partition
from .rng import normal_increments

_MAGIC = b"QGB1"


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated increments and states on a fixed grid.

    increments: (P, N, d) Brownian increments (already scaled by sqrt(dt_i))
    states:     (P, N+1, m) Euler states, states[:, 0] == x0
    flows / flow_inverses: (P, N+1, m, m) when the variational pass ran
    """

    partition: Partition
    seed: int
    increments: np.ndarray
    states: np.ndarray
    flows: np.ndarray | None = None
    flow_inverses: np.ndarray | None = None

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
    normals = normal_increments(seed, n_paths, n, d, workers=workers)
    dW = normals * np.sqrt(partition.dt)[None, :, None]

    X = np.empty((n_paths, n + 1, m))
    X[:, 0] = model.x0
    edges = list(range(0, n_paths, 32768)) + [n_paths]
    spans = [(p, q) for p, q in zip(edges[:-1], edges[1:])]
    if workers == 1 or len(spans) == 1:
        for p, q in spans:
            _euler_block(model, times, dW, X, p, q)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for fut in [pool.submit(_euler_block, model, times, dW, X, p, q)
                        for p, q in spans]:
                fut.result()
    return PathEnsemble(partition=partition, seed=int(seed), increments=dW, states=X)


def simulate_variational(model: ModelSpec, ensemble: PathEnsemble,
                         inverse_mode: str = "solve", condition_cap: float = 1e12,
                         flow_tol: float = 1e-8) -> PathEnsemble:
    """Attach the first-variation flow and its inverse to an ensemble.

    inverse_mode "solve" inverts each flow matrix directly (default, and the
    mode whose identity residual is certified against flow_tol). Mode "sde"
    integrates the inverse flow equation instead, as an independent
    cross-check; its identity residual is O(mesh) by construction and is not
    gated.
    """
    if model.assumption_level < AssumptionLevel.HX1Y1:
        raise AssumptionLevelTooLow(
            "variational flow needs coefficient Jacobians (level HX1Y1 or higher)")
    if inverse_mode not in ("solve", "sde"):
        raise InvalidParameters(f"unknown inverse_mode {inverse_mode!r}")
    times = ensemble.partition.times
    X, dW = ensemble.states, ensemble.increments
    P, m = X.shape[0], model.m
    n = times.size - 1

    F = np.empty((P, n + 1, m, m))
    F[:, 0] = np.eye(m)
    for i in range(n):
        dt = times[i + 1] - times[i]
        B = model.b_jac(times[i], X[:, i])
        S = model.sigma_jac(times[i], X[:, i])
        Fi = F[:, i]
        F[:, i + 1] = (Fi + np.einsum("pab,pbc->pac", B, Fi) * dt
                       + np.einsum("pjab,pbc,pj->pac", S, Fi, dW[:, i]))
    if not np.isfinite(F[:, n]).all():
        raise NumericalBlowup("non-finite variational flow", step=n - 1)

    if inverse_mode == "solve":
        try:
            G = np.linalg.inv(F)
        except np.linalg.LinAlgError as exc:
            raise SingularFlow(f"flow matrix is singular: {exc}") from exc
        # |F|_F |F^-1|_F bounds the 2-norm condition number from above, so
        # the cap is never looser than on the exact condition number
        with np.errstate(over="ignore", invalid="ignore"):
            cond = (np.linalg.norm(F, axis=(-2, -1))
                    * np.linalg.norm(G, axis=(-2, -1)))
        if not np.isfinite(cond).all() or cond.max() > condition_cap:
            raise SingularFlow(
                f"flow condition bound {np.nanmax(cond):.3e} exceeds cap {condition_cap:.3e}")
        resid = np.abs(np.einsum("piab,pibc->piac", F, G) - np.eye(m)).max()
        if resid > flow_tol:
            raise SingularFlow(f"flow inverse identity residual {resid:.3e} > {flow_tol:.3e}")
    else:
        G = np.empty_like(F)
        G[:, 0] = np.eye(m)
        for i in range(n):
            dt = times[i + 1] - times[i]
            B = model.b_jac(times[i], X[:, i])
            S = model.sigma_jac(times[i], X[:, i])
            Gi = G[:, i]
            SS = np.einsum("pjab,pjbc->pac", S, S)
            G[:, i + 1] = (Gi - np.einsum("pab,pbc->pac", Gi, B) * dt
                           + np.einsum("pab,pbc->pac", Gi, SS) * dt
                           - np.einsum("pab,pjbc,pj->pac", Gi, S, dW[:, i]))
    return replace(ensemble, flows=F, flow_inverses=G)


def flow_identity_residual(ensemble: PathEnsemble) -> float:
    """Max-norm of flow @ flow_inverse minus identity over all paths and nodes."""
    if ensemble.flows is None or ensemble.flow_inverses is None:
        raise InvalidParameters("ensemble carries no flows; run simulate_variational")
    m = ensemble.flows.shape[-1]
    prod = np.einsum("piab,pibc->piac", ensemble.flows, ensemble.flow_inverses)
    return float(np.abs(prod - np.eye(m)).max())


def dump_ensemble(ensemble: PathEnsemble, path) -> None:
    """Binary dump: magic 'QGB1', little-endian u64 header (m, d, N, P, seed),
    then times, increments, states as little-endian float64, row-major."""
    n = ensemble.partition.n_steps
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<5Q", ensemble.m, ensemble.d, n,
                             ensemble.n_paths, ensemble.seed % 2 ** 64))
        fh.write(np.ascontiguousarray(ensemble.partition.times, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ensemble.increments, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ensemble.states, dtype="<f8").tobytes())


def load_ensemble(path) -> PathEnsemble:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise InvalidParameters(f"not an ensemble file (bad magic {blob[:4]!r})")
    m, d, n, p, seed = struct.unpack("<5Q", blob[4:44])
    off = 44
    expect = (n + 1) + p * n * d + p * (n + 1) * m
    data = np.frombuffer(blob, dtype="<f8", offset=off)
    if data.size != expect:
        raise InvalidParameters(
            f"ensemble file truncated: {data.size} floats, expected {expect}")
    times = data[: n + 1].copy()
    a = n + 1
    inc = data[a: a + p * n * d].reshape(p, n, d).copy()
    a += p * n * d
    states = data[a:].reshape(p, n + 1, m).copy()
    return PathEnsemble(partition=Partition(times), seed=int(seed),
                        increments=inc, states=states)
