"""Least-squares conditional expectation estimators.

Two basis families:

- global_polynomial: multivariate monomials up to a total degree, evaluated
  on coordinates affinely rescaled to [-1, 1] using the step bounds (raw
  monomials on unscaled data condition terribly).
- local_partition: hypercube cells over the step bounds, constant or affine
  fit per cell. Points outside the bounds land in the nearest edge cell.

Bounds are per-step empirical quantiles of the state. Normal equations
get a ridge of ridge_scale * trace; the unridged condition number is checked
against condition_cap. For the global basis a cap violation raises
DegenerateRegression (the whole step is unusable); for the local basis a bad
or underpopulated cell falls back to the cell mean (and an empty cell to the
global mean), and only a step where every cell failed raises.

The projection at one step is a fixed linear operator of the state sample.
step_design builds what depends on the state alone (bounds, features or cell
index, normal matrices, the condition check) once; project applies it to any
number of target columns.

All reductions run over fixed-size path blocks combined in a fixed pairwise
tree, so results do not depend on how work is scheduled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRegression, InvalidParameters

_BLOCK = 65536
_SPREAD_ATOL = 1e-12


@dataclass(frozen=True)
class RegressionBasis:
    kind: str = "local_partition"
    degree: int = 1
    cells_per_dim: int = 50
    lower_quantile: float = 0.001
    upper_quantile: float = 0.999
    ridge_scale: float = 1e-10
    condition_cap: float = 1e12

    def __post_init__(self):
        if self.kind not in ("local_partition", "global_polynomial"):
            raise InvalidParameters(f"unknown basis kind {self.kind!r}")
        if self.degree < 0:
            raise InvalidParameters(f"degree must be >= 0, got {self.degree}")
        if self.kind == "local_partition" and self.degree > 1:
            raise InvalidParameters(
                f"local_partition supports degree 0 or 1, got {self.degree}")
        if self.cells_per_dim < 1:
            raise InvalidParameters(f"cells_per_dim must be >= 1, got {self.cells_per_dim}")
        if not 0.0 <= self.lower_quantile < self.upper_quantile <= 1.0:
            raise InvalidParameters("quantiles must satisfy 0 <= lo < hi <= 1")

    def describe(self) -> str:
        if self.kind == "global_polynomial":
            return f"global_polynomial(degree={self.degree})"
        return f"local_partition(cells={self.cells_per_dim}, degree={self.degree})"


@dataclass
class FitInfo:
    condition: float
    residual_rms: np.ndarray
    n_features: int
    fallback_cells: int = 0
    degenerate: bool = False


def _tree_sum(parts):
    """Sum a list of equally-shaped arrays in a fixed pairwise order."""
    parts = list(parts)
    if not parts:
        raise InvalidParameters("nothing to sum")
    while len(parts) > 1:
        nxt = [parts[i] + parts[i + 1] if i + 1 < len(parts) else parts[i]
               for i in range(0, len(parts), 2)]
        parts = nxt
    return parts[0]


def _blocked_crossprod(a, b):
    """a.T @ b summed over fixed-size path blocks in a fixed pairwise tree."""
    spans = [(p, min(p + _BLOCK, a.shape[0])) for p in range(0, a.shape[0], _BLOCK)]
    return _tree_sum([a[p:q].T @ b[p:q] for p, q in spans])


def step_bounds(basis: RegressionBasis, x: np.ndarray) -> np.ndarray:
    """Per-dimension (lo, hi) bounds: the basis's empirical quantiles of x."""
    q = np.quantile(x, [basis.lower_quantile, basis.upper_quantile], axis=0)
    return q.T.copy()


def _monomial_powers(m, degree):
    pows = [e for e in itertools.product(range(degree + 1), repeat=m)
            if sum(e) <= degree]
    pows.sort(key=lambda e: (sum(e), e))
    return pows


@dataclass(frozen=True)
class StepDesign:
    """The part of the least-squares projection at one step that depends only
    on the state sample, built once by step_design and applied to any number
    of target columns by project.

    kind is "constant" for a state without spread, else the basis kind.
    Global basis: features (P, F) and the ridged normal matrix (F, F).
    Local basis: cell index (P,) and counts (n_cells,); for degree 1 also the
    cell-local coordinates (P, m), the usable-cell mask and the ridged normal
    matrices of the usable cells (n_usable, 1 + m, 1 + m).
    """

    basis: RegressionBasis
    kind: str
    step: int | None
    n_paths: int
    condition: float
    n_features: int
    fallback_cells: int = 0
    bounds: np.ndarray | None = None
    features: np.ndarray | None = None
    normal: np.ndarray | None = None
    cell: np.ndarray | None = None
    counts: np.ndarray | None = None
    coords: np.ndarray | None = None
    usable: np.ndarray | None = None


def _global_design(basis, x, step):
    bounds = step_bounds(basis, x)
    mid = 0.5 * (bounds[:, 0] + bounds[:, 1])
    half = 0.5 * (bounds[:, 1] - bounds[:, 0])
    u = (x - mid) / half
    # upow[p] = u ** p by repeated products; np.power is ~50x slower
    upow = [np.ones_like(u)]
    for _ in range(basis.degree):
        upow.append(upow[-1] * u)
    pows = _monomial_powers(x.shape[1], basis.degree)
    phi = np.empty((x.shape[0], len(pows)))
    for j, e in enumerate(pows):
        col = upow[e[0]][:, 0]
        for dim in range(1, x.shape[1]):
            col = col * upow[e[dim]][:, dim]
        phi[:, j] = col
    G = _blocked_crossprod(phi, phi)
    eig = np.linalg.eigvalsh(G)
    cond = np.inf if eig[0] <= 0 else float(eig[-1] / eig[0])
    if cond > basis.condition_cap:
        raise DegenerateRegression(
            f"normal matrix condition {cond:.3e} exceeds cap {basis.condition_cap:.3e} "
            f"for {basis.describe()}", step=step)
    lam = basis.ridge_scale * float(np.trace(G))
    return StepDesign(basis=basis, kind=basis.kind, step=step, n_paths=x.shape[0],
                      condition=cond, n_features=len(pows), bounds=bounds,
                      features=phi, normal=G + lam * np.eye(G.shape[0]))


def _local_design(basis, x, step):
    P, m = x.shape
    nc = basis.cells_per_dim
    bounds = step_bounds(basis, x)
    width = (bounds[:, 1] - bounds[:, 0]) / nc
    idx = np.clip(((x - bounds[:, 0]) / width).astype(np.int64), 0, nc - 1)
    flat = idx[:, 0]
    for dim in range(1, m):
        flat = flat * nc + idx[:, dim]
    n_cells = nc ** m
    counts = np.bincount(flat, minlength=n_cells)
    common = dict(basis=basis, kind=basis.kind, step=step, n_paths=P,
                  bounds=bounds, cell=flat, counts=counts)
    if basis.degree == 0:
        return StepDesign(condition=1.0, n_features=n_cells,
                          fallback_cells=int((counts == 0).sum()), **common)

    centers = bounds[:, 0] + width * (np.stack(
        np.meshgrid(*[np.arange(nc)] * m, indexing="ij"), axis=-1)
        .reshape(n_cells, m) + 0.5)
    u = (x - centers[flat]) / (0.5 * width)  # cell-local coordinates in [-1, 1]
    nf = 1 + m
    G = np.zeros((n_cells, nf, nf))
    G[:, 0, 0] = counts
    for a in range(m):
        sa = np.bincount(flat, weights=u[:, a], minlength=n_cells)
        G[:, 0, a + 1] = G[:, a + 1, 0] = sa
        for b2 in range(a, m):
            sab = np.bincount(flat, weights=u[:, a] * u[:, b2], minlength=n_cells)
            G[:, a + 1, b2 + 1] = G[:, b2 + 1, a + 1] = sab
    eig = np.linalg.eigvalsh(G)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(eig[:, 0] > 0, eig[:, -1] / np.maximum(eig[:, 0], 1e-300), np.inf)
    usable = (counts >= nf + 1) & (cond <= basis.condition_cap)
    if not usable.any():
        raise DegenerateRegression(
            f"every cell of {basis.describe()} fell back at this step", step=step)
    Gu = G[usable]
    lam = basis.ridge_scale * np.trace(Gu, axis1=1, axis2=2)
    finite_cond = cond[np.isfinite(cond)]
    return StepDesign(condition=float(finite_cond.max()) if finite_cond.size else np.inf,
                      n_features=n_cells * nf,
                      fallback_cells=int((~usable).sum()),
                      coords=u, usable=usable,
                      normal=Gu + lam[:, None, None] * np.eye(nf), **common)


def step_design(basis: RegressionBasis, x: np.ndarray,
                step: int | None = None) -> StepDesign:
    """Everything the projection on the state x needs before it sees a target.

    A state with (numerically) no spread in any dimension gets the constant
    design, whose projection is the plain mean: the correct conditional
    expectation at a deterministic node such as t = 0.
    """
    # one contiguous copy: callers pass a time slice of the (P, N+1, m) states
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidParameters(f"x must be (P, m), got {x.shape}")
    spread = x.max(axis=0) - x.min(axis=0)
    scale = np.maximum(1.0, np.abs(x).max(axis=0))
    if np.all(spread <= _SPREAD_ATOL * scale):
        return StepDesign(basis=basis, kind="constant", step=step,
                          n_paths=x.shape[0], condition=1.0, n_features=1)
    if basis.kind == "global_polynomial":
        return _global_design(basis, x, step)
    return _local_design(basis, x, step)


def _project_local(design, targets):
    cell, counts, u = design.cell, design.counts, design.coords
    n_cells, k = counts.size, targets.shape[1]
    if design.basis.degree == 0:
        sums = np.stack([np.bincount(cell, weights=targets[:, j], minlength=n_cells)
                         for j in range(k)], axis=1)
        means = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None],
                         targets.mean(axis=0))
        return means[cell]
    m = u.shape[1]
    R = np.zeros((n_cells, 1 + m, k))
    for j in range(k):
        R[:, 0, j] = np.bincount(cell, weights=targets[:, j], minlength=n_cells)
        for a in range(m):
            R[:, a + 1, j] = np.bincount(cell, weights=u[:, a] * targets[:, j],
                                         minlength=n_cells)
    usable = design.usable
    coefs = np.zeros((n_cells, 1 + m, k))
    coefs[usable] = np.linalg.solve(design.normal, R[usable])
    # underpopulated or ill-conditioned cells keep the cell mean; empty cells
    # fall back to the global mean so off-sample queries stay defined
    fallback = ~usable & (counts > 0)
    coefs[fallback, 0, :] = R[fallback, 0, :] / counts[fallback, None]
    coefs[counts == 0, 0, :] = targets.mean(axis=0)
    return coefs[cell, 0, :] + np.einsum("pa,pak->pk", u, coefs[cell, 1:, :])


def project(design: StepDesign, targets: np.ndarray):
    """Fit every target column on the design's state; returns (fitted, FitInfo).

    fitted[p, j] estimates E[targets[., j] | x_p]. Each column is fitted on
    its own, so a (P, k) projection equals k single-column ones up to
    rounding, and equal columns get equal fits.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2 or targets.shape[0] != design.n_paths:
        raise InvalidParameters(
            f"targets must be ({design.n_paths}, k), got {targets.shape}")
    if design.kind == "constant":
        fitted = np.broadcast_to(targets.mean(axis=0), targets.shape).copy()
    elif design.kind == "global_polynomial":
        beta = np.linalg.solve(design.normal,
                               _blocked_crossprod(design.features, targets))
        fitted = design.features @ beta
    else:
        fitted = _project_local(design, targets)
    r = targets - fitted
    resid = np.sqrt(np.einsum("pk,pk->k", r, r) / design.n_paths)
    return fitted, FitInfo(condition=design.condition, residual_rms=resid,
                           n_features=design.n_features,
                           fallback_cells=design.fallback_cells,
                           degenerate=design.kind == "constant")

