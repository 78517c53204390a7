"""Least-squares conditional expectation estimators.

Two basis families:

- global_polynomial: multivariate monomials up to a total degree, evaluated
  on coordinates affinely rescaled to [-1, 1] using the step bounds (raw
  monomials on unscaled data condition terribly).
- local_partition: hypercube cells over the step bounds, constant or affine
  fit per cell. Points outside the bounds land in the nearest edge cell.

Bounds are the per-step empirical QUANTILES (0.001, 0.999) of the state,
taken from one sort per dimension with numpy's linear method, so they equal
np.quantile's bit for bit. A dimension whose bounds have zero width (a
constant coordinate beside a spread one, or a point mass holding more than
the quantile level) raises DegenerateRegression. Normal equations get a
ridge of RIDGE_SCALE = 1e-10 times their trace; the unridged condition
number is checked against CONDITION_CAP = 1e12. For the global basis a cap
violation raises DegenerateRegression (the whole step is unusable); for the
local basis a bad or underpopulated cell falls back to the cell mean, and
only a step where every cell failed raises. An empty cell holds no path, so
no fit reads it.

The projection at one step is a fixed linear operator of the state sample.
step_design builds what depends on the state alone (bounds, features or cell
index, the normal matrix or each cell's fit, the condition check) once;
project applies it to any number of target columns. Global features are
stored feature-major, one contiguous row of P values per monomial, so the
normal matrix, the right-hand sides and the fit all stream along contiguous
rows; a cell fit takes one contiguous target column at a time, maps its
moment sums through each cell's fit and gathers each coefficient per path
from one contiguous row.
The design is the only record of the step: project returns the fitted values
and what only the fit knows, the residual RMS of every target column.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRegression, InvalidParameters

_SPREAD_ATOL = 1e-12
QUANTILES = (0.001, 0.999)
RIDGE_SCALE = 1e-10
CONDITION_CAP = 1e12


@dataclass(frozen=True)
class RegressionBasis:
    kind: str = "local_partition"
    degree: int = 1
    cells_per_dim: int = 50

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

    def describe(self) -> str:
        if self.kind == "global_polynomial":
            return f"global_polynomial(degree={self.degree})"
        return f"local_partition(cells={self.cells_per_dim}, degree={self.degree})"


def step_bounds(x: np.ndarray) -> np.ndarray:
    """Per-dimension (lo, hi) bounds: the empirical QUANTILES of the finite
    sample x (P, m), as an (m, 2) array.

    One sort per dimension, then np.quantile's linear method: virtual index
    (P - 1) q, its floor and the fraction gamma, and the two-sided lerp
    that runs from the upper neighbour when gamma >= 0.5. The result equals
    np.quantile(x, QUANTILES, axis=0).T bit for bit.
    """
    n = x.shape[0]
    virtual = (n - 1) * np.array(QUANTILES)
    below = np.floor(virtual)
    gamma = virtual - below
    i = below.astype(np.intp)
    j = np.minimum(i + 1, n - 1)
    bounds = np.empty((x.shape[1], 2))
    for dim in range(x.shape[1]):
        xs = np.sort(x[:, dim])
        a, b = xs[i], xs[j]
        diff = b - a
        bounds[dim] = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    return bounds


def _monomial_powers(m, degree):
    pows = [e for e in itertools.product(range(degree + 1), repeat=m)
            if sum(e) <= degree]
    pows.sort(key=lambda e: (sum(e), e))
    return pows


@functools.lru_cache(maxsize=None)
def _global_plan(m, degree):
    """How _global_design fills its features and its normal matrix.

    ladder[r - 1] = (lower, dim) for each feature row r >= 1: monomial r is
    monomial lower times coordinate dim, its first nonzero one. gram lists,
    per distinct product monomial, one pair (a, b) of rows whose product it
    is and the index arrays of every normal-matrix entry equal to it.
    """
    pows = _monomial_powers(m, degree)
    index = {e: r for r, e in enumerate(pows)}
    ladder = []
    for e in pows[1:]:
        dim = next(a for a, p in enumerate(e) if p)
        ladder.append((index[tuple(p - (a == dim) for a, p in enumerate(e))], dim))
    entries = {}
    for a, ea in enumerate(pows):
        for b, eb in enumerate(pows):
            entries.setdefault(tuple(map(sum, zip(ea, eb))), []).append((a, b))
    gram = tuple((*pairs[0], tuple(np.array(pairs).T)) for pairs in entries.values())
    return len(pows), tuple(ladder), gram


@dataclass(frozen=True, eq=False)
class StepDesign:
    """The part of the least-squares projection at one step that depends only
    on the state sample, built once by step_design and applied to any number
    of target columns by project.

    kind is "constant" for a state without spread, else the basis kind.
    condition is the largest unridged condition number of a normal matrix
    the fit uses (1 for the constant design and the local degree-0 basis),
    and fallback_cells counts the local cells without a full fit: every
    empty cell, and at degree 1 every underpopulated or ill-conditioned
    cell, which keeps its own mean.
    Global basis: features (F, P), feature-major and C-contiguous, one row
    per monomial, and the ridged normal matrix (F, F).
    Local basis: cell index (P,) and each cell's fit, inverse (n_cells, nf,
    nf) with nf = 1 + m * degree, the map from the cell's moment sums to its
    coefficients: the inverse of the ridged normal matrix for a cell with a
    full fit, 1 / count in the corner for a cell mean, zeros for an empty
    cell. For degree 1 also the cell-local coordinates (m, P), one
    contiguous row per coordinate.
    """

    basis: RegressionBasis
    kind: str
    n_paths: int
    condition: float
    fallback_cells: int = 0
    bounds: np.ndarray | None = None
    features: np.ndarray | None = None
    normal: np.ndarray | None = None
    cell: np.ndarray | None = None
    inverse: np.ndarray | None = None
    coords: np.ndarray | None = None


def _global_design(basis, x, bounds, step):
    P, m = x.shape
    mid = 0.5 * (bounds[:, 0] + bounds[:, 1])
    half = 0.5 * (bounds[:, 1] - bounds[:, 0])
    u = ((x - mid) / half).T.copy()  # (m, P): one contiguous row per coordinate
    n_features, ladder, gram = _global_plan(m, basis.degree)
    # each row a lower row times one coordinate, so at m = 1 row p is u ** p
    # by repeated products; np.power is ~50x slower
    phi = np.empty((n_features, P))
    phi[0] = 1.0
    for row, (lower, dim) in enumerate(ladder, start=1):
        np.multiply(phi[lower], u[dim], out=phi[row])
    # one dot per distinct product monomial fills every entry equal to it, so
    # G is exactly symmetric
    G = np.empty((n_features, n_features))
    for a, b, entries in gram:
        G[entries] = np.dot(phi[a], phi[b])
    eig = np.linalg.eigvalsh(G)
    cond = np.inf if eig[0] <= 0 else float(eig[-1] / eig[0])
    if cond > CONDITION_CAP:
        raise DegenerateRegression(
            f"normal matrix condition {cond:.3e} exceeds cap {CONDITION_CAP:.3e} "
            f"for {basis.describe()}", step=step)
    lam = RIDGE_SCALE * float(np.trace(G))
    return StepDesign(basis=basis, kind=basis.kind, n_paths=P, condition=cond,
                      bounds=bounds, features=phi,
                      normal=G + lam * np.eye(G.shape[0]))


def _local_design(basis, x, bounds, step):
    P, m = x.shape
    nc = basis.cells_per_dim
    width = (bounds[:, 1] - bounds[:, 0]) / nc
    # position in cell widths, (m, P): its integer part is the cell, its
    # fraction the cell-local coordinate
    f = (x.T - bounds[:, :1]) / width[:, None]
    idx = np.clip(f.astype(np.int64), 0, nc - 1)
    flat = idx[0]
    for dim in range(1, m):
        flat = flat * nc + idx[dim]
    n_cells = nc ** m
    counts = np.bincount(flat, minlength=n_cells)
    nf = 1 + m * basis.degree
    # each cell's fit as a map of its moment sums: 1 / count in the corner
    # is the cell mean, zeros leave an empty cell (which no path reads) at 0
    inverse = np.zeros((n_cells, nf, nf))
    filled = counts > 0
    inverse[filled, 0, 0] = 1.0 / counts[filled]
    common = dict(basis=basis, kind=basis.kind, n_paths=P, bounds=bounds,
                  cell=flat, inverse=inverse)
    if basis.degree == 0:
        return StepDesign(condition=1.0, fallback_cells=int((~filled).sum()), **common)

    # cell-local coordinates in [-1, 1], beyond it in the clipped edge cells
    u = 2.0 * (f - idx) - 1.0
    G = np.zeros((n_cells, nf, nf))
    G[:, 0, 0] = counts
    for a in range(m):
        sa = np.bincount(flat, weights=u[a], minlength=n_cells)
        G[:, 0, a + 1] = G[:, a + 1, 0] = sa
        for b2 in range(a, m):
            sab = np.bincount(flat, weights=u[a] * u[b2], minlength=n_cells)
            G[:, a + 1, b2 + 1] = G[:, b2 + 1, a + 1] = sab
    eig = np.linalg.eigvalsh(G)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(eig[:, 0] > 0, eig[:, -1] / np.maximum(eig[:, 0], 1e-300), np.inf)
    # an underpopulated or ill-conditioned cell keeps its mean
    usable = (counts >= nf + 1) & (cond <= CONDITION_CAP)
    if not usable.any():
        raise DegenerateRegression(
            f"every cell of {basis.describe()} fell back at this step", step=step)
    Gu = G[usable]
    lam = RIDGE_SCALE * np.trace(Gu, axis1=1, axis2=2)
    inverse[usable] = np.linalg.inv(Gu + lam[:, None, None] * np.eye(nf))
    return StepDesign(condition=float(cond[usable].max()),
                      fallback_cells=int((~usable).sum()), coords=u, **common)


def step_design(basis: RegressionBasis, x: np.ndarray,
                step: int | None = None) -> StepDesign:
    """Everything the projection on the state x needs before it sees a target.

    A state with (numerically) no spread in any dimension gets the constant
    design, whose projection is the plain mean: the correct conditional
    expectation at a deterministic node such as t = 0. A state with spread
    whose bounds have zero width in some dimension raises
    DegenerateRegression naming that dimension.
    """
    # one contiguous copy: callers pass a time slice of the (P, N+1, m) states
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidParameters(f"x must be (P, m), got {x.shape}")
    spread = x.max(axis=0) - x.min(axis=0)
    scale = np.maximum(1.0, np.abs(x).max(axis=0))
    if np.all(spread <= _SPREAD_ATOL * scale):
        return StepDesign(basis=basis, kind="constant", n_paths=x.shape[0],
                          condition=1.0)
    bounds = step_bounds(x)
    for dim, (lo, hi) in enumerate(bounds):
        if hi == lo:
            raise DegenerateRegression(
                f"bounds of dimension {dim} have zero width (both at {float(lo)!r}) "
                f"for {basis.describe()}", step=step)
    if basis.kind == "global_polynomial":
        return _global_design(basis, x, bounds, step)
    return _local_design(basis, x, bounds, step)


def _project_local(design, targets):
    """The cell fit of each target column, one contiguous column at a time:
    bincount would copy a strided column on each of its calls. Each cell's
    coefficients are its map applied to its moment sums, and each
    coefficient is gathered per path from one contiguous row."""
    cell, u, inverse = design.cell, design.coords, design.inverse
    n_cells, nf = inverse.shape[:2]
    fitted = np.empty(targets.shape)
    sums = np.empty((nf, n_cells))
    for j in range(targets.shape[1]):
        t = np.ascontiguousarray(targets[:, j])
        sums[0] = np.bincount(cell, weights=t, minlength=n_cells)
        for a in range(1, nf):
            sums[a] = np.bincount(cell, weights=u[a - 1] * t, minlength=n_cells)
        coef = np.einsum("cab,bc->ac", inverse, sums, order="C")
        fit = np.take(coef[0], cell)
        for a in range(1, nf):
            fit += np.take(coef[a], cell) * u[a - 1]
        fitted[:, j] = fit
    return fitted


def project(design: StepDesign, targets: np.ndarray):
    """Fit every target column on the design's state; returns (fitted,
    residual_rms).

    fitted[p, j] estimates E[targets[., j] | x_p], and residual_rms[j] is the
    root mean square of targets[:, j] - fitted[:, j]. Each column is fitted
    on its own, so a (P, k) projection equals k single-column ones up to
    rounding, and equal columns get equal fits.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2 or targets.shape[0] != design.n_paths:
        raise InvalidParameters(
            f"targets must be ({design.n_paths}, k), got {targets.shape}")
    if design.kind == "constant":
        fitted = np.broadcast_to(targets.mean(axis=0), targets.shape).copy()
    elif design.kind == "global_polynomial":
        beta = np.linalg.solve(design.normal, design.features @ targets)
        fitted = design.features.T @ beta
    else:
        fitted = _project_local(design, targets)
    r = targets - fitted
    return fitted, np.sqrt(np.einsum("pk,pk->k", r, r) / design.n_paths)

