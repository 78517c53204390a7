"""Empirical statistics for the backward solutions.

Two families of checks live here. The path-regularity statistics compare a
solution on a fine partition with one on its coarsening by a whole factor:
the maximal mean-square Y increment over coarse windows, the
time-integrated L^2 distance between the fine control and three
coarse-grid approximations of it, and the largest mean-square step of the
fine control. regularity_pass restricts the fine ensemble to the coarse
grid (a coarse increment is the forward-order sum of the fine increments
derived in its window) and computes all of them in one backward pass that
walks the coarse solve (solver.backward_walk) and steps the fine one through
each coarse window: each coarse node's regression design serves the coarse
step, the fine step at that node and both coarse fits of the control, and
the fine solution is held one window at a time; a coarse node's design,
increments and Z are released before the next node's design is built. The
window's statistics walk its time-major Y and Z rows one at a time: each
row difference is one subtraction into a buffer allocated once per pass and
one dot, and the window average is one product of the fine steps with the
window's Z rows, so no (P, r, d) temporary is built. diagnose_pass is the
same pass with the remaining checks of the diagnose command taken at each
coarse node on that node's design: the BMO tail estimate, as a backward
running tail sum, and the gradient step and representation residual of
variational, on flows checked before the pass and served to it one node at
a time, last node first, from checkpoints that it alone holds, so that no
result keeps the fine states. Neither the coarse solution nor the tail
sums nor the gradient nor the whole flow are stored. Its result,
Diagnosis, holds one field per diagnose report row; the representation
residual's RMS and max are kept per node.
The truncation sweep solves one quadratic model under a ladder
of truncation levels and a high-level reference in one backward pass and fits
the order of the error decay (and the implied tail exponent). It walks the
reference's row; a level reads it until its clamp or the reference's engages
on the reference's max |Z|, and then steps a row of its own, bit for bit its
own solve. A level's per-path max Y error exists from the step it leaves,
so a level that never leaves holds no array for it. The same pass can
solve one more level that it does not report. Both passes keep their
walked row's health (SolverMeta) as the result's meta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import InvalidParameters, InvalidPoints, QgbsdeError
from .model import ModelSpec, Partition, empty_time_major
from .regression import RegressionBasis, project, step_design
from .sde import PathEnsemble, euler_increment, simulate_variational
from .solver import SolverMeta, _implicit_step, _row_pair, backward_walk
from .truncation import truncate_driver
from .variational import _gradient_step, _representation_node, _terminal_gradient


@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope of log(error) against log(scale)."""
    slope: float
    intercept: float
    r_squared: float


def fit_convergence_order(scales, errors) -> OrderFit:
    s = np.asarray(scales, dtype=np.float64)
    e = np.asarray(errors, dtype=np.float64)
    if s.ndim != 1 or s.shape != e.shape:
        raise InvalidPoints(f"scales and errors must be equal-length 1-d, "
                            f"got {s.shape} and {e.shape}")
    if s.size < 3:
        raise InvalidPoints(f"need at least 3 points to fit an order, got {s.size}")
    if np.any(s <= 0.0) or np.any(e <= 0.0):
        raise InvalidPoints("scales and errors must be strictly positive")
    ls, le = np.log(s), np.log(e)
    ls_c = ls - ls.mean()
    var = float(ls_c @ ls_c)
    if var == 0.0:
        raise InvalidPoints("scales must not all coincide")
    slope = float(ls_c @ (le - le.mean())) / var
    intercept = float(le.mean() - slope * ls.mean())
    resid = le - (slope * ls + intercept)
    sstot = float(((le - le.mean()) ** 2).sum())
    r2 = 1.0 if sstot == 0.0 else 1.0 - float(resid @ resid) / sstot
    return OrderFit(slope=slope, intercept=intercept, r_squared=r2)


@dataclass(frozen=True)
class Regularity:
    """The path-regularity statistics of the nested fine solve of a
    regularity pass, named after their report rows.

    With fine nodes t_j, coarse windows [t_i, t_{i+1}] (closed on the right)
    and i(j) the window of fine step j:

        y_increment_sq     max_i max_{t_j in window i} E (Y_{t_j} - Y_{t_i})^2
        z_regularity_*     E sum_j |Z_{t_j} - Zbar_{i(j)}|^2 dt_j
        z_increment_sq     max_j E |Z_{t_{j+1}} - Z_{t_j}|^2

    where Zbar_i is, for z_regularity_sum, the regression on X_{t_i} of the
    window-averaged fine control; for z_regularity_node, the regression on
    X_{t_i} of the coarse solution's Z_i; for z_regularity_left_endpoint,
    the fine control at t_i itself (a valid but suboptimal competitor, a
    sanity ceiling for the other two).
    """

    y_increment_sq: float
    z_regularity_sum: float
    z_regularity_node: float
    z_regularity_left_endpoint: float
    z_increment_sq: float
    meta: SolverMeta = field(compare=False)  # the coarse row's, by step


@dataclass(frozen=True, eq=False)
class _Coarse(PathEnsemble):
    """Every r-th node of a fine grid and a view of the fine states it keeps.
    Step i's increment is the forward-order sum of the fine ones in window i,
    not the one its own states give (for gbm that biases the coarse Z);
    window(model, i) returns the fine ones and their sum."""

    fine_partition: Partition = field(kw_only=True)
    fine_states: np.ndarray = field(kw_only=True, repr=False)

    def window(self, model: ModelSpec, i) -> tuple[list[np.ndarray], np.ndarray]:
        """Window i's fine increments (P, d) in forward order, and their sum."""
        r = self.fine_partition.n_steps // self.partition.n_steps
        x, times = self.fine_states, self.fine_partition.times
        dws = [euler_increment(model, times, j, x[:, j], x[:, j + 1])
               for j in range(i * r, i * r + r)]
        return dws, reduce(np.add, dws)


def _coarsen(fine: PathEnsemble, factor: int) -> _Coarse:
    """The coarse ensemble on the fine paths: the states at every factor-th
    fine node, a strided view along the node axis, so that time-major fine
    states give time-major coarse ones."""
    r, n_fine = factor, fine.partition.n_steps
    if r < 1 or n_fine % r:
        raise InvalidParameters(f"factor {factor} does not divide the {n_fine} "
                                f"fine steps")
    return _Coarse(partition=Partition(fine.partition.times[::r]), seed=fine.seed,
                   states=fine.states[:, ::r], fine_partition=fine.partition,
                   fine_states=fine.states)


def _sq_distance(a, b, out) -> float:
    """Sum of squares of a - b over every entry, through the contiguous
    buffer out of a's shape."""
    np.subtract(a, b, out=out)
    flat = out.reshape(-1)
    return float(np.dot(flat, flat))


def _lockstep(model: ModelSpec, fine: PathEnsemble, coarse: _Coarse,
              basis: RegressionBasis, at_node=None) -> Regularity:
    """The backward pass of regularity_pass over fine and its coarsening.
    After the coarse step at node i, at_node(i, design, dw, y, z), when
    given, sees the node's design and increment and the coarse Y_i (P,) and
    Z_i (P, d), which the pass holds for that node only. At factor 1 the
    fine step is the coarse step bit for bit, and is copied from it.
    A z-regularity sum is Sum_k dt_k |Z_k - Zbar|^2 / P, one dot of a row
    difference with itself per row, and not a shared sum expanded around
    Zbar, which at factor 1 would cancel a window sum of ~1e-19 against
    terms of ~1e-2. Every statistic agrees with the per-statistic loops
    over stored solutions to a relative 1e-12 (measured 3.1e-15), not bit
    for bit, since its terms are added in another order."""
    n = coarse.partition.n_steps
    r = fine.partition.n_steps // n
    h, dt_f = coarse.partition.dt, fine.partition.dt
    P, d = fine.n_paths, fine.d
    # the fine Y and Z of the current window; slot r holds its right end,
    # the left end of the window after it
    yw = empty_time_major(r + 1, P)
    zw = empty_time_major(r + 1, P, (d,))
    walk = backward_walk(model, coarse, basis)
    yw[:, r], meta = next(walk)
    # the statistics' buffers: one row difference of Y and of Z, and the
    # window average, a product of dt with the window's time-major Z rows
    dy, dz, avg = np.empty(P), np.empty((P, d)), np.empty((P, d))
    z_rows = zw.swapaxes(0, 1)[:r].reshape(r, P * d)
    y_inc = z_inc = 0.0
    sums = np.empty((3, n))  # window, node and left-endpoint contributions
    for i, design, dws, dw, (_, z, *_), y in walk:
        lo = i * r
        for k in range(r - 1, -1, -1) if r > 1 else ():
            j = lo + k
            pair = _row_pair(step_design(basis, fine.states[:, j], step=j)
                             if k else design, fine, j, dws[k], yw[:, k + 1])
            yw[:, k], zw[:, k] = _implicit_step(model, fine, j, *pair[:2])[0], pair[1]
            del pair  # not held through the next fine step
        if r == 1:
            yw[:, 0], zw[:, 0] = y, z
        if at_node is not None:
            at_node(i, design, dw, y, z)

        for k in range(1, r + 1):
            y_inc = max(y_inc, _sq_distance(yw[:, k], yw[:, 0], dy) / P)
        dt = dt_f[lo:lo + r]
        np.dot(dt, z_rows, out=avg.reshape(-1))
        avg /= h[i]
        for s, zbar in enumerate((project(design, avg)[0],
                                  project(design, z)[0], zw[:, 0])):
            sums[s, i] = sum(dt[k] * _sq_distance(zw[:, k], zbar, dz)
                             for k in range(r)) / P
        # every fine step of Z that starts in this window, the last one into
        # the first node of the next window; none starts at T
        for k in range(r - (i == n - 1)):
            z_inc = max(z_inc, _sq_distance(zw[:, k + 1], zw[:, k], dz) / P)
        yw[:, r], zw[:, r] = yw[:, 0], zw[:, 0]
        del design, dws, dw, z  # not held through the walk's next step
    window, node, left = np.cumsum(sums, axis=1)[:, -1]  # sequential, forward
    return Regularity(y_increment_sq=y_inc,
                      z_regularity_sum=float(window), z_regularity_node=float(node),
                      z_regularity_left_endpoint=float(left), z_increment_sq=z_inc,
                      meta=meta)


def regularity_pass(model: ModelSpec, fine: PathEnsemble, factor: int,
                    basis: RegressionBasis) -> Regularity:
    """Solve on the fine grid and on its coarsening by factor in one
    backward pass and measure the fine solution's path regularity against
    the coarse windows.

    The coarse ensemble lives on the fine paths: its states are those at
    every factor-th fine node and its increments the window sums of the fine
    ones. So the design built at a coarse node serves the coarse step, the
    fine step at that node, and the regressions of the window-averaged fine
    control and of the coarse control on the node's state. Within each
    coarse window the fine solve runs from the right end to the left; its Y
    and Z are kept for the current window only, in time-major buffers, and
    the window's statistics are taken before the next window reuses them.
    The coarse solve keeps its Y and Z for the current node only. The window
    sums are added up in forward window order at the end. Solver arguments
    are those of solve_backward_regression; the coarse solve is bit for bit
    its solve on the coarse ensemble, and every statistic is what two such
    solves and a loop per statistic over the stored solutions give, to a
    relative 1e-12 (the pass adds the same terms row by row, in another
    order). Raises InvalidParameters unless factor divides the fine step
    count.
    """
    return _lockstep(model, fine, _coarsen(fine, factor), basis)


@dataclass(frozen=True, eq=False)
class Diagnosis:
    """A regularity pass and the checks diagnose_pass makes on its coarse
    solution, each named after the diagnose report row it feeds. The (N,)
    representation_rms and representation_max hold each node's RMS and max
    over paths, whose mean and max are those rows, and are None when the
    flows or the gradient failed; gradient_error is then the message of the
    error that stopped them. flow_identity_residual, the flows' largest
    identity residual, is None when they could not be simulated. Records
    compare and hash by identity, since their arrays have no single truth
    value."""

    regularity: Regularity
    bmo_estimate: float
    bmo_plain: float
    flow_identity_residual: float | None
    representation_rms: np.ndarray | None
    representation_max: np.ndarray | None
    gradient_error: str | None


def diagnose_pass(model: ModelSpec, fine: PathEnsemble, factor: int,
                  basis: RegressionBasis) -> Diagnosis:
    """regularity_pass, with the BMO tail estimate, the gradient equation and
    the representation residual taken at each coarse node on the node's
    design, so that no coarse design is built twice and neither the coarse
    solution nor the tail sums nor gradY and gradZ are stored.

    The BMO estimate is the empirical sup_i ess-sup E[ sum_{j>=i} |Z_j|^2
    dt_j | F_i ]: the tail sum at node i is the one at node i + 1 plus node
    i's term, and only the current tail is held. Its conditional expectation
    is its regression on the node's state; bmo_estimate takes the largest
    fitted value over nodes and paths, bmo_plain the largest plain mean (the
    trivial conditioning), a lower bound and a stability reference.

    The gradient runs variational._gradient_step and
    variational._representation_node on the coarse ensemble, its coarse
    solution and the node's flow. The flows are simulated and checked on the
    coarse ensemble before the pass (sde.simulate_variational), which then
    reads them one node at a time in its backward order, each rebuilt from a
    checkpoint, so about 2 sqrt(N + 1) flow rows are held, not N + 1. On a
    model whose b_jac and sigma_jac vanish (brownian, quadratic) the flow is
    the identity, one row served at every node, and no coarse increment is
    derived for it; the pass only reads the rows it is served. Factor
    1 is the single-grid solve: the coarse ensemble is then the fine one bit
    for bit, and the coarse Y and Z those of solve_backward_regression on it.
    When the flows or the gradient fail, the pass releases the flows and
    goes on without the gradient, and the regularity statistics and the BMO
    estimate are still returned.
    """
    coarse = _coarsen(fine, factor)
    n, dt = coarse.partition.n_steps, coarse.partition.dt
    tail, bmo_max, means = 0.0, 0.0, np.empty(n)
    rms, peak = np.empty(n), np.empty(n)
    flows = resid = u = error = None
    try:
        flows, resid = simulate_variational(model, coarse)
        u = _terminal_gradient(model, coarse, next(flows))
    except QgbsdeError as exc:
        flows, error = None, str(exc)

    def at_node(i, design, dw, y, z):
        nonlocal tail, bmo_max, u, flows, error
        tail = tail + (z ** 2).sum(axis=1) * dt[i]
        bmo_max = max(bmo_max, float(project(design, tail[:, None])[0].max()))
        means[i] = tail.mean()
        if u is None:
            return
        try:
            flow = next(flows)  # node i's: served last node first
            u, _ = _gradient_step(model, design, coarse, i, flow, dw, u, y, z)
            rms[i], peak[i] = _representation_node(model, coarse, i, flow, u, z)
        except QgbsdeError as exc:  # nothing reads the flows again
            u, flows, error = None, None, str(exc)

    reg = _lockstep(model, fine, coarse, basis, at_node)
    if u is None:  # the flows or the gradient failed
        rms = peak = None
    return Diagnosis(regularity=reg, bmo_estimate=bmo_max, bmo_plain=float(means.max()),
                     flow_identity_residual=resid, representation_rms=rms,
                     representation_max=peak, gradient_error=error)


@dataclass(frozen=True)
class TruncationPoint:
    level: float
    err_y: float
    err_z: float
    y0: float
    z0: tuple[float, ...]  # (d,)
    y0_residual_rms: float  # of the step-0 projections, as in SolverMeta
    z0_residual_rms: float


@dataclass(frozen=True)
class TruncationCurve:
    points: tuple[TruncationPoint, ...]
    reference_level: float
    realized_max_z: float
    y_scale: float
    meta: SolverMeta = field(compare=False)  # the reference row's, by step
    solve: TruncationPoint | None = None  # at the level argument, not in points

    @property
    def noise_floor(self) -> float:
        """Y error below which a level counts as exact: 1e-6 of y_scale."""
        return 1e-6 * max(self.y_scale, np.finfo(np.float64).tiny)

    def positive_points(self):
        """Points whose Y error sits above the noise floor."""
        return [p for p in self.points if p.err_y > self.noise_floor]


def truncation_error_curve(model: ModelSpec, ensemble: PathEnsemble,
                           basis: RegressionBasis, levels, level=None) -> TruncationCurve:
    """Solve the truncated equations over a ladder of levels.

    Errors are against the solution at the reference level, twice the
    largest level in the ladder (the curve's reference_level), on the same
    paths and basis, so the statistical noise is common to both sides and
    cancels to first order:

        err_y(n) = E max_i |Y^n_i - Y^ref_i|^2
        err_z(n) = E sum_i |Z^n_i - Z^ref_i|^2 dt_i

    Every level runs in the reference's walk (solver.backward_walk), on its
    one design and increment per step, through the kernels of a single solve
    (solver._row_pair, solver._implicit_step). All start on the reference's
    terminal row, since they share g. A level reads the reference's row,
    with error 0, until the first step where min(n, reference_level) is
    below the max |z| of the reference's pair: there it takes that pair and
    from then on steps a row of its own under its own driver. Its per-path
    running max of |Y^n - Y^ref|^2 is created at that step; a level that
    never leaves holds none and has err_y exactly 0. At each step the
    reference's row steps first, and then each level's row right after its
    own pair, so the reference's pair and one level's pair are held at a
    time, and the walk's design and increments are let go before the next
    step's are built; step 0 keeps only the mean z0 and the residual RMS of
    each pair.
    So each level's errors, y0, z0 and step-0 residual RMS are bit for bit
    its own solve_backward_regression's, and no full solution is stored. Every
    ladder level at or above realized_max_z (the reference's max |Z|) keeps
    error 0, since the reference lies above it too.

    level, when given, is solved in the same pass as one more row, whose
    point is the curve's solve and not one of the points. It changes no
    reported number: the reference stays twice the top of the ladder, a
    row depends only on its driver and the row it came from, and
    realized_max_z and y_scale read the reference's row alone. On the
    ladder it is that level's row; while it stays on the reference's row it
    costs nothing. A negative or non-finite level raises InvalidParameters
    before any step.
    """
    lv = sorted(set(float(n) for n in levels))
    if not lv or lv[0] <= 0.0:
        raise InvalidParameters(f"levels must be positive, got {levels}")
    ref_level = 2.0 * lv[-1]
    # the levels whose errors are kept: the ladder and the solved level
    kept = lv if level is None else sorted({*lv, float(level)})
    models = {n: truncate_driver(model, n) for n in (*kept, ref_level)}
    walk = backward_walk(models[ref_level], ensemble, basis)
    y_ref, meta = next(walk)
    own = {}  # the rows of the levels that have left the reference's
    times, n_steps = ensemble.partition.times, ensemble.partition.n_steps
    # running per-path maxima over the nodes seen so far, terminal included,
    # of each level that has left (until then its error is 0)
    err_y_path = {}
    y_sq_max = y_ref ** 2
    err_z_steps = {n: np.zeros(n_steps) for n in kept}
    realized = 0.0
    first = {}  # (z0, y0 and z0 residual RMS) of each row's step-0 pair

    def scalars(pair):
        _, z, y_rms, z_rms = pair
        return tuple(z.mean(axis=0).tolist()), y_rms, z_rms

    for i, design, dws, dw, ref_pair, y_ref in walk:
        dt = times[i + 1] - times[i]
        top = float(np.abs(ref_pair[1]).max())
        realized = max(realized, top)
        np.maximum(y_sq_max, y_ref ** 2, out=y_sq_max)
        # a level leaves once its clamp or the reference's engages, on the
        # reference's pair; the others step right after their own pair, so
        # one level's pair is held at a time, and its old row goes with it
        leaving = [n for n in kept
                   if n != ref_level and n not in own and min(n, ref_level) < top]
        for n in [*own, *leaving]:
            pair = ref_pair if n in leaving else _row_pair(design, ensemble, i, dw,
                                                           own.pop(n))
            row = own[n] = _implicit_step(models[n], ensemble, i, *pair[:2])[0]
            dy, dz = row - y_ref, pair[1] - ref_pair[1]
            dy *= dy
            if n in leaving:
                err_y_path[n] = dy
            else:
                np.maximum(err_y_path[n], dy, out=err_y_path[n])
            err_z_steps[n][i] = (np.einsum("pd,pd->p", dz, dz) * dt).mean()
            if not i:
                first[n] = scalars(pair)
            del pair, dy, dz
        if not i:
            first[ref_level] = scalars(ref_pair)
        del ref_pair, design, dws, dw  # not held through the walk's next step

    def point(n):
        z0, y_rms, z_rms = first.get(n, first[ref_level])
        return TruncationPoint(
            level=n, err_y=float(err_y_path[n].mean()) if n in err_y_path else 0.0,
            err_z=float(err_z_steps[n].sum()),
            y0=float(own.get(n, y_ref).mean()), z0=z0,
            y0_residual_rms=y_rms, z0_residual_rms=z_rms)

    return TruncationCurve(points=tuple(point(n) for n in lv), reference_level=ref_level,
                           realized_max_z=realized, y_scale=float(y_sq_max.mean()),
                           meta=meta,
                           solve=None if level is None else point(float(level)))


def effective_qbar(curve: TruncationCurve) -> tuple[float, OrderFit] | None:
    """Tail-weight exponent implied by the fitted decay of err_y in the level.

    With errors decaying like n^(-1/qbar') at unit distribution shape, the
    fitted slope s gives qbar' = -1/(2 s) on the squared-error curve. Returns
    None when fewer than three points sit above the noise floor or the fit
    fails to decay.
    """
    pts = curve.positive_points()
    if len(pts) < 3:
        return None
    fit = fit_convergence_order([p.level for p in pts], [p.err_y for p in pts])
    if fit.slope >= 0.0:
        return None
    return -1.0 / (2.0 * fit.slope), fit
