"""Linear backward equation for the gradient process and the control identity.

Differentiating the backward equation in the initial state gives a linear
equation for (gradY, gradZ) driven by the driver gradients frozen along a
base solution. Linearity makes the implicit step exact: with
a = f_y(t, X, Y, Z) the one-step update solves in closed form,

    gradY_i = (E_i[gradY_{i+1}] + dt (f_x . gradX + f_z . gradZ_i)) / (1 - dt a).

E_i[gradY_{i+1}] and gradZ_i come from the backward solver's own estimator
(solver._martingale_pair) on one regression design per step, each of the m
components of gradY one target column, as for Y and Z in the base solve.

The three gradients are the model's own f_x, f_y and f_z at the base
solution; a truncated driver's carry the clamp, and its f_z the clamp's
slope by the chain rule (truncation.truncate_driver).

The control identity Z_t = gradY_t (gradX_t)^{-1} sigma(t, X_t) is then an
internal consistency check between two independently regressed objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, NumericalBlowup, PicardDivergence
from .model import ModelSpec, empty_time_major
from .regression import RegressionBasis, step_design
from .sde import PathEnsemble
from .solver import BackwardSolution, _martingale_pair


@dataclass(frozen=True)
class VariationalSolution:
    """gradY: (P, N+1, m); gradZ: (P, N, d, m), both stored time-major like
    the ensemble."""

    gradY: np.ndarray
    gradZ: np.ndarray


@dataclass(frozen=True)
class RepresentationReport:
    per_node_rms: np.ndarray
    per_node_max: np.ndarray
    time_avg_rms: float


def _require_flows(ensemble):
    if ensemble.flows is None or ensemble.flow_inverses is None:
        raise InvalidParameters(
            "ensemble carries no flows; run simulate_variational first")


def solve_variational_bsde(model: ModelSpec, ensemble: PathEnsemble,
                           base: BackwardSolution,
                           basis: RegressionBasis) -> VariationalSolution:
    model.require("f_x", "f_y", "f_z", "g_grad")
    _require_flows(ensemble)
    times = ensemble.partition.times
    X, F = ensemble.states, ensemble.flows
    P, n, m, d = X.shape[0], times.size - 1, model.m, model.d
    if base.Y.shape != (P, n + 1):
        raise InvalidParameters("base solution does not match the ensemble")

    U = empty_time_major(n + 1, P, (m,))
    V = empty_time_major(n, P, (d, m))
    gg = np.asarray(model.g_grad(X[:, n]))
    U[:, n] = np.einsum("pa,pak->pk", gg, F[:, n])
    if not np.isfinite(U[:, n]).all():
        raise NumericalBlowup("non-finite terminal gradient", step=n)

    for i in range(n - 1, -1, -1):
        dt = times[i + 1] - times[i]
        t, xi = times[i], X[:, i]
        e_fit, v_fit, *_ = _martingale_pair(step_design(basis, xi, step=i), ensemble,
                                            i, U[:, i + 1])
        Vi = v_fit.swapaxes(1, 2)  # (P, m, d) -> (P, d, m)

        yi, zi = base.Y[:, i], base.Z[:, i]
        fx = np.asarray(model.f_x(t, xi, yi, zi))
        fy = np.asarray(model.f_y(t, xi, yi, zi))
        fz = np.asarray(model.f_z(t, xi, yi, zi))
        denom = 1.0 - dt * fy
        if np.abs(denom).min() < 0.5:
            raise PicardDivergence(
                f"implicit factor 1 - dt f_y reached {np.abs(denom).min():.3e}; "
                "refine the grid", step=i)
        drive = (np.einsum("pa,pak->pk", fx, F[:, i])
                 + np.einsum("pj,pjk->pk", fz, Vi))
        U[:, i] = (e_fit + dt * drive) / denom[:, None]
        V[:, i] = Vi
        if not np.isfinite(U[:, i]).all():
            raise NumericalBlowup("non-finite gradient value", step=i)

    return VariationalSolution(gradY=U, gradZ=V)


def representation_check(model: ModelSpec, ensemble: PathEnsemble,
                         base: BackwardSolution,
                         var: VariationalSolution) -> RepresentationReport:
    """Residual of Z = gradY (gradX)^{-1} sigma node by node (diagonal u = t)."""
    _require_flows(ensemble)
    times = ensemble.partition.times
    n = times.size - 1
    rms = np.empty(n)
    peak = np.empty(n)
    for i in range(n):
        xi = ensemble.states[:, i]
        sig = np.asarray(model.sigma(times[i], xi))
        row = np.einsum("pa,pab->pb", var.gradY[:, i], ensemble.flow_inverses[:, i])
        rep = np.einsum("pb,pbd->pd", row, sig)
        resid = base.Z[:, i] - rep
        sq = np.sum(resid ** 2, axis=1)
        rms[i] = float(np.sqrt(sq.mean()))
        peak[i] = float(np.sqrt(sq.max()))
    return RepresentationReport(per_node_rms=rms, per_node_max=peak,
                                time_avg_rms=float(rms.mean()))
