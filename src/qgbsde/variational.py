"""Linear backward equation for the gradient process and the control identity.

Differentiating the backward equation in the initial state gives a linear
equation for (gradY, gradZ) driven by the driver gradients frozen along a
base solution. Linearity makes the implicit step exact: with
a = f_y(t, X, Y, Z) the one-step update solves in closed form,

    gradY_i = (E_i[gradY_{i+1}] + dt (f_x . gradX + f_z . gradZ_i)) / (1 - dt a).

The control identity Z_t = gradY_t (gradX_t)^{-1} sigma(t, X_t) is then an
internal consistency check between two independently regressed objects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (AssumptionLevelTooLow, InvalidParameters, NumericalBlowup,
                     PicardDivergence)
from .model import AssumptionLevel, ModelSpec
from .regression import RegressionBasis, project, step_design
from .sde import PathEnsemble
from .solver import BackwardSolution


@dataclass(frozen=True)
class VariationalSolution:
    """gradY: (P, N+1, m); gradZ: (P, N, d, m); residual filled by the check."""

    gradY: np.ndarray
    gradZ: np.ndarray
    representation_residual: float | None = None


@dataclass(frozen=True)
class RepresentationReport:
    per_node_rms: np.ndarray
    per_node_max: np.ndarray
    time_avg_rms: float


def _require_variational_inputs(model, ensemble):
    if model.assumption_level < AssumptionLevel.HX1Y1:
        raise AssumptionLevelTooLow(
            "variational solve needs driver and coefficient gradients (HX1Y1)")
    if ensemble.flows is None or ensemble.flow_inverses is None:
        raise InvalidParameters(
            "ensemble carries no flows; run simulate_variational first")


def solve_variational_bsde(model: ModelSpec, ensemble: PathEnsemble,
                           base: BackwardSolution,
                           basis: RegressionBasis) -> VariationalSolution:
    _require_variational_inputs(model, ensemble)
    times = ensemble.partition.times
    X, dW, F = ensemble.states, ensemble.increments, ensemble.flows
    P, n, m, d = X.shape[0], times.size - 1, model.m, model.d
    if base.Y.shape != (P, n + 1):
        raise InvalidParameters("base solution does not match the ensemble")

    U = np.empty((P, n + 1, m))
    V = np.empty((P, n, d, m))
    gg = np.asarray(model.g_grad(X[:, n]))
    U[:, n] = np.einsum("pa,pak->pk", gg, F[:, n])
    if not np.isfinite(U[:, n]).all():
        raise NumericalBlowup("non-finite terminal gradient", step=n)

    for i in range(n - 1, -1, -1):
        dt = times[i + 1] - times[i]
        t, xi = times[i], X[:, i]
        design = step_design(basis, xi, step=i)
        e_fit, _ = project(design, U[:, i + 1])
        v_targets = ((U[:, i + 1] - e_fit)[:, None, :] * dW[:, i, :, None] / dt)
        v_fit, _ = project(design, v_targets.reshape(P, d * m))
        Vi = v_fit.reshape(P, d, m)

        fx = np.asarray(model.f_x(t, xi, base.Y[:, i], base.Z[:, i]))
        fy = np.asarray(model.f_y(t, xi, base.Y[:, i], base.Z[:, i]))
        fz = np.asarray(model.f_z(t, xi, base.Y[:, i], base.Z[:, i]))
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
    _require_variational_inputs(model, ensemble)
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


def attach_residual(var: VariationalSolution,
                    report: RepresentationReport) -> VariationalSolution:
    return replace(var, representation_residual=report.time_avg_rms)
