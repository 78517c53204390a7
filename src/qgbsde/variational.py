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

Both are per-node kernels that take the node's flow gradX_i (P, m, m):
_gradient_step takes gradY from node i + 1 to node i on a given design and
increment, and _representation_node measures the identity at one node,
with the flow inverted there (sde.flow_inverse). diagnostics.diagnose_pass
calls them inside its own backward pass on the designs and increments it
has anyway, holding gradY for one node only and reading each node's flow
as sde.simulate_variational serves it, last node first. The per-node RMS
and max of _representation_node are the Diagnosis fields
representation_rms and representation_max, (N,) each.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalBlowup, PicardDivergence
from .model import ModelSpec
from .regression import StepDesign
from .sde import PathEnsemble, flow_inverse
from .solver import _martingale_pair


def _terminal_gradient(model: ModelSpec, ensemble: PathEnsemble, flow) -> np.ndarray:
    """gradY_N = g'(X_N) gradX_N, (P, m), for the flow gradX_N (P, m, m),
    after checking that the model has the driver gradients."""
    model.require("f_x", "f_y", "f_z", "g_grad")
    n = ensemble.partition.n_steps
    u = np.einsum("pa,pak->pk", np.asarray(model.g_grad(ensemble.states[:, n])), flow)
    if not np.isfinite(u).all():
        raise NumericalBlowup("non-finite terminal gradient", step=n)
    return u


def _gradient_step(model: ModelSpec, design: StepDesign, ensemble: PathEnsemble, i,
                   flow, dw, u_next, y, z):
    """Step i of the gradient equation on the design at node i, the flow
    gradX_i (P, m, m) and the increment dw (P, d): gradY_i (P, m) and
    gradZ_i (P, d, m) from u_next = gradY_{i+1} (P, m) and the base
    solution's Y_i (P,) and Z_i (P, d)."""
    times = ensemble.partition.times
    dt = times[i + 1] - times[i]
    t, xi = times[i], ensemble.states[:, i]
    e_fit, v_fit, *_ = _martingale_pair(design, ensemble, i, dw, u_next)
    v = v_fit.swapaxes(1, 2)  # (P, m, d) -> (P, d, m)
    fx = np.asarray(model.f_x(t, xi, y, z))
    fy = np.asarray(model.f_y(t, xi, y, z))
    fz = np.asarray(model.f_z(t, xi, y, z))
    denom = 1.0 - dt * fy
    if np.abs(denom).min() < 0.5:
        raise PicardDivergence(
            f"implicit factor 1 - dt f_y reached {np.abs(denom).min():.3e}; "
            "refine the grid", step=i)
    drive = (np.einsum("pa,pak->pk", fx, flow)
             + np.einsum("pj,pjk->pk", fz, v))
    u = (e_fit + dt * drive) / denom[:, None]
    if not np.isfinite(u).all():
        raise NumericalBlowup("non-finite gradient value", step=i)
    return u, v


def _representation_node(model: ModelSpec, ensemble: PathEnsemble, i, flow, grad_y, z):
    """RMS and max over paths of |Z_i - gradY_i (gradX_i)^{-1} sigma(t_i, X_i)|
    for the flow gradX_i (P, m, m), gradY_i (P, m) and Z_i (P, d)."""
    sig = np.asarray(model.sigma(ensemble.partition.times[i], ensemble.states[:, i]))
    row = np.einsum("pa,pab->pb", grad_y, flow_inverse(flow))
    resid = z - np.einsum("pb,pbd->pd", row, sig)
    sq = np.sum(resid ** 2, axis=1)
    return float(np.sqrt(sq.mean())), float(np.sqrt(sq.max()))

