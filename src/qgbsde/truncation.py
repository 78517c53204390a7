"""Smooth clamp family that converts quadratic drivers into Lipschitz ones.

For level n >= 0 the scalar clamp is the identity on [-n, n], a C^1 quadratic
ramp on n <= |z| <= n + 2, and saturates at +-(n + 1) beyond. It is odd,
1-Lipschitz, and satisfies |clamp(z)| <= min(|z|, n + 1). Vector arguments
are clamped componentwise.

truncate_driver records the level and the untruncated model on the model it
returns. Its f, f_x, f_y and f_z clamp z on every call; the solvers instead
ask clamped_driver for the untruncated driver and z clamped once per step,
and run every Picard pass (and the variational step's three gradients) on
those. Where max |z| is within the level the clamp is the identity, so
clamped_driver hands z back as it is and the step clamps nothing.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameters
from .model import ModelSpec, Truncation


def _check_level(level):
    if not np.isscalar(level) or not np.isfinite(level) or level < 0:
        raise InvalidParameters(f"truncation level must be a finite scalar >= 0, got {level!r}")
    return float(level)


def smooth_clamp(level, z):
    """Componentwise C^1 clamp at the given level. Preserves input shape."""
    n = _check_level(level)
    z = np.asarray(z, dtype=np.float64)
    az = np.abs(np.atleast_1d(z))
    # magnitude min(|z|, n) + s - s^2 / 4 with s = clip(|z| - n, 0, 2): s is
    # 0 on the identity range, which is therefore returned bit for bit, and
    # 2 once saturated at n + 1
    s = az - n
    np.clip(s, 0.0, 2.0, out=s)
    out = np.minimum(az, n, out=az)
    out += s
    s *= s
    s *= 0.25
    out -= s
    np.copysign(out, z, out=out)
    return out if z.ndim else float(out[0])


def smooth_clamp_grad(level, z):
    """Derivative of smooth_clamp in z, componentwise; values in [0, 1]."""
    n = _check_level(level)
    z = np.asarray(z, dtype=np.float64)
    s = np.abs(np.atleast_1d(z)) - n
    np.clip(s, 0.0, 2.0, out=s)
    s *= -0.5
    s += 1.0
    return s if z.ndim else float(s[0])


def clamped_driver(model: ModelSpec, z):
    """(driver, z') such that driver.f, f_x and f_y at z' are bit for bit
    model's at z.

    For a model from truncate_driver, the driver is the model before
    truncation and z' is z clamped at its level, so a caller that evaluates
    the driver several times at one z clamps it once. When max |z| is within
    the level, z' is z itself: the clamp is the identity there bit for bit.
    A NaN in z fails that test and goes through the clamp, which keeps it.
    Any other model comes back as it is, with z. model.f_z carries the
    chain-rule factor smooth_clamp_grad(level, z) on top of
    driver.f_z(..., z').
    """
    trunc = model.truncation
    if trunc is None:
        return model, z
    if np.abs(z).max() <= trunc.level:
        return trunc.base, z
    return trunc.base, smooth_clamp(trunc.level, z)


def truncate_driver(model: ModelSpec, level) -> ModelSpec:
    """Replace the driver f(t, x, y, z) by f(t, x, y, clamp(z)).

    The result certifies a global z-Lipschitz constant M (3 + 2 n): the clamp
    is 1-Lipschitz and bounded by n + 1, so the quadratic-growth modulus
    M (1 + |z| + |z'|) |z - z'| collapses to M (1 + 2 (n + 1)) |z - z'|.
    Driver gradients, when present, are composed by the chain rule.
    """
    n = _check_level(level)
    base_f = model.f

    def f_trunc(t, x, y, z):
        return base_f(t, x, y, smooth_clamp(n, z))

    changes = {
        "name": f"{model.name}_n{n:g}",
        "f": f_trunc,
        "driver_z_lipschitz": model.growth_M * (3.0 + 2.0 * n),
        "meta": {**model.meta, "truncation_level": n},
        "truncation": Truncation(level=n, base=model),
    }
    if model.f_x is not None:
        base_fx = model.f_x
        changes["f_x"] = lambda t, x, y, z: base_fx(t, x, y, smooth_clamp(n, z))
    if model.f_y is not None:
        base_fy = model.f_y
        changes["f_y"] = lambda t, x, y, z: base_fy(t, x, y, smooth_clamp(n, z))
    if model.f_z is not None:
        base_fz = model.f_z
        changes["f_z"] = lambda t, x, y, z: (
            base_fz(t, x, y, smooth_clamp(n, z)) * smooth_clamp_grad(n, z))
    return model.with_driver(**changes)
