"""Smooth clamp family that converts quadratic drivers into Lipschitz ones.

For level n >= 0 the scalar clamp is the identity on [-n, n], a C^1 quadratic
ramp on n <= |z| <= n + 2, and saturates at +-(n + 1) beyond. It is odd,
1-Lipschitz, and satisfies |clamp(z)| <= min(|z|, n + 1). Vector arguments
are clamped componentwise.

truncate_driver returns the model with f, f_x, f_y and f_z evaluated at the
clamped z, the one form of the truncated driver every solver calls. Where
max |z| is within the level the clamp is the identity bit for bit, so those
callables hand z on as it is and clamp nothing.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import InvalidParameters
from .model import ModelSpec


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


def _clamp(n, z):
    """smooth_clamp(n, z), or z itself where max |z| <= n: the clamp is the
    identity there bit for bit. A NaN fails the test and goes through the
    clamp, which keeps it."""
    return z if np.abs(z).max() <= n else smooth_clamp(n, z)


def truncate_driver(model: ModelSpec, level) -> ModelSpec:
    """Replace the driver f(t, x, y, z) by f(t, x, y, clamp(z)).

    The result certifies a global z-Lipschitz constant M (3 + 2 n): the clamp
    is 1-Lipschitz and bounded by n + 1, so the quadratic-growth modulus
    M (1 + |z| + |z'|) |z - z'| collapses to M (1 + 2 (n + 1)) |z - z'|.
    Driver gradients, when present, are composed by the chain rule; f_z
    takes the clamp's slope only where the clamp engaged, since it is 1
    elsewhere.
    """
    n = _check_level(level)
    base_f = model.f
    changes = {
        "name": f"{model.name}_n{n:g}",
        "f": lambda t, x, y, z: base_f(t, x, y, _clamp(n, z)),
        "driver_z_lipschitz": model.growth_M * (3.0 + 2.0 * n),
        "meta": {**model.meta, "truncation_level": n},
    }
    if model.f_x is not None:
        base_fx = model.f_x
        changes["f_x"] = lambda t, x, y, z: base_fx(t, x, y, _clamp(n, z))
    if model.f_y is not None:
        base_fy = model.f_y
        changes["f_y"] = lambda t, x, y, z: base_fy(t, x, y, _clamp(n, z))
    if model.f_z is not None:
        base_fz = model.f_z

        def f_z(t, x, y, z):
            zc = _clamp(n, z)
            fz = base_fz(t, x, y, zc)
            return fz if zc is z else fz * smooth_clamp_grad(n, z)

        changes["f_z"] = f_z
    return replace(model, **changes)
