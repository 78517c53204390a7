"""Model and time-grid containers.

A ModelSpec bundles the forward coefficients, the backward driver, the
terminal condition, and the certified constants (Lipschitz, growth) that the
solvers check before running. All coefficient callables are vectorized over
paths:

    b(t, x)            x: (P, m)        -> (P, m)
    sigma(t, x)                         -> (P, m, d)
    b_jac(t, x)                         -> (P, m, m)
    sigma_jac(t, x)                     -> (P, d, m, m)   one Jacobian per noise column
    f(t, x, y, z)      y: (P,), z: (P, d) -> (P,)
    f_x / f_y / f_z                     -> (P, m) / (P,) / (P, d)
    g(x)                                -> (P,)
    g_grad(x)                           -> (P, m)

The Jacobians and gradients are optional (None when absent). The paper's
differentiability hypotheses (HX1Y1) hold exactly when a model supplies
them, so an operation that needs some of them asks the model with
ModelSpec.require, which names the missing ones. A variant of a model, a
truncated driver (truncation.truncate_driver) included, is a new ModelSpec
made with dataclasses.replace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionLevelTooLow, InvalidParameters, InvalidPartition


@dataclass(frozen=True, eq=False)
class Partition:
    """Deterministic time grid 0 = t_0 < t_1 < ... < t_N = T."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        if t.ndim != 1 or t.size < 2:
            raise InvalidPartition("partition needs at least two nodes")
        if t[0] != 0.0:
            raise InvalidPartition(f"partition must start at 0, got {t[0]}")
        if not np.all(np.diff(t) > 0):
            raise InvalidPartition("partition times must be strictly increasing")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "times", t)

    @classmethod
    def uniform(cls, horizon: float, n_steps: int) -> "Partition":
        if horizon <= 0:
            raise InvalidPartition(f"horizon must be positive, got {horizon}")
        if n_steps < 1:
            raise InvalidPartition(f"need at least one step, got {n_steps}")
        return cls(np.linspace(0.0, float(horizon), n_steps + 1))

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.times)

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.times)))

    def refine(self, factor: int) -> "Partition":
        """Nested refinement: every node of self appears bitwise in the result."""
        if factor < 1:
            raise InvalidParameters(f"refinement factor must be >= 1, got {factor}")
        if factor == 1:
            return self
        t = self.times
        pieces = [t[:-1, None] + np.diff(t)[:, None] * (np.arange(factor) / factor)]
        fine = np.append(pieces[0].ravel(), t[-1])
        fine[:: factor] = t  # keep coarse nodes exact
        return Partition(fine)


def empty_time_major(n_nodes: int, n_paths: int, tail=()) -> np.ndarray:
    """Uninitialised (n_paths, n_nodes, *tail) array stored node by node.

    Time is the slowest axis in memory, so the per-node slice a[:, i] that
    every forward and backward pass walks is one contiguous block, while
    the indexing stays path first.
    """
    return np.empty((n_nodes, n_paths) + tuple(tail)).swapaxes(0, 1)


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Forward-backward system with certified constants.

    driver_z_lipschitz is the certified global Lipschitz constant of f in z,
    or None when the driver is only quadratic-growth. Solvers refuse models
    with None (apply a truncation level first).
    """

    name: str
    m: int
    d: int
    x0: np.ndarray
    T: float
    b: callable
    sigma: callable
    f: callable
    g: callable
    b_jac: callable | None = None
    sigma_jac: callable | None = None
    f_x: callable | None = None
    f_y: callable | None = None
    f_z: callable | None = None
    g_grad: callable | None = None
    growth_M: float = 0.0
    driver_z_lipschitz: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise InvalidParameters(f"state/noise dims must be >= 1, got m={self.m}, d={self.d}")
        if self.T <= 0:
            raise InvalidParameters(f"horizon must be positive, got T={self.T}")
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=np.float64))
        if x0.shape != (self.m,):
            raise InvalidParameters(f"x0 must have shape ({self.m},), got {x0.shape}")
        object.__setattr__(self, "x0", x0)
        if self.growth_M < 0:
            raise InvalidParameters("certified constants must be nonnegative")

    def require(self, *names):
        """Raise AssumptionLevelTooLow unless every callable named is supplied
        (not None); the message names the missing ones."""
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise AssumptionLevelTooLow(
                f"model {self.name!r} does not supply {', '.join(missing)}")


def _box_points(n: int, k: int, box: float) -> np.ndarray:
    """n fixed pseudo-random points (n, k) of the box [-box, box]^k: entry j
    of the flat array is the splitmix64 output of counter j + 1, scaled to
    the box. Hashed in wrapping uint64 arithmetic, so that building a model
    loads no numpy.random; a command that reads its ensemble from the cache
    draws nothing and never loads it."""
    z = np.arange(1, n * k + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = (z ^ (z >> np.uint64(shift))) * np.uint64(mult)
    z ^= z >> np.uint64(31)
    u = (z >> np.uint64(11)) * 2.0 ** -53  # the top 53 bits, in [0, 1)
    return (box * (2.0 * u - 1.0)).reshape(n, k)


def check_growth_certificate(model: ModelSpec) -> float:
    """Spot-check |f| <= M (1 + |y| + |z|^2) on 4096 pseudo-random points
    (x, y, z) of the box [-5, 5] (_box_points), at 17 times in [0, T].

    Returns the largest observed ratio |f| / (M (1 + |y| + |z|^2)). Values
    above 1 mean the certificate is wrong. Models with f identically zero
    certify with M = 0 and return 0.
    """
    n, box, m = 4096, 5.0, model.m
    pts = _box_points(n, m + 1 + model.d, box)
    x, y, z = pts[:, :m], pts[:, m], pts[:, m + 1:]
    env = 1.0 + np.abs(y) + np.sum(z * z, axis=1)
    worst = 0.0
    for ti in np.linspace(0.0, model.T, 17):
        fv = np.abs(np.asarray(model.f(float(ti), x, y, z)))
        if model.growth_M == 0.0:
            if np.any(fv > 0):
                return np.inf
            continue
        worst = max(worst, float(np.max(fv / (model.growth_M * env))))
    return worst


# --------------------------------------------------------------------------
# Preset catalog. All presets are one-dimensional (m = d = 1); tests build
# small multi-dimensional models inline where the flow algebra needs them.
# --------------------------------------------------------------------------

def _zero_field(shape_tail):
    def fn(t, x):
        return np.zeros(x.shape[:1] + shape_tail)
    return fn


def _zero_driver_grad(shape_tail):
    def fn(t, x, y, z):
        return np.zeros(x.shape[:1] + shape_tail)
    return fn


def make_brownian(x0: float = 0.0, horizon: float = 1.0,
                  terminal: str = "identity", kappa: float = 1.0) -> ModelSpec:
    """b = 0, sigma = 1, f = 0. With the default identity terminal the exact
    solution is Y = X, Z = 1; other terminals keep Y_t = E[g(X_T) | F_t]."""
    g, g_grad = _terminal_functions(terminal, kappa)
    name = "brownian" if terminal == "identity" else f"brownian_{terminal}"
    return ModelSpec(
        name=name, m=1, d=1, x0=np.array([x0]), T=horizon,
        b=lambda t, x: np.zeros_like(x),
        sigma=lambda t, x: np.ones(x.shape + (1,)),
        f=lambda t, x, y, z: np.zeros(x.shape[0]),
        g=g,
        b_jac=_zero_field((1, 1)),
        sigma_jac=_zero_field((1, 1, 1)),
        f_x=_zero_driver_grad((1,)),
        f_y=lambda t, x, y, z: np.zeros(x.shape[0]),
        f_z=lambda t, x, y, z: np.zeros_like(z),
        g_grad=g_grad,
        growth_M=0.0, driver_z_lipschitz=0.0,
        meta={"preset": "brownian", "terminal": terminal, "kappa": kappa},
    )


def make_discount(rate: float = 0.1, x0: float = 0.0, horizon: float = 1.0) -> ModelSpec:
    """f = -rate * y with g == 1; Y_t = exp(-rate (T - t)), Z = 0."""
    if rate < 0:
        raise InvalidParameters(f"rate must be nonnegative, got {rate}")
    return ModelSpec(
        name="discount", m=1, d=1, x0=np.array([x0]), T=horizon,
        b=lambda t, x: np.zeros_like(x),
        sigma=lambda t, x: np.ones(x.shape + (1,)),
        f=lambda t, x, y, z: -rate * y,
        g=lambda x: np.ones(x.shape[0]),
        b_jac=_zero_field((1, 1)),
        sigma_jac=_zero_field((1, 1, 1)),
        f_x=_zero_driver_grad((1,)),
        f_y=lambda t, x, y, z: np.full(x.shape[0], -rate),
        f_z=lambda t, x, y, z: np.zeros_like(z),
        g_grad=lambda x: np.zeros_like(x),
        growth_M=rate, driver_z_lipschitz=0.0,
        meta={"preset": "discount", "rate": rate},
    )


def make_gbm(mu: float = 0.05, vol: float = 0.2, x0: float = 1.0,
             horizon: float = 1.0) -> ModelSpec:
    """Geometric Brownian forward, trivial backward part (f = 0, g(x) = x)."""
    return ModelSpec(
        name="gbm", m=1, d=1, x0=np.array([x0]), T=horizon,
        b=lambda t, x: mu * x,
        sigma=lambda t, x: vol * x[..., None],
        f=lambda t, x, y, z: np.zeros(x.shape[0]),
        g=lambda x: x[:, 0],
        b_jac=lambda t, x: np.full(x.shape + (1,), mu),
        sigma_jac=lambda t, x: np.full(x.shape[:1] + (1, 1, 1), vol),
        f_x=_zero_driver_grad((1,)),
        f_y=lambda t, x, y, z: np.zeros(x.shape[0]),
        f_z=lambda t, x, y, z: np.zeros_like(z),
        g_grad=lambda x: np.ones_like(x),
        growth_M=0.0, driver_z_lipschitz=0.0,
        meta={"preset": "gbm", "mu": mu, "vol": vol},
    )


def _terminal_functions(kind: str, kappa: float):
    if kind == "identity":
        return (lambda x: x[:, 0],
                lambda x: np.ones_like(x))
    if kind == "tanh":
        return (lambda x: np.tanh(kappa * x[:, 0]),
                lambda x: (kappa / np.cosh(kappa * x)) / np.cosh(kappa * x))
    if kind == "sin":
        return (lambda x: np.sin(kappa * x[:, 0]),
                lambda x: kappa * np.cos(kappa * x))
    if kind == "constant":
        return (lambda x: np.full(x.shape[0], kappa),
                lambda x: np.zeros_like(x))
    raise InvalidParameters(
        f"unknown terminal kind {kind!r} (use identity, tanh, sin, constant)")


def make_quadratic(gamma: float = 1.0, terminal: str = "tanh", kappa: float = 1.0,
                   sigma: float = 1.0, x0: float = 0.0, horizon: float = 1.0,
                   rate: float = 0.0) -> ModelSpec:
    """Driver f = -rate y + (gamma/2) |z|^2 with a bounded terminal condition.

    The driver is quadratic in z, so driver_z_lipschitz is None and the
    regression solver refuses the model until a truncation level is applied.
    With rate = 0, b = 0 and constant sigma the exponential transform gives a
    closed form for (Y_0, Z_0), used as the reference oracle; rate != 0 adds
    a Lipschitz y-term on top of the quadratic part and has no closed form.
    """
    if gamma == 0.0:
        raise InvalidParameters("gamma must be nonzero (use a Lipschitz preset instead)")
    if sigma <= 0.0:
        raise InvalidParameters(f"sigma must be positive, got {sigma}")
    if rate < 0.0:
        raise InvalidParameters(f"rate must be nonnegative, got {rate}")
    g, g_grad = _terminal_functions(terminal, kappa)
    return ModelSpec(
        name=f"quadratic_{terminal}", m=1, d=1, x0=np.array([x0]), T=horizon,
        b=lambda t, x: np.zeros_like(x),
        sigma=lambda t, x: np.full(x.shape + (1,), sigma),
        f=lambda t, x, y, z: -rate * y + 0.5 * gamma * np.einsum("pd,pd->p", z, z),
        g=g,
        b_jac=_zero_field((1, 1)),
        sigma_jac=_zero_field((1, 1, 1)),
        f_x=_zero_driver_grad((1,)),
        f_y=lambda t, x, y, z: np.full(x.shape[0], -rate),
        f_z=lambda t, x, y, z: gamma * z,
        g_grad=g_grad,
        growth_M=max(rate, 0.5 * abs(gamma)), driver_z_lipschitz=None,
        meta={"preset": "quadratic", "gamma": gamma, "terminal": terminal,
              "kappa": kappa, "sigma": sigma, "rate": rate},
    )


PRESETS = {
    "brownian": make_brownian,
    "discount": make_discount,
    "gbm": make_gbm,
    "quadratic": make_quadratic,
}
