"""Random sparse-direction sampling and the forward-difference
zeroth-order gradient estimate

    g = (d / (q * mu)) * sum_i (f(theta + mu*u_i) - f(theta)) * u_i,

with each u_i a unit vector supported on a uniformly random coordinate
subset of size s2. The base value f(theta) is evaluated once and reused
across directions, so one estimate costs exactly q + 1 IZO.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import norm_inf

# Reject smoothing radii small enough for the forward difference to be
# dominated by rounding noise.
MU_FLOOR_SCALE = 1e-12


class NonFiniteValueError(ArithmeticError):
    """The objective returned a non-finite value at ``point``."""

    def __init__(self, value, point):
        super().__init__("non-finite objective value %r" % (value,))
        self.value = value
        self.point = np.array(point)


@dataclass
class ZoEstimatorConfig:
    q: int           # number of random directions per estimate
    s2: int          # support size of each direction, 1 <= s2 <= d
    mu: float        # smoothing radius
    d: int           # ambient dimension

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1, got %d" % self.q)
        if not 1 <= self.s2 <= self.d:
            raise ValueError("need 1 <= s2 <= d, got s2=%d d=%d" % (self.s2, self.d))
        if not self.mu > 0:
            raise ValueError("mu must be positive, got %r" % self.mu)

    @property
    def izo_per_estimate(self):
        return self.q + 1


@dataclass
class ZoEstimate:
    gradient: np.ndarray
    izo_cost: int
    directions_support: np.ndarray = field(repr=False)  # union of sampled supports


def sample_directions(d, s2, q, rng):
    """q random unit directions as rows of a (q, d) array.

    Support: uniformly random size-s2 subset; conditional on the support,
    uniform on the unit sphere of those coordinates (normalized normals).
    """
    if not 1 <= s2 <= d:
        raise ValueError("need 1 <= s2 <= d, got s2=%d d=%d" % (s2, d))
    if s2 == d:
        u = rng.standard_normal((q, d))
    else:
        u = np.zeros((q, d))
        for row in range(q):
            idx = rng.choice(d, size=s2, replace=False)
            u[row, idx] = rng.standard_normal(s2)
    norms = np.linalg.norm(u, axis=1)
    while np.any(norms == 0.0):  # essentially impossible; redraw defensively
        bad = np.flatnonzero(norms == 0.0)
        u[bad] = sample_directions(d, s2, bad.size, rng)
        norms = np.linalg.norm(u, axis=1)
    return u / norms[:, None]


def _check_mu(cfg, theta):
    if cfg.mu < MU_FLOOR_SCALE * (1.0 + norm_inf(theta)):
        raise ValueError(
            "smoothing radius mu=%g is below the numeric floor %g"
            % (cfg.mu, MU_FLOOR_SCALE * (1.0 + norm_inf(theta)))
        )


def zo_gradient(f, theta, cfg, rng, counters=None, directions=None):
    """Forward-difference gradient estimate of a scalar function at theta.

    ``f`` must be an uncounted scalar callable; IZO is charged here, one
    unit per evaluation (q + 1 total). Pass ``directions`` (a (q, d)
    array) to reuse a frozen direction set, e.g. to couple two estimates.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (cfg.d,):
        raise ValueError("theta shape %s does not match d=%d" % (theta.shape, cfg.d))
    _check_mu(cfg, theta)
    if directions is None:
        directions = sample_directions(cfg.d, cfg.s2, cfg.q, rng)
    elif directions.shape != (cfg.q, cfg.d):
        raise ValueError(
            "directions shape %s does not match (q, d) = (%d, %d)"
            % (directions.shape, cfg.q, cfg.d)
        )
    if counters is not None:
        counters.izo += cfg.q + 1
    base = f(theta)
    points = theta + cfg.mu * directions
    values = np.empty(cfg.q)
    for i in range(cfg.q):
        values[i] = f(points[i])
    if not np.isfinite(base):
        raise NonFiniteValueError(base, theta)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFiniteValueError(values[bad[0]], points[bad[0]])
    grad = (cfg.d / (cfg.q * cfg.mu)) * ((values - base) @ directions)
    union = np.flatnonzero(np.any(directions != 0.0, axis=0))
    return ZoEstimate(gradient=grad, izo_cost=cfg.q + 1, directions_support=union)
