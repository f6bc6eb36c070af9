"""Random sparse-direction sampling and the forward-difference
zeroth-order gradient estimate

    g = (d / (q * mu)) * sum_i (f(theta + mu*u_i) - f(theta)) * u_i,

with each u_i a unit vector supported on a uniformly random coordinate
subset of size s2. The base value f(theta) is evaluated once and reused
across directions, so one estimate costs exactly q + 1 IZO.
"""

from dataclasses import dataclass

import numpy as np

# Reject smoothing radii small enough for the forward difference to be
# dominated by rounding noise.
MU_FLOOR_SCALE = 1e-12

# Probe points are built at most this many coordinates (64 KiB) at a time.
# malloc recycles a block that size from one estimate to the next. A whole
# (q, d) array (400 KiB at q = 50, d = 1000) is at times handed back to the
# kernel after each estimate and paged in again on the next: ~610k page
# faults and a third of the wall time of a d = 1000 grid pass.
PROBE_BLOCK = 8192


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


def sample_directions(d, s2, q, rng):
    """q random unit directions as rows of a (q, d) array.

    Support: uniformly random size-s2 subset; conditional on the support,
    uniform on the unit sphere of those coordinates (normalized normals).
    Draw order: the (q, s2) normal values, then, when s2 < d, the supports.
    """
    if not 1 <= s2 <= d:
        raise ValueError("need 1 <= s2 <= d, got s2=%d d=%d" % (s2, d))
    values = rng.standard_normal((q, s2))
    norms = np.linalg.norm(values, axis=1)
    while not norms.all():  # essentially impossible; redraw defensively
        bad = norms == 0.0
        values[bad] = rng.standard_normal((np.count_nonzero(bad), s2))
        norms = np.linalg.norm(values, axis=1)
    values /= norms[:, None]
    if s2 == d:
        return values
    u = np.zeros((q, d))
    np.put_along_axis(u, _sample_supports(d, s2, q, rng), values, axis=1)
    return u


def _sample_supports(d, s2, q, rng):
    """(q, s2) column indices; each row is a uniformly random size-s2
    subset of range(d), in no particular order."""
    if s2 * (s2 - 1) > 2 * d:
        # Dense supports: the s2 smallest of d i.i.d. uniform keys.
        return np.argpartition(rng.random((q, d)), s2 - 1, axis=1)[:, :s2]
    # Sparse supports: i.i.d. index rows, each redrawn until its entries
    # are distinct, which is uniform over subsets. A draw is accepted with
    # probability prod_{j<s2} (1 - j/d), about exp(-s2(s2-1)/(2d)), so
    # roughly 1/e or more when s2(s2-1) <= 2d.
    idx = rng.integers(0, d, size=(q, s2))
    pending = np.arange(q)
    while True:
        rows = np.sort(idx[pending], axis=1)
        pending = pending[np.any(rows[:, 1:] == rows[:, :-1], axis=1)]
        if not pending.size:
            return idx
        idx[pending] = rng.integers(0, d, size=(pending.size, s2))


def _check_mu(cfg, theta):
    floor = MU_FLOOR_SCALE * (1.0 + float(np.abs(theta).max()))
    if cfg.mu < floor:
        raise ValueError(
            "smoothing radius mu=%g is below the numeric floor %g" % (cfg.mu, floor)
        )


def zo_gradient(f, theta, cfg, rng, directions=None):
    """Forward-difference gradient estimate of a scalar function at theta,
    as a (d,) array.

    Makes ``cfg.izo_per_estimate`` evaluations of ``f`` and charges none
    of them; the caller keeps the tally (``vr.ZoComponentEstimator.izo``).
    Pass ``directions`` (a (q, d) array) to reuse a frozen direction set,
    e.g. to couple two estimates.
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
    base = f(theta)
    values = np.empty(cfg.q)
    rows = max(1, PROBE_BLOCK // cfg.d)
    for start in range(0, cfg.q, rows):
        points = cfg.mu * directions[start:start + rows]
        points += theta
        for i, point in enumerate(points, start):
            values[i] = f(point)
    if not np.isfinite(base):
        raise NonFiniteValueError(base, theta)
    if not np.isfinite(values).all():
        bad = np.flatnonzero(~np.isfinite(values))[0]
        raise NonFiniteValueError(values[bad], theta + cfg.mu * directions[bad])
    return (cfg.d / (cfg.q * cfg.mu)) * ((values - base) @ directions)
