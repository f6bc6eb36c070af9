"""Random sparse-direction sampling and the forward-difference
zeroth-order gradient estimate

    g = (d / (q * mu)) * sum_i (f(theta + mu*u_i) - f(theta)) * u_i,

with each u_i a unit vector supported on a uniformly random coordinate
subset of size s2. The base value f(theta) is evaluated once and reused
across directions, so one estimate costs exactly q + 1 IZO.

Directions come in two forms. For s2 = d they are the rows of a dense
(q, d) array. For s2 < d they stay sparse end to end: a pair
``(values, support)`` of (q, s2) arrays, row i holding the nonzero
coordinates of u_i and their indices. The probe points are built by
scattering into copies of theta, and the sum over i is one ``bincount``.

``zo_gradient`` never draws. ``vr.ZoComponentEstimator`` draws the
directions of many estimates with one ``sample_directions`` call (up to
2**14 entries, see its docstring) and hands each estimate the next q rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import require_numbers

# Reject smoothing radii small enough for the forward difference to be
# dominated by rounding noise.
MU_FLOOR_SCALE = 1e-12


class NonFiniteValueError(ArithmeticError):
    """The objective returned a non-finite value at ``point``."""

    def __init__(self, value, point):
        super().__init__("non-finite objective value %r" % float(value))
        self.value = value
        self.point = np.array(point)


@dataclass
class ZoEstimatorConfig:
    q: int           # number of random directions per estimate
    s2: int          # support size of each direction, 1 <= s2 <= d
    mu: float        # smoothing radius
    d: int           # ambient dimension
    shared_directions: bool = False  # a VR pair reuses one direction set

    def __post_init__(self):
        require_numbers(q=self.q, s2=self.s2, d=self.d, integer=True, least=1)
        require_numbers(mu=self.mu)
        if self.s2 > self.d:
            raise ValueError("need 1 <= s2 <= d, got s2=%d d=%d" % (self.s2, self.d))
        if not self.mu > 0:
            raise ValueError("mu must be positive, got %r" % self.mu)
        if not isinstance(self.shared_directions, (bool, np.bool_)):
            raise ValueError("shared_directions must be a bool, got %r"
                             % (self.shared_directions,))

    @property
    def izo_per_estimate(self):
        return self.q + 1


def sample_directions(d, s2, q, rng):
    """q random unit directions, each supported on s2 of the d coordinates.

    Support: uniformly random size-s2 subset; conditional on the support,
    uniform on the unit sphere of those coordinates (normalized normals).

    Returns a dense (q, d) array of rows when s2 = d. When s2 < d, returns
    a pair ``(values, support)`` of (q, s2) arrays: direction i is
    ``values[i]`` at the distinct columns ``support[i]`` and zero
    elsewhere.

    Draw order: the (q, s2) normal values, then, when s2 < d, the supports
    (see ``_sample_supports``): one (q, s2) integer draw followed by
    redraws of the repeated entries only, or one (q, d) draw of uniform
    keys when the supports are dense. So for s2 = d, one call for q = b*r
    rows returns the rows of b consecutive calls for r rows, byte for byte,
    and leaves the stream where they would (unless a row has zero norm:
    its redraw follows all q rows, not its own r). For s2 < d it does not:
    the values of all q rows come before any of their supports.
    """
    if not 1 <= s2 <= d:
        raise ValueError("need 1 <= s2 <= d, got s2=%d d=%d" % (s2, d))
    values = rng.standard_normal((q, s2))
    # np.linalg.norm(values, axis=1)'s own formula, without its wrapper.
    norms = np.sqrt(np.add.reduce(values * values, axis=1))
    while not norms.all():  # essentially impossible; redraw defensively
        bad = norms == 0.0
        values[bad] = rng.standard_normal((np.count_nonzero(bad), s2))
        norms = np.sqrt(np.add.reduce(values * values, axis=1))
    values /= norms[:, None]
    if s2 == d:
        return values
    return values, _sample_supports(d, s2, q, rng)


def _sample_supports(d, s2, q, rng):
    """(q, s2) column indices; each row is a uniformly random size-s2
    subset of range(d)."""
    if s2 * (s2 - 1) > 2 * d:
        # Dense supports: the s2 smallest of d i.i.d. uniform keys, copied
        # so that the block does not hold all (q, d) partitioned indices.
        return np.argpartition(rng.random((q, d)), s2 - 1, axis=1)[:, :s2].copy()
    # Sparse supports: i.i.d. indices, sorted per row; every entry equal to
    # its left neighbour is redrawn, and those rows are sorted again, until
    # no row repeats an index. Each round keeps a row's distinct indices
    # and adds fresh uniform draws, a rule that commutes with relabelling
    # the coordinates, so the final subset is uniform. A row of s2 draws
    # repeats with probability about 1 - exp(-s2(s2-1)/(2d)), at most
    # 1 - 1/e on this branch.
    # Rows without repeats drop out of later rounds. Sorting them again would
    # not move them, and the redraws fill the repeated entries in row-major
    # order either way, so the bits are those of a loop over every row.
    idx = np.sort(rng.integers(0, d, size=(q, s2)), axis=1)
    rows, live = np.arange(q), idx
    while True:
        repeated = live[:, 1:] == live[:, :-1]
        count = np.count_nonzero(repeated)
        if not count:
            return idx
        again = repeated.any(axis=1).nonzero()[0]
        rows, live, repeated = rows[again], live[again], repeated[again]
        live[:, 1:][repeated] = rng.integers(0, d, size=count)
        live.sort(axis=1)
        idx[rows] = live


def _check_mu(cfg, theta):
    scale = float(np.maximum.reduce(np.abs(theta)))
    if not math.isfinite(scale):
        raise ValueError("theta is not finite: max |theta_j| = %r" % scale)
    floor = MU_FLOOR_SCALE * (1.0 + scale)
    if cfg.mu < floor:
        raise ValueError(
            "smoothing radius mu=%g is below the numeric floor %g" % (cfg.mu, floor)
        )


def zo_gradient(f, theta, cfg, directions):
    """Forward-difference gradient estimate of a scalar function at theta,
    as a (d,) array, along the given directions; it never draws any.

    ``directions`` is a dense (q, d) array (any s2), or a
    ``(values, support)`` pair of (q, s2) arrays as ``sample_directions``
    returns for s2 < d. Passing one set twice couples two estimates.
    Makes ``cfg.izo_per_estimate`` evaluations of ``f``, at theta and then
    at each row of one (q, d) array of probe points, and charges none of
    them; the caller keeps the tally (``vr.ZoComponentEstimator.izo``).

    Raises NonFiniteValueError at theta or at the first probe point whose
    value is not finite, that point byte for byte as ``f`` saw it.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (cfg.d,):
        raise ValueError("theta shape %s does not match d=%d" % (theta.shape, cfg.d))
    _check_mu(cfg, theta)
    _check_directions(directions, cfg)
    sparse = isinstance(directions, tuple)
    if sparse:
        # The points equal the dense ``mu * u + theta`` byte for byte: off
        # the support that is ``0.0 + theta``, which turns a -0.0 into +0.0.
        values, support = directions
        points = np.empty((cfg.q, cfg.d))
        points[...] = theta + 0.0
        points[np.arange(cfg.q)[:, None], support] = theta[support] + cfg.mu * values
    else:
        points = cfg.mu * directions
        points += theta

    base = f(theta)
    fvals = np.fromiter(map(f, points), np.float64, cfg.q)
    if not math.isfinite(base):
        raise NonFiniteValueError(base, theta)
    # A finite sum proves every value finite (see FunctionOracle).
    if not math.isfinite(np.add.reduce(fvals)) and not np.isfinite(fvals).all():
        bad = np.flatnonzero(~np.isfinite(fvals))[0]
        raise NonFiniteValueError(fvals[bad], points[bad])
    diffs = fvals - base
    if sparse:
        total = np.bincount(support.ravel(), weights=(diffs[:, None] * values).ravel(),
                            minlength=cfg.d)
    else:
        total = diffs @ directions
    return (cfg.d / (cfg.q * cfg.mu)) * total


def _check_directions(directions, cfg):
    if isinstance(directions, tuple):
        shape, want = tuple(np.shape(a) for a in directions), ((cfg.q, cfg.s2),) * 2
    else:
        shape, want = np.shape(directions), (cfg.q, cfg.d)
    if shape != want:
        raise ValueError("directions shape %s does not match %s" % (shape, want))

