"""Variance-reduced gradient constructors: the per-component memory table
with probabilistic refresh laws, and the snapshot estimator
g = est f_i(theta) - est f_i(anchor) + anchor gradient. The
recursive-difference (SARAH) estimator is the snapshot estimator whose
anchor moves to each new iterate, carrying the last g as its gradient.

All of them are generic over the inner per-component gradient source: the
zeroth-order estimator for real runs, or exact gradients for test stubs,
which is what makes exhaustive enumeration oracles feasible in tests.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import random_subset
from .zo import zo_gradient, sample_directions

LAW_P_SAGA = "p-saga"
LAW_SVRG_VARIANT = "svrg-variant"
UPDATE_LAWS = (LAW_P_SAGA, LAW_SVRG_VARIANT)


class ZoComponentEstimator:
    """Zeroth-order per-component gradient source; ``izo`` tallies its
    cost: q + 1 per single estimate, 2(q + 1) per coupled pair."""

    def __init__(self, oracle, cfg, rng, shared_directions=False):
        if getattr(oracle, "d", None) not in (None, cfg.d):
            raise ValueError("oracle has d=%d but cfg.zo.d=%d" % (oracle.d, cfg.d))
        self.oracle = oracle
        self.cfg = cfg
        self.rng = rng
        self.shared_directions = shared_directions
        self.izo = 0

    def estimate(self, i, theta, directions=None):
        self.izo += self.cfg.izo_per_estimate
        f = partial(self.oracle.component, i)
        return zo_gradient(f, theta, self.cfg, self.rng, directions)

    def estimate_pair(self, i, theta_a, theta_b):
        """Estimates of grad f_i at two points. Directions are independent
        draws by default; with shared_directions the same direction set is
        reused, so identical points cancel exactly."""
        dirs = None
        if self.shared_directions:
            dirs = sample_directions(self.cfg.d, self.cfg.s2, self.cfg.q, self.rng)
        return self.estimate(i, theta_a, dirs), self.estimate(i, theta_b, dirs)

    def full(self, theta):
        """The full pass: one estimate per component at theta, as (n, d)
        rows; for the zeroth-order source, fresh directions each and
        n(q+1) IZO."""
        return np.stack([self.estimate(i, theta) for i in range(self.oracle.n)])


class ExactComponentEstimator:
    """Exact-gradient stub with the same surface; charges no IZO
    (first-order information is outside the query model)."""

    def __init__(self, oracle):
        self.oracle = oracle

    def estimate(self, i, theta):
        return self.oracle.component_gradient(i, theta)

    def estimate_pair(self, i, theta_a, theta_b):
        return self.estimate(i, theta_a), self.estimate(i, theta_b)

    full = ZoComponentEstimator.full


@dataclass
class GradientMemory:
    """Stored per-component gradient table with its running mean.

    Under either update law each index is refreshed with marginal
    probability p/n per iteration: the size-p-subset law draws J uniform
    over size-p subsets; the all-or-nothing law draws J = [n] with
    probability p/n and J = {} otherwise. ``init_gradient_memory`` checks
    p and the law; the fields are not validated again here.
    """

    table: np.ndarray          # (n, d) stored estimates
    mean: np.ndarray           # maintained running average of the rows
    p: int
    law: str
    updates_since_sync: int = 0

    @property
    def n(self):
        return self.table.shape[0]

    def resync_mean(self):
        self.mean = self.table.mean(axis=0)
        self.updates_since_sync = 0


def init_gradient_memory(estimator, theta, p, law):
    """Check the law and 1 <= p <= n, then fill the table with one full
    pass at theta (n(q+1) IZO for the zeroth-order source)."""
    n = estimator.oracle.n
    if law not in UPDATE_LAWS:
        raise ValueError("unknown update law %r" % law)
    if not 1 <= p <= n:
        raise ValueError("need 1 <= p <= n, got p=%d n=%d" % (p, n))
    table = estimator.full(theta)
    return GradientMemory(table=table, mean=table.mean(axis=0), p=p, law=law)


def draw_update_set(mem, rng):
    """Random index set J per the memory's law."""
    if mem.law == LAW_P_SAGA:
        return random_subset(rng, mem.n, mem.p)
    if rng.uniform() < mem.p / mem.n:
        return np.arange(mem.n)
    return np.empty(0, dtype=np.intp)


def memory_update(mem, theta, estimator, chosen):
    """Replace the stored rows j in the drawn set J (``draw_update_set``)
    with fresh estimates at theta (|J|(q+1) IZO). The mean is maintained
    incrementally and resynced from the table every n refreshes."""
    for j in chosen:
        fresh = estimator.estimate(int(j), theta)
        mem.mean = mem.mean + (fresh - mem.table[j]) / mem.n
        mem.table[j] = fresh
        mem.updates_since_sync += 1
    if mem.updates_since_sync >= mem.n:
        mem.resync_mean()


def pm_gradient(mem, theta, i_r, estimator):
    """Three-term memory estimate: fresh estimate of grad f_{i_r} at
    theta, minus the stored row, plus the table mean (q+1 IZO)."""
    if not 0 <= i_r < mem.n:
        raise ValueError("component index out of range")
    return estimator.estimate(i_r, theta) - mem.table[i_r] + mem.mean


@dataclass
class SvrgSnapshot:
    anchor: np.ndarray
    anchor_grad: np.ndarray   # gradient estimate the steps build on


def take_snapshot(estimator, theta):
    """Anchor the snapshot estimator at theta (n(q+1) IZO)."""
    return SvrgSnapshot(np.array(theta), estimator.full(theta).mean(axis=0))


def svrg_gradient(snap, theta, i_t, estimator):
    """Estimate of grad f_{i_t} at theta, minus the same component at the
    anchor, plus the anchor gradient (2(q+1) IZO)."""
    g_theta, g_anchor = estimator.estimate_pair(i_t, theta, snap.anchor)
    return g_theta - g_anchor + snap.anchor_grad


# A sarah-szht epoch starts from a snapshot like a vr-szht epoch; its own
# name keeps the two apart in bench/tracer.py's spans.
sarah_init = take_snapshot


def sarah_step(snap, theta, i_t, estimator):
    """One recursion step (2(q+1) IZO): the snapshot estimate g against
    the previous iterate, then the anchor moves to theta with g as its
    gradient. Returns (g, moved snapshot). Unlike the memory and snapshot
    estimators, the recursion is biased after the first inner step."""
    g = svrg_gradient(snap, theta, i_t, estimator)
    return g, SvrgSnapshot(np.array(theta), g)
