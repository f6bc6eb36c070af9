"""Variance-reduced gradient constructors: the per-component memory table
with probabilistic refresh laws, and the snapshot estimator
g = est f_i(theta) - est f_i(anchor) + anchor gradient. The
recursive-difference (SARAH) estimator is the snapshot estimator whose
anchor moves to each new iterate, carrying the last g as its gradient.

All of them are generic over the inner per-component gradient source: the
zeroth-order estimator for runs, or exact gradients for an exact variance
decomposition and for exhaustive enumeration oracles in tests.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import random_subset
from .zo import zo_gradient, sample_directions

# Direction entries (rows times s2) per sample_directions call of
# ZoComponentEstimator: as many whole estimates as fit, and at least one.
_BLOCK_ENTRIES = 2 ** 14
# Bytes of direction blocks a BlockMemo keeps.
_MEMO_BYTES = 2 ** 20

LAW_P_SAGA = "p-saga"
LAW_SVRG_VARIANT = "svrg-variant"
UPDATE_LAWS = (LAW_P_SAGA, LAW_SVRG_VARIANT)


class ZoComponentEstimator:
    """Zeroth-order per-component gradient source; ``izo`` tallies its
    cost: q + 1 per single estimate, 2(q + 1) per coupled pair.

    Each estimate, and each shared-direction pair, takes the next q rows
    of a block that one ``sample_directions(d, s2, B*q, rng)`` call draws,
    B = max(1, _BLOCK_ENTRIES // (q*s2)), so numpy's fixed cost per call is
    paid once per block. A block holds at most max(2**14, q*s2) entries;
    one block per full pass (B = n) would hold 1.6 GB at n = 10**4,
    q = 200, d = 100. For s2 = d the rows are the per-estimate draws byte
    for byte; for s2 < d they are a new sequence (see the draw order of
    ``sample_directions``).

    While a ``BlockMemo`` is open, blocks are taken through it (see there
    for when it serves one); with none open every block is drawn.
    """

    def __init__(self, oracle, cfg, rng):
        if getattr(oracle, "d", None) not in (None, cfg.d):
            raise ValueError("oracle has d=%d but cfg.zo.d=%d" % (oracle.d, cfg.d))
        self.oracle = oracle
        self.cfg = cfg
        self.rng = rng
        self.izo = 0
        self._block_rows = max(1, _BLOCK_ENTRIES // (cfg.q * cfg.s2)) * cfg.q
        self._block = None
        self._next = self._block_rows  # first unused row; the block starts spent
        self._blocks = 0  # blocks taken from the stream so far

    def _directions(self):
        """The next q directions of the block, in sample_directions' form;
        a spent block is first replaced by a fresh one."""
        start = self._next
        if start == self._block_rows:
            # Let the spent block go before the next is drawn, so that a
            # grid's peak memory holds the memo and one block beyond it.
            self._block = None
            shape = (self.cfg.d, self.cfg.s2, self._block_rows)
            if _memo is None:
                self._block = sample_directions(*shape, self.rng)
            else:
                self._block = _memo.take(self._blocks, shape, self.rng)
            self._blocks += 1
            start = 0
        stop = self._next = start + self.cfg.q
        block = self._block
        if isinstance(block, tuple):
            return block[0][start:stop], block[1][start:stop]
        return block[start:stop]

    def estimate(self, i, theta, directions=None):
        self.izo += self.cfg.izo_per_estimate
        if directions is None:
            directions = self._directions()
        f = partial(self.oracle.component, i)
        return zo_gradient(f, theta, self.cfg, directions)

    def estimate_pair(self, i, theta_a, theta_b):
        """Estimates of grad f_i at two points. Directions are independent
        draws by default; with cfg.shared_directions the same direction set
        is reused, so identical points cancel exactly."""
        dirs = self._directions() if self.cfg.shared_directions else None
        return self.estimate(i, theta_a, dirs), self.estimate(i, theta_b, dirs)

    def full(self, theta):
        """The full pass: one estimate per component at theta, as (n, d)
        rows; for the zeroth-order source, fresh directions each and
        n(q+1) IZO."""
        return np.stack([self.estimate(i, theta) for i in range(self.oracle.n)])


class BlockMemo:
    """The first blocks of one direction stream, shared by the
    ZoComponentEstimators of a grid, whose cells of one seed draw the same
    stream. Block k is served when the memo holds block k of this very
    stream, keyed by (d, s2, block rows) and the generator's full PCG64
    state (``state``, ``inc``, ``has_uint32``, ``uinteger``) before it, and
    served read-only with the generator set to the state after it, so no
    bit changes. The memo keeps at most ``_MEMO_BYTES`` (1 MiB) of one
    stream's first blocks; past those every cell draws its own, and block
    0 of another stream replaces them. A generator other than PCG64 always
    draws its own blocks. ``states[k]`` is the generator's state before
    block k and ``states[k + 1]`` after it.

    ``with BlockMemo():`` (``harness.run_experiment``) opens the memo; exit
    closes it and drops its blocks. A pool worker opens one for life.
    """

    def __init__(self):
        self.shape = None
        self.states = []
        self.blocks = []
        self.nbytes = 0

    def open(self):
        global _memo
        _memo = self
        return self

    __enter__ = open

    def __exit__(self, *exc):
        global _memo
        _memo = None
        self.__init__()

    def take(self, k, shape, rng):
        """Block k of the stream at rng, shape (d, s2, rows): served when
        held, else drawn and kept while the memo has room."""
        state = rng.bit_generator.state
        if state["bit_generator"] != "PCG64":
            return sample_directions(*shape, rng)
        if k == 0 and (shape != self.shape or self.states[0] != state):
            self.shape, self.states, self.blocks, self.nbytes = shape, [state], [], 0
        if shape != self.shape or k >= len(self.states) or self.states[k] != state:
            return sample_directions(*shape, rng)
        if k < len(self.blocks):
            rng.bit_generator.state = self.states[k + 1]
            return self.blocks[k]
        block = sample_directions(*shape, rng)
        arrays = block if isinstance(block, tuple) else (block,)
        size = sum(a.nbytes for a in arrays)
        if self.nbytes + size <= _MEMO_BYTES:
            for a in arrays:
                a.flags.writeable = False
            self.blocks.append(block)
            self.states.append(rng.bit_generator.state)
            self.nbytes += size
        return block


# The open BlockMemo, or None: then every block is drawn.
_memo = None


class ExactComponentEstimator:
    """Exact-gradient twin with the same surface, for exact decompositions
    and tests; charges no IZO (first-order information is outside the query model)."""

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


def sarah_step(snap, theta, i_t, estimator):
    """One recursion step (2(q+1) IZO): the snapshot estimate g against
    the previous iterate, then the anchor moves to theta with g as its
    gradient. Returns (g, moved snapshot). Unlike the memory and snapshot
    estimators, the recursion is biased after the first inner step."""
    g = svrg_gradient(snap, theta, i_t, estimator)
    return g, SvrgSnapshot(np.array(theta), g)
