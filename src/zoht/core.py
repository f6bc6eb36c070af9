"""Shared numeric plumbing: seeded RNG streams, the nonzero count, the
integer check of config counts, and the black-box finite-sum oracle.

Vectors are plain 1-D float64 numpy arrays. ``nnz`` counts exact
``|v_i| > 0`` (hard thresholding produces exact zeros, so the sparsity
constraint stays exactly checkable).
"""

import numbers

import numpy as np

# Named substreams derived from a single user seed. Identical
# (seed, stream) pairs reproduce the same draw sequence; distinct
# streams from one seed never share state. Generator: numpy PCG64
# keyed by SeedSequence(seed, spawn_key=(stream index,)).
STREAM_IDS = {
    "data-gen": 0,
    "directions": 1,
    "indices": 2,
    "memory-sets": 3,
}

RNG_DESCRIPTION = "numpy PCG64, SeedSequence(seed, spawn_key=(stream,))"


def spawn_stream(seed, stream_id):
    """Return an independent np.random.Generator for the named substream."""
    if stream_id not in STREAM_IDS:
        raise ValueError(
            "unknown stream_id %r (expected one of %s)"
            % (stream_id, sorted(STREAM_IDS))
        )
    ss = np.random.SeedSequence(int(seed), spawn_key=(STREAM_IDS[stream_id],))
    return np.random.Generator(np.random.PCG64(ss))


def random_subset(rng, n, m):
    """Uniformly random size-m subset of [0, n), sorted ascending."""
    if not 0 <= m <= n:
        raise ValueError("subset size %d out of range for n=%d" % (m, n))
    idx = rng.choice(n, size=m, replace=False)
    idx.sort()
    return idx


def nnz(v):
    return int(np.count_nonzero(v))


def require_integers(obj, names, optional=()):
    """Refuse a named count of obj that is a bool or not an integer (or None, if optional)."""
    for name in names + optional:
        value = getattr(obj, name)
        integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        if not (integer or value is None and name in optional):
            raise ValueError("%s must be an integer, got %r" % (name, value))


class FunctionOracle:
    """Finite-sum objective F(theta) = (1/n) sum_i f_i(theta), accessed by
    value queries only.

    Subclasses implement ``component`` and set ``n`` and, when known, the
    dimension ``d`` (``run_solver`` rejects a config of another d); they
    may also provide ``component_gradient`` (read only by
    ``vr.ExactComponentEstimator``) and set ``minimizer`` when a
    ground-truth parameter is known (read only by tests).

    No method here charges IZO: ``vr.ZoComponentEstimator`` charges each
    estimate it makes, and direct calls are the uncounted handle used
    for out-of-band measurement (e.g. trace function values).

    Cost, for people who write a black box: a zeroth-order estimate calls
    ``component`` once per IZO, through ``map`` over the probe rows, and
    the default ``mean_value`` calls it n more times per distinct iterate
    for the divergence guard (a step that repeats theta bytewise keeps its
    F, so ``component`` must be a function of (i, theta), as reproducible
    runs already require). On small inputs (tens of coordinates or classes)
    numpy's per-call overhead, not the arithmetic, sets that cost: even an
    extra Python frame or an ``X[i]`` view per call is a measurable share
    of it (``RidgeProblem`` caches its rows for that). A numpy reduction
    (``a.max()``, ``a.all()``, ``a.sum()``) costs about 2 us on tens of
    entries; ``a.tolist()`` once, then the builtin ``max`` or ``all``,
    gives the same values for less (but of equal floats ``max`` keeps the
    first and numpy the last, so a max of -0.0 and 0.0 differs). Sums keep
    ``np.add.reduce``, whose pairwise order the builtin ``sum`` does not
    follow, but ``math.isfinite(sum(lp))`` is an exact finiteness filter:
    a finite sum proves every entry finite, and only a non-finite one (nan,
    inf, or an overflow) needs ``all(map(math.isfinite, lp))``. Prefer
    in-place ufuncs over extra temporaries, ``a.dot(b)`` to ``a @ b`` on 1-D
    vectors (the same BLAS call at half the overhead), and Python floats
    to numpy scalars. ``CwAttackProblem.component`` (d = 48, 10 classes)
    costs about 7 us a call on a 2-vCPU Xeon VM, mostly such overhead.
    """

    n = None          # component count, set by subclass
    d = None          # dimension, set by subclass when known
    minimizer = None  # optional known parameter, for tests

    def component(self, i, theta):
        raise NotImplementedError

    def component_gradient(self, i, theta):
        raise NotImplementedError(
            "%s does not expose exact gradients" % type(self).__name__
        )

    def mean_value(self, theta):
        """F(theta), uncounted: n ``component`` calls. Subclasses may
        vectorize."""
        return sum(self.component(i, theta) for i in range(self.n)) / self.n
