"""Hard-thresholding operator: keep the k largest-magnitude coordinates,
zero the rest. Not non-expansive; the expansivity ratio against a sparse
target is bounded by 1 + 2*sqrt(kstar)/sqrt(k - kstar) (see theory.alpha).
"""

import numpy as np

from .core import nnz


def hard_threshold(v, k):
    """Top-k magnitude projection, as a new array in v's dtype: the k
    largest-magnitude entries of v, every other entry zero.

    Ranking is the stable order of the keys -|v|: descending magnitude,
    nan below every number, ties to the lower index. Zeros are never
    kept, so a -0.0 among the top k comes out as +0.0; k = 0 yields the
    zero vector. One partition finds the k-th key, one comparison keeps
    the keys at or below it, and surplus ties at it go from the highest
    index down; with fewer than k numbers it sorts all keys instead.
    Pure: the caller counts NHT (``solvers._Run.descend``).
    """
    d = v.shape[0]
    if not 0 <= k <= d:
        raise ValueError("sparsity k=%d out of range for d=%d" % (k, d))
    # The array methods give the results of the np.partition / np.flatnonzero
    # / np.argsort wrappers without their per-call overhead.
    out = np.zeros(d, v.dtype)
    if not k:
        return out
    keys = -np.abs(v)
    part = keys.copy()
    part.partition(k - 1)
    kth = part[k - 1]
    if kth != kth:  # a nan key: fewer than k numbers
        keep = keys.argsort(kind="stable")[:k]
        keep = keep[v[keep] != 0]
    else:
        keep = (keys <= kth if kth else keys < kth).nonzero()[0]  # zeros never kept
        surplus = keep.shape[0] - k
        if surplus > 0:
            keep = np.delete(keep, (keys[keep] == kth).nonzero()[0][-surplus:])
    out[keep] = v[keep]
    return out


def expansivity_ratio(v, target, k):
    """||H_k(v) - target||^2 / ||v - target||^2 for a sparse target.

    Requires k > nnz(target) (the bound blows up at k = kstar) and
    v != target (zero denominator). Diagnostic only; no NHT charged.
    """
    kstar = nnz(target)
    if k <= kstar:
        raise ValueError("need k > nnz(target); got k=%d, nnz=%d" % (k, kstar))
    num = float(np.sum((hard_threshold(v, k) - target) ** 2))
    den = float(np.sum((v - target) ** 2))
    if den == 0.0:
        raise ValueError("v equals target; ratio undefined")
    return num / den
