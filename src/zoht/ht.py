"""Hard-thresholding operator: keep the k largest-magnitude coordinates,
zero the rest. Not non-expansive; the expansivity ratio against a sparse
target is bounded by 1 + 2*sqrt(kstar)/sqrt(k - kstar) (see theory.alpha).
"""

import numpy as np

from .core import nnz


def hard_threshold(v, k):
    """Top-k magnitude projection, as a new array: the k largest-magnitude
    entries of v, every other entry zero.

    Ties at the k-th magnitude keep the lower index (stable order on
    descending |v_i|), so the result is deterministic. k = 0 yields the
    zero vector. Pure: the caller counts NHT (``solvers._Run.descend``).
    """
    d = v.shape[0]
    if not 0 <= k <= d:
        raise ValueError("sparsity k=%d out of range for d=%d" % (k, d))
    # The array methods give the results of the np.zeros_like / np.argsort
    # wrappers without their per-call overhead.
    out = np.zeros(d, v.dtype)
    keep = (-np.abs(v)).argsort(kind="stable")[:k]
    # Zeros are not kept, so a -0.0 among the top k comes out as +0.0.
    keep = keep[v[keep] != 0.0]
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
