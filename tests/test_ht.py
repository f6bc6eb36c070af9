from itertools import combinations

import numpy as np
import pytest

from zoht.core import nnz, spawn_stream
from zoht.ht import expansivity_ratio, hard_threshold
from zoht.theory import alpha


def best_subset_mass(v, k):
    """Enumeration oracle: max retained l2 mass over all supports of
    size <= k, with the winning support (ties: lexicographically first,
    i.e. lowest indices)."""
    d = len(v)
    best, best_s = -1.0, ()
    for size in range(min(k, d) + 1):
        for s in combinations(range(d), size):
            mass = float(np.sum(np.asarray(v)[list(s)] ** 2))
            if mass > best + 1e-15:
                best, best_s = mass, s
    return best, best_s


def test_top2_magnitudes():
    out = hard_threshold(np.array([3.0, -5.0, 1.0, 0.0]), 2)
    np.testing.assert_array_equal(out, [3.0, -5.0, 0.0, 0.0])
    np.testing.assert_array_equal(np.flatnonzero(out), [0, 1])


def test_identity_when_sparse_enough():
    v = np.array([0.0, 2.0, 0.0, -1.0])
    np.testing.assert_array_equal(hard_threshold(v, 3), v)


def test_tie_breaks_to_lower_index():
    # oracle: enumerate 1-subsets; {0} and {1} tie at mass 4, keep {0}
    v = np.array([2.0, -2.0, 1.0])
    mass, _ = best_subset_mass(v, 1)
    out = hard_threshold(v, 1)
    np.testing.assert_array_equal(out, [2.0, 0.0, 0.0])
    assert float(np.sum(out**2)) == mass


def test_kept_signed_zero_comes_out_positive():
    # the top two by magnitude are indices 1 and 0; a zero entry is not
    # kept, so the -0.0 at index 0 does not reach the output
    out = hard_threshold(np.array([-0.0, 2.0, 0.0]), 2)
    assert out.tobytes() == np.array([0.0, 2.0, 0.0]).tobytes()
    np.testing.assert_array_equal(np.flatnonzero(out), [1])


def test_k_zero_and_k_too_large():
    v = np.array([1.0, -2.0])
    np.testing.assert_array_equal(hard_threshold(v, 0), [0.0, 0.0])
    with pytest.raises(ValueError):
        hard_threshold(v, 3)


def test_idempotence():
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = rng.integers(1, 12)
        k = int(rng.integers(0, d + 1))
        v = rng.standard_normal(d)
        once = hard_threshold(v, k)
        twice = hard_threshold(once, k)
        np.testing.assert_array_equal(once, twice)


def test_projection_optimality_small():
    rng = np.random.default_rng(6)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        v = rng.standard_normal(d)
        for k in range(d + 1):
            out = hard_threshold(v, k)
            best, _ = best_subset_mass(v, k)
            assert float(np.sum(out**2)) >= best - 1e-12


def test_permutation_equivariance_tie_free():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = int(rng.integers(2, 10))
        v = rng.standard_normal(d)  # ties have probability zero
        k = int(rng.integers(0, d + 1))
        perm = rng.permutation(d)
        lhs = hard_threshold(v[perm], k)
        rhs = hard_threshold(v, k)[perm]
        np.testing.assert_array_equal(lhs, rhs)


def test_expansivity_ratio_hand_example():
    v = np.array([3.0, 1.0, 0.5])
    target = np.array([1.0, 0.0, 0.0])
    ratio = expansivity_ratio(v, target, 2)
    assert ratio == pytest.approx(5.0 / 5.25, abs=1e-12)
    assert ratio <= alpha(2, 1) == 3.0


def test_ratio_one_when_already_sparse():
    v = np.array([2.0, -1.0, 0.0, 0.0])
    target = np.array([1.0, 0.0, 0.0, 0.0])
    assert expansivity_ratio(v, target, 3) == 1.0


def test_expansivity_bound_randomized():
    rng = np.random.default_rng(8)
    for _ in range(2000):
        d = int(rng.integers(2, 15))
        kstar = int(rng.integers(0, d))
        k = int(rng.integers(kstar + 1, d + 1))
        target = np.zeros(d)
        idx = rng.choice(d, size=kstar, replace=False)
        target[idx] = rng.standard_normal(kstar)
        kstar_eff = nnz(target)
        v = rng.standard_normal(d)
        if np.array_equal(v, target):
            continue
        assert expansivity_ratio(v, target, k) <= alpha(k, kstar_eff) + 1e-12


def test_expansivity_preconditions():
    v = np.array([1.0, 2.0])
    target = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        expansivity_ratio(v, target, 1)  # k <= nnz(target)
    with pytest.raises(ValueError):
        expansivity_ratio(target, target, 2)  # v == target


def _hard_threshold_reference(v, k):
    """The stable-sort formula hard_threshold used before its partition
    selection: the first k of the stable order of -|v|, zeros dropped."""
    out = np.zeros(v.shape[0], v.dtype)
    keep = (-np.abs(v)).argsort(kind="stable")[:k]
    keep = keep[v[keep] != 0.0]
    out[keep] = v[keep]
    return out


def _threshold_cases(rng, count):
    """(v, k) cases: d in [1, 1500], k in [0, d]; ties at the k-th
    magnitude, +-0.0, +-inf and nan (a few, more than d - k, all), in
    float64, float32 and int64."""
    for i in range(count):
        d = int(rng.integers(1, 1501 if i % 10 == 0 else 60))
        k = int(rng.integers(0, d + 1))
        kind = i % 7
        if kind == 0:
            v = rng.standard_normal(d)
        elif kind == 1:
            v = np.round(rng.standard_normal(d), 1)  # ties, +-0
        else:
            v = rng.integers(-3, 4, d) * rng.choice([1.0, -1.0], d)  # ties, +-0
        if kind == 3:
            v[rng.random(d) < 0.2] = rng.choice([np.inf, -np.inf])
        elif kind == 4:
            v[rng.random(d) < 0.1] = np.nan
        elif kind == 5:
            v[rng.permutation(d)[: d - k + 1 if k else d]] = np.nan
        elif kind == 6:
            v[:] = np.nan
        for dtype in (np.float64, np.float32, np.int64)[: 3 if kind == 2 else 2]:
            yield v.astype(dtype), k


def test_bits_match_reference_with_ties_signed_zeros_and_nan():
    cases = 0
    for v, k in _threshold_cases(spawn_stream(21, "data-gen"), 10_000):
        got = hard_threshold(v, k)
        want = _hard_threshold_reference(v, k)
        assert got.dtype == v.dtype
        assert got.tobytes() == want.tobytes(), (v, k)
        cases += 1
    assert cases >= 20_000
