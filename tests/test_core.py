import numpy as np
import pytest

from zoht.core import FunctionOracle, nnz, random_subset, require_numbers, spawn_stream


def test_vector_helpers():
    assert float(np.array([1.0, 2.0]) @ np.array([3.0, 4.0])) == 11.0
    with pytest.raises(ValueError):  # binary ops require equal lengths
        np.array([1.0, 2.0, 3.0]) + np.array([1.0, 2.0, 3.0, 4.0])


def test_support_is_exact_zero_based():
    v = np.array([0.0, 1e-300, -0.0, 2.0])
    assert nnz(v) == 2


def test_spawn_stream_determinism():
    a = spawn_stream(7, "directions").standard_normal(100)
    b = spawn_stream(7, "directions").standard_normal(100)
    np.testing.assert_array_equal(a, b)


def test_streams_are_independent():
    a = spawn_stream(7, "directions").standard_normal(100)
    b = spawn_stream(7, "indices").standard_normal(100)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("value, kw, message", [
    (3, dict(integer=True, least=1), None),
    (np.int64(3), dict(integer=True, least=3), None),
    (np.uint8(0), dict(integer=True, least=0), None),
    (2, {}, None),
    (0.5, dict(least=0), None),
    (np.float32(-0.0), dict(least=0), None),
    (None, dict(optional=True), None),
    (None, dict(integer=True, optional=True), None),
    (True, dict(integer=True), "x must be an integer, got %r"),
    (np.True_, dict(integer=True), "x must be an integer, got %r"),
    (True, {}, "x must be a number, got %r"),
    (np.True_, {}, "x must be a number, got %r"),
    ("1", dict(integer=True), "x must be an integer, got %r"),
    ("1", {}, "x must be a number, got %r"),
    (None, dict(integer=True), "x must be an integer, got %r"),
    (None, {}, "x must be a number, got %r"),
    (1.0, dict(integer=True), "x must be an integer, got %r"),
    (1j, {}, "x must be a number, got %r"),
    (float("nan"), {}, "x must be finite, got %r"),
    (np.float64("inf"), dict(least=0), "x must be finite, got %r"),
    (-float("inf"), {}, "x must be finite, got %r"),
    (-0.5, dict(least=0), "x must be >= 0, got %r"),
    (99, dict(integer=True, least=100), "x must be >= 100, got %r"),
], ids=["int", "np-int", "np-uint8", "int-as-number", "float", "np-float32", "none-optional",
        "none-optional-int", "bool-int", "np-bool-int", "bool", "np-bool", "str-int", "str",
        "none-int", "none", "float-int", "complex", "nan", "inf", "-inf", "below-0", "below-100"])
def test_require_numbers_refuses_naming_the_field(value, kw, message):
    if message is None:
        require_numbers(x=value, **kw)
        return
    with pytest.raises(ValueError) as exc:
        require_numbers(ok=1000, x=value, **kw)
    assert str(exc.value) == message % (value,)


def test_unknown_stream_rejected():
    with pytest.raises(ValueError):
        spawn_stream(0, "nope")


def test_full_subset_forced():
    rng = spawn_stream(3, "memory-sets")
    np.testing.assert_array_equal(random_subset(rng, 5, 5), np.arange(5))


@pytest.mark.parametrize("m", [-1, 6])
def test_subset_size_out_of_range_refused(m):
    with pytest.raises(ValueError, match="^subset size %d out of range for n=5$" % m):
        random_subset(spawn_stream(3, "memory-sets"), 5, m)


def test_subset_sorted_and_unique():
    rng = spawn_stream(4, "memory-sets")
    for _ in range(200):
        s = random_subset(rng, 10, 4)
        assert len(set(s.tolist())) == 4
        assert np.all(np.diff(s) > 0)


def test_normal_stream_mean():
    # Monte Carlo oracle: |mean| over 1e5 draws within 0.02 of zero
    # (3 sigma is ~0.0095).
    draws = spawn_stream(11, "data-gen").standard_normal(100_000)
    assert abs(draws.mean()) < 0.02


class _ToyOracle(FunctionOracle):
    def __init__(self):
        self.n = 4

    def component(self, i, theta):
        return float(i + theta[0])


def test_oracle_mean_value():
    oracle = _ToyOracle()
    theta = np.array([1.0])
    # mean equals the arithmetic mean of components
    expected = np.mean([oracle.component(i, theta) for i in range(4)])
    assert abs(oracle.mean_value(theta) - expected) <= 1e-12 * oracle.n
