import itertools
import math
import re

import numpy as np
import pytest

import zoht.vr
from zoht.core import nnz, spawn_stream
from zoht.problems import ridge_synthetic
from zoht.vr import ZoComponentEstimator
from zoht.zo import (
    NonFiniteValueError,
    ZoEstimatorConfig,
    _sample_supports,
    sample_directions,
    zo_gradient,
)


def densify(directions, d):
    """The (q, d) array of the directions in a (values, support) pair."""
    values, support = directions
    u = np.zeros((values.shape[0], d))
    np.put_along_axis(u, support, values, axis=1)
    return u


def test_config_validation():
    with pytest.raises(ValueError):
        ZoEstimatorConfig(q=0, s2=1, mu=0.1, d=3)
    with pytest.raises(ValueError):
        ZoEstimatorConfig(q=1, s2=4, mu=0.1, d=3)
    with pytest.raises(ValueError):
        ZoEstimatorConfig(q=1, s2=1, mu=0.0, d=3)


def test_direction_unit_norm_and_support():
    rng = spawn_stream(0, "directions")
    for s2 in (1, 2, 5):
        u = sample_directions(5, s2, 1, rng)
        u = (u if s2 == 5 else densify(u, 5))[0]
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
        assert nnz(u) <= s2


@pytest.mark.parametrize("s2", [20, 100])
def test_sparse_directions_own_their_entries(s2):
    # Both support branches (at d = 1000, s2 = 100 partitions (q, d) keys)
    # return (q, s2) arrays that own their memory, so a block of directions
    # holds 2*q*s2 entries and no more.
    values, support = sample_directions(1000, s2, 160, spawn_stream(2, "directions"))
    assert values.shape == support.shape == (160, s2)
    assert values.base is None and support.base is None


def test_axis_directions_uniform_s2_1():
    # d=3, s2=1: u must be one of +-e_j, each with probability 1/6.
    rng = spawn_stream(1, "directions")
    draws = 60_000
    counts = np.zeros(6)
    for _ in range(draws):
        u = densify(sample_directions(3, 1, 1, rng), 3)[0]
        j = int(np.flatnonzero(u)[0])
        assert abs(u[j]) == 1.0  # single-coordinate support normalizes to +-1
        counts[2 * j + (0 if u[j] > 0 else 1)] += 1
    p = 1.0 / 6.0
    tol = 3.0 * np.sqrt(draws * p * (1 - p))  # 3 sigma binomial
    assert np.all(np.abs(counts - draws * p) <= tol)


@pytest.mark.parametrize("d, s2", [(5, 2), (5, 4), (8, 4)])
def test_sparse_directions_uniform_support_and_isotropic(d, s2):
    # (5, 2) and (8, 4) take the redraw branch of the support sampler, (5, 4)
    # the random-keys branch. At (8, 4) a row of 4 draws repeats an index
    # with probability 1 - 8*7*6*5/8**4 = 0.59, so most rows go through the
    # per-entry redraw. Each support has probability 1/C(d, s2), and
    # E[u u^T] = I/d, since P(j in support) = s2/d and E[u_j^2 | j in it] = 1/s2.
    draws = 100_000
    u = densify(sample_directions(d, s2, draws, spawn_stream(20 + s2, "directions")), d)
    assert u.shape == (draws, d)
    assert np.all(np.count_nonzero(u, axis=1) == s2)
    assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) <= 1e-12
    supports = list(itertools.combinations(range(d), s2))
    code = (u != 0.0) @ (1 << np.arange(d))
    counts = np.array([np.count_nonzero(code == sum(1 << j for j in s)) for s in supports])
    assert counts.sum() == draws
    p = 1.0 / len(supports)
    tol = 3.0 * np.sqrt(draws * p * (1 - p))  # 3 sigma binomial
    assert np.all(np.abs(counts - draws * p) <= tol)
    second = u.T @ u / draws
    assert np.max(np.abs(second - np.eye(d) / d)) < 0.02


def _sample_supports_reference(d, s2, q, rng):
    """The redraw loop that re-sorts and re-checks every row each round;
    returns the supports and the number of redraw rounds."""
    idx = np.sort(rng.integers(0, d, size=(q, s2)), axis=1)
    rounds = 0
    while True:
        repeated = idx[:, 1:] == idx[:, :-1]
        count = np.count_nonzero(repeated)
        if not count:
            return idx, rounds
        idx[:, 1:][repeated] = rng.integers(0, d, size=count)
        idx.sort(axis=1)
        rounds += 1


def test_support_redraws_match_reference_loop():
    # Redrawing only the rows that still repeat must give the bits and the
    # stream position of the loop over every row, on the integer branch
    # s2(s2-1) <= 2d: s2 = 1, the boundary s2(s2-1) = 2d, and q up to 2000,
    # where some cases take three or more redraw rounds.
    cases = spawn_stream(30, "data-gen")
    rounds_seen = []
    for case in range(10_000):
        kind = case % 4
        if kind == 0:  # the boundary: d = s2(s2-1)/2
            s2 = int(cases.integers(3, 64))
            d = s2 * (s2 - 1) // 2
        else:
            d = int(np.exp(cases.uniform(0.0, np.log(2000.0))))
            top = min(d, int((1 + np.sqrt(1 + 8 * d)) / 2))
            s2 = 1 if kind == 1 else int(cases.integers(1, top + 1))
        assert s2 * (s2 - 1) <= 2 * d and s2 <= d
        q = 2000 if case % 500 == 3 else int(cases.integers(1, 40))
        rng = spawn_stream(case, "directions")
        ref = spawn_stream(case, "directions")
        got = _sample_supports(d, s2, q, rng)
        want, rounds = _sample_supports_reference(d, s2, q, ref)
        assert got.tobytes() == want.tobytes(), (d, s2, q)
        assert rng.bit_generator.state == ref.bit_generator.state, (d, s2, q)
        rounds_seen.append(rounds)
    assert max(rounds_seen) >= 3
    assert sum(r >= 3 for r in rounds_seen) >= 10


def test_full_support_draw_pinned():
    # s2 = d (every CLI default) draws exactly q*d standard normals and
    # divides each row by its norm: pinned bit for bit, stream position too.
    for d, q in ((1, 3), (5, 200), (30, 7)):
        rng = spawn_stream(19, "directions")
        u = sample_directions(d, d, q, rng)
        ref = spawn_stream(19, "directions")
        g = ref.standard_normal((q, d))
        assert u.tobytes() == (g / np.linalg.norm(g, axis=1)[:, None]).tobytes()
        assert rng.random() == ref.random()


class _ScaledNormals:
    """A generator whose standard normals are multiplied by ``scale``."""

    def __init__(self, rng, scale):
        self.rng, self.scale = rng, scale

    def standard_normal(self, shape):
        return self.rng.standard_normal(shape) * self.scale

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_direction_values_normalised_by_linalg_norm():
    # Row norms are np.linalg.norm's, bit for bit, on both direction forms
    # and at scales far from 1.
    shapes = ((10, 48, 48), (200, 5, 5), (50, 20, 20), (3, 1000, 1000),
              (50, 1000, 20), (10, 30, 4))
    for q, d, s2 in shapes:
        for scale in (1e-150, 1e-3, 1.0, 1e150):
            rng = _ScaledNormals(spawn_stream(22, "directions"), scale)
            u = sample_directions(d, s2, q, rng)
            values = u if s2 == d else u[0]
            ref = _ScaledNormals(spawn_stream(22, "directions"), scale)
            g = ref.standard_normal((q, s2))
            assert values.tobytes() == (g / np.linalg.norm(g, axis=1)[:, None]).tobytes()


class _ZeroRowFirst:
    """A generator whose first standard-normal block has row ``row`` zeroed."""

    def __init__(self, rng, row):
        self.rng, self.row, self.first = rng, row, True

    def standard_normal(self, shape):
        out = self.rng.standard_normal(shape)
        if self.first:
            out[self.row] = 0.0
            self.first = False
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("d, s2", [(6, 6), (40, 6)])
def test_zero_norm_row_is_redrawn_after_all_rows(d, s2):
    # The redraw of a zero row comes after all q rows of the first block.
    q, row = 5, 2
    u = sample_directions(d, s2, q, _ZeroRowFirst(spawn_stream(23, "directions"), row))
    values = u if s2 == d else u[0]
    ref = spawn_stream(23, "directions")
    g = ref.standard_normal((q, s2))
    g[row] = ref.standard_normal((1, s2))
    assert values.tobytes() == (g / np.linalg.norm(g, axis=1)[:, None]).tobytes()
    np.testing.assert_allclose(np.linalg.norm(values, axis=1), 1.0, rtol=1e-14)


def test_second_moment_isotropy_full_support():
    # E[u u^T] = I/d on the sphere; entrywise within 0.02 over 1e5 draws.
    rng = spawn_stream(2, "directions")
    u = sample_directions(4, 4, 100_000, rng)
    second = u.T @ u / u.shape[0]
    assert np.max(np.abs(second - np.eye(4) / 4.0)) < 0.02


def test_constant_function_gives_exact_zero():
    cfg = ZoEstimatorConfig(q=7, s2=2, mu=0.05, d=4)
    rng = spawn_stream(3, "directions")
    est = zo_gradient(lambda th: 4.25, np.ones(4), cfg,
                      sample_directions(cfg.d, cfg.s2, cfg.q, rng))
    np.testing.assert_array_equal(est, np.zeros(4))


def test_linear_unbiasedness_monte_carlo():
    # E[(d/mu)(f(th+mu u)-f(th)) u] = c for linear f with s2 = d.
    c = np.array([1.0, -2.0, 0.5])
    cfg = ZoEstimatorConfig(q=1, s2=3, mu=1e-3, d=3)
    rng = spawn_stream(4, "directions")
    n_draws = 100_000
    draws = np.empty((n_draws, 3))
    theta = np.zeros(3)
    for t in range(n_draws):
        draws[t] = zo_gradient(lambda th: float(c @ th), theta, cfg,
                               sample_directions(cfg.d, cfg.s2, cfg.q, rng))
    err = np.abs(draws.mean(axis=0) - c)
    tol = 3.0 * draws.std(axis=0) / np.sqrt(n_draws)
    assert np.all(err <= tol)


def test_axis_enumeration_matches_central_difference():
    # s2=1 exact expectation over the 4 directions +-e_0, +-e_1 equals the
    # central difference, which is exact for quadratics: (2, 4) at (1, 2).
    f = lambda th: float(th[0] ** 2 + th[1] ** 2)
    theta = np.array([1.0, 2.0])
    cfg = ZoEstimatorConfig(q=1, s2=1, mu=0.1, d=2)
    total = np.zeros(2)
    for j in range(2):
        for sign in (1.0, -1.0):
            e = np.zeros((1, 2))
            e[0, j] = sign
            total += zo_gradient(f, theta, cfg, directions=e)
    np.testing.assert_allclose(total / 4.0, [2.0, 4.0], atol=1e-12)


def test_izo_accounting():
    class Square:
        n = 1

        def component(self, i, theta):
            return float(theta @ theta)

    cfg = ZoEstimatorConfig(q=9, s2=2, mu=0.01, d=4)
    est = ZoComponentEstimator(Square(), cfg, spawn_stream(6, "directions"))
    est.estimate(0, np.ones(4))
    assert est.izo == 10 == cfg.izo_per_estimate


def test_probe_blocks_match_direct_formula():
    # d = 3000, q = 5: all five probe points are rows of one (q, d) array.
    # Given the dense directions, the estimate must equal the direct
    # formula bit for bit.
    d, q, mu = 3000, 5, 1e-3
    f = lambda th: float(np.sin(th) @ np.arange(1.0, d + 1.0))
    theta = np.linspace(-1.0, 1.0, d)
    pair = sample_directions(d, 7, q, spawn_stream(24, "directions"))
    dirs = densify(pair, d)
    cfg = ZoEstimatorConfig(q=q, s2=7, mu=mu, d=d)
    est = zo_gradient(f, theta, cfg, directions=dirs)
    values = np.array([f(p) for p in theta + mu * dirs])
    expected = (d / (q * mu)) * ((values - f(theta)) @ dirs)
    assert est.tobytes() == expected.tobytes()

    # Given the (values, support) pair, f sees the same points byte for
    # byte, with a -0.0 of theta off the support turned into +0.0 as in
    # the dense sum. The sum over directions is a bincount instead of a
    # matrix product, so the estimate matches to within 1e-12 of its
    # largest entry.
    outside = np.flatnonzero(np.all(dirs == 0.0, axis=0))[0]
    theta[outside] = -0.0
    seen = []
    est = zo_gradient(lambda th: seen.append(th.copy()) or f(th), theta, cfg,
                      directions=pair)
    points = theta + mu * dirs
    assert np.signbit(points[:, outside]).sum() == 0
    assert len(seen) == q + 1 and seen[0].tobytes() == theta.tobytes()
    assert all(p.tobytes() == r.tobytes() for p, r in zip(seen[1:], points))
    values = np.array([f(p) for p in points])
    expected = (d / (q * mu)) * ((values - f(theta)) @ dirs)
    np.testing.assert_allclose(est, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())


def test_support_containment_exact():
    cfg = ZoEstimatorConfig(q=3, s2=2, mu=0.01, d=10)
    rng = spawn_stream(7, "directions")
    dirs = densify(sample_directions(10, 2, 3, rng), 10)
    est = zo_gradient(lambda th: float(th @ th), np.ones(10), cfg, directions=dirs)
    outside = np.flatnonzero(np.all(dirs == 0.0, axis=0))
    assert outside.size >= 10 - 3 * 2
    np.testing.assert_array_equal(est[outside], 0.0)


def test_scaling_exact_for_power_of_two():
    f = lambda th: float(np.sin(th).sum())
    theta = np.array([0.3, -0.7, 1.1])
    cfg = ZoEstimatorConfig(q=5, s2=3, mu=0.01, d=3)
    for a in (2.0, 0.5, -4.0):
        g1 = zo_gradient(f, theta, cfg,
                         sample_directions(cfg.d, cfg.s2, cfg.q, spawn_stream(8, "directions")))
        g2 = zo_gradient(
            lambda th: a * f(th), theta, cfg,
            sample_directions(cfg.d, cfg.s2, cfg.q, spawn_stream(8, "directions"))
        )
        np.testing.assert_array_equal(g2, a * g1)


def test_scaling_general_factor_close():
    f = lambda th: float(np.cos(th).sum())
    theta = np.array([0.2, 0.4])
    cfg = ZoEstimatorConfig(q=5, s2=2, mu=0.01, d=2)
    g1 = zo_gradient(f, theta, cfg,
                     sample_directions(cfg.d, cfg.s2, cfg.q, spawn_stream(9, "directions")))
    g2 = zo_gradient(
        lambda th: 3.7 * f(th), theta, cfg,
        sample_directions(cfg.d, cfg.s2, cfg.q, spawn_stream(9, "directions"))
    )
    np.testing.assert_allclose(g2, 3.7 * g1, rtol=1e-12)


def test_smoothing_bias_decay():
    # For f = ||theta||^2 the forward difference is unbiased in
    # expectation; the estimated bias at mu=1e-2 must not exceed the one
    # at mu=1e-1 beyond Monte Carlo noise.
    theta = np.array([0.5, -1.0, 0.25])
    true_grad = 2.0 * theta
    f = lambda th: float(th @ th)
    biases, sigmas = [], []
    for mu, seed in ((1e-1, 10), (1e-2, 11)):
        cfg = ZoEstimatorConfig(q=1, s2=3, mu=mu, d=3)
        rng = spawn_stream(seed, "directions")
        draws = np.stack(
            [zo_gradient(f, theta, cfg, sample_directions(cfg.d, cfg.s2, cfg.q, rng))
             for _ in range(100_000)]
        )
        biases.append(float(np.linalg.norm(draws.mean(axis=0) - true_grad)))
        sigmas.append(float(np.linalg.norm(draws.std(axis=0))) / np.sqrt(len(draws)))
    assert biases[1] <= biases[0] + 3.0 * (sigmas[0] + sigmas[1])


def test_frozen_directions_shape_checked():
    cfg = ZoEstimatorConfig(q=3, s2=2, mu=0.1, d=4)
    with pytest.raises(ValueError, match="directions shape"):
        zo_gradient(lambda th: 0.0, np.zeros(4), cfg,
                    directions=np.zeros((2, 4)))
    # A (values, support) pair must be two (q, s2) arrays.
    with pytest.raises(ValueError, match="directions shape"):
        zo_gradient(lambda th: 0.0, np.zeros(4), cfg,
                    directions=(np.ones((3, 2)), np.zeros((3, 3), dtype=np.intp)))
    # An rng where the directions go is refused by the same check.
    with pytest.raises(ValueError, match=r"directions shape \(\) does not match"):
        zo_gradient(lambda th: 0.0, np.zeros(4), cfg, spawn_stream(12, "directions"))


@pytest.mark.parametrize("theta", [np.zeros(3), np.zeros((1, 4))])
def test_theta_shape_checked(theta):
    cfg = ZoEstimatorConfig(q=3, s2=4, mu=0.1, d=4)
    with pytest.raises(ValueError, match=r"^theta shape %s does not match d=4$"
                       % re.escape(str(theta.shape))):
        zo_gradient(lambda th: 0.0, theta, cfg, directions=np.ones((3, 4)))


@pytest.mark.parametrize("s2", [0, 5])
def test_sample_directions_refuses_s2_outside_1_to_d(s2):
    with pytest.raises(ValueError, match=r"^need 1 <= s2 <= d, got s2=%d d=4$" % s2):
        sample_directions(4, s2, 3, spawn_stream(12, "directions"))


def test_degenerate_mu_rejected():
    cfg = ZoEstimatorConfig(q=1, s2=1, mu=1e-14, d=2)
    with pytest.raises(ValueError):
        zo_gradient(lambda th: 0.0, np.zeros(2), cfg,
                    sample_directions(cfg.d, cfg.s2, cfg.q, spawn_stream(12, "directions")))
    # The floor scales with the iterate: 1e-12 * (1 + 1e4) ~ 1.0001e-8 at
    # theta = 1e4 * e_1, so mu = 1e-8 is below it and mu = 2e-8 above it.
    theta = np.array([1e4, 0.0])
    with pytest.raises(ValueError, match="numeric floor"):
        zo_gradient(lambda th: 0.0, theta, ZoEstimatorConfig(q=1, s2=1, mu=1e-8, d=2),
                    sample_directions(2, 1, 1, spawn_stream(12, "directions")))
    g = zo_gradient(lambda th: 0.0, theta, ZoEstimatorConfig(q=1, s2=1, mu=2e-8, d=2),
                    sample_directions(2, 1, 1, spawn_stream(12, "directions")))
    np.testing.assert_array_equal(g, [0.0, 0.0])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_theta_refused_before_any_query(bad):
    cfg = ZoEstimatorConfig(q=3, s2=2, mu=1e-4, d=4)
    theta = np.array([0.5, bad, 0.0, 1.0])
    seen = []
    with pytest.raises(ValueError, match="theta is not finite") as exc:
        zo_gradient(seen.append, theta, cfg,
                    sample_directions(cfg.d, cfg.s2, cfg.q, spawn_stream(12, "directions")))
    assert not isinstance(exc.value, NonFiniteValueError)
    assert seen == []


def test_non_finite_value_carries_point():
    cfg = ZoEstimatorConfig(q=2, s2=2, mu=0.1, d=2)
    rng = spawn_stream(13, "directions")
    with pytest.raises(NonFiniteValueError) as exc:
        zo_gradient(
            lambda th: float("nan") if th[0] != 0.5 else 1.0,
            np.array([0.5, 0.5]),
            cfg,
            sample_directions(cfg.d, cfg.s2, cfg.q, rng),
        )
    assert exc.value.point.shape == (2,)

    # s2 < d: the point is the failing probe point theta + mu * u_i, not theta.
    cfg = ZoEstimatorConfig(q=4, s2=2, mu=0.1, d=5)
    theta = np.full(5, 0.5)
    values, support = sample_directions(5, 2, 4, spawn_stream(13, "directions"))
    with pytest.raises(NonFiniteValueError) as exc:
        zo_gradient(lambda th: float("nan") if th[2] != 0.5 else 1.0,
                    theta, cfg, directions=(values, support))
    bad = next(i for i in range(4) if 2 in support[i])
    expected = densify((values, support), 5)[bad] * 0.1 + theta
    assert exc.value.point.tobytes() == expected.tobytes()
    assert not np.array_equal(exc.value.point, theta)

    # d = 3000: a late probe fails, and the error carries the row of the
    # probe array that f saw, dense (s2 = d) and sparse (s2 < d) alike.
    theta = spawn_stream(13, "data-gen").standard_normal(3000)
    for s2, bad in ((3000, 3), (20, 4)):
        cfg = ZoEstimatorConfig(q=5, s2=s2, mu=0.1, d=3000)
        directions = sample_directions(3000, s2, 5, spawn_stream(13, "directions"))
        dense = directions if s2 == 3000 else densify(directions, 3000)
        seen = []

        def f(th):
            seen.append(th.copy())
            return float("nan") if len(seen) == bad + 2 else 1.0

        with pytest.raises(NonFiniteValueError) as exc:
            zo_gradient(f, theta, cfg, directions=directions)
        assert exc.value.point.tobytes() == seen[bad + 1].tobytes()
        assert exc.value.point.tobytes() == (dense[bad] * 0.1 + theta).tobytes()


def _item_assignment_reference(f, theta, directions, mu):
    """zo_gradient's dense formula with one ``fvals[i] = f(point)`` per probe."""
    q, d = directions.shape
    points = mu * directions
    points += theta
    base = f(theta)
    fvals = np.empty(q)
    for i, point in enumerate(points):
        fvals[i] = f(point)
    return (d / (q * mu)) * ((fvals - base) @ directions)


@pytest.mark.parametrize("convert", [
    float, np.float64, np.float32, np.array,
    lambda v: int(1e6 * v), lambda v: bool(v > 0.3),
], ids=["float", "float64", "float32", "0d-array", "int", "bool"])
def test_probe_values_convert_as_item_assignment(convert):
    cfg = ZoEstimatorConfig(q=7, s2=4, mu=0.1, d=4)
    theta = np.array([0.3, -0.2, 0.5, 0.1])
    directions = sample_directions(4, 4, 7, spawn_stream(20, "directions"))

    def f(th):
        return convert(float(th.dot(th)) - 0.2)

    g = zo_gradient(f, theta, cfg, directions=directions)
    want = _item_assignment_reference(f, theta, directions, cfg.mu)
    assert g.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_probe_value_raised_at_every_position(bad):
    cfg = ZoEstimatorConfig(q=4, s2=3, mu=0.1, d=3)
    theta = np.array([0.5, -1.0, 2.0])
    directions = sample_directions(3, 3, 4, spawn_stream(22, "directions"))
    for pos in range(4):
        seen = []

        def f(th):
            seen.append(th.copy())
            return bad if len(seen) == pos + 2 else 1.0

        with pytest.raises(NonFiniteValueError) as exc:
            zo_gradient(f, theta, cfg, directions=directions)
        assert exc.value.value == bad
        assert exc.value.point.tobytes() == seen[pos + 1].tobytes()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_finite_probe_values_whose_sum_overflows_are_accepted(sign):
    cfg = ZoEstimatorConfig(q=7, s2=4, mu=10.0, d=4)
    theta = np.array([0.3, -0.2, 0.5, 0.1])
    directions = sample_directions(4, 4, 7, spawn_stream(23, "directions"))

    def f(th):  # between 8e307 and 1e308 in magnitude
        return sign * 1e307 * (9.0 + math.tanh(0.01 * float(th.dot(th)) - 0.5))

    assert not math.isfinite(sum(f(p) for p in cfg.mu * directions + theta))
    with np.errstate(over="ignore"):  # the finiteness pre-check's sum overflows
        g = zo_gradient(f, theta, cfg, directions=directions)
    want = _item_assignment_reference(f, theta, directions, cfg.mu)
    assert g.tobytes() == want.tobytes()
    assert np.all(np.isfinite(g)) and np.any(g != 0.0)


def test_probe_value_of_shape_1_is_refused():
    cfg = ZoEstimatorConfig(q=3, s2=2, mu=0.1, d=2)
    with pytest.raises(ValueError):
        zo_gradient(lambda th: np.array([1.0]), np.zeros(2), cfg,
                    sample_directions(cfg.d, cfg.s2, cfg.q, spawn_stream(21, "directions")))


def test_non_finite_probe_raised_after_all_calls_in_order():
    cfg = ZoEstimatorConfig(q=5, s2=3, mu=0.1, d=3)
    theta = np.array([0.5, -1.0, 2.0])
    directions = sample_directions(3, 3, 5, spawn_stream(22, "directions"))
    for bad in range(5):
        seen = []

        def f(th):
            seen.append(th.copy())
            return float("nan") if len(seen) == bad + 2 else 1.0

        with pytest.raises(NonFiniteValueError) as exc:
            zo_gradient(f, theta, cfg, directions=directions)
        assert len(seen) == cfg.q + 1
        assert seen[0].tobytes() == theta.tobytes()
        points = 0.1 * directions + theta
        for row, point in zip(seen[1:], points):
            assert row.tobytes() == point.tobytes()
        assert exc.value.point.tobytes() == seen[bad + 1].tobytes()
        assert np.isnan(exc.value.value)

    # A non-finite base value is reported, at theta, after the q probes too.
    seen = []

    def g(th):
        seen.append(th.copy())
        return np.float32("inf") if len(seen) == 1 else float("nan")

    with pytest.raises(NonFiniteValueError) as exc:
        zo_gradient(g, theta, cfg, directions=directions)
    assert len(seen) == cfg.q + 1
    assert exc.value.point.tobytes() == theta.tobytes()
    assert type(exc.value.value) is np.float32


@pytest.mark.parametrize("bad, text", [
    (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
])
def test_non_finite_value_message_is_a_plain_float(bad, text):
    cfg = ZoEstimatorConfig(q=3, s2=2, mu=0.1, d=2)
    theta = np.array([0.5, 0.5])
    with pytest.raises(NonFiniteValueError) as exc:
        zo_gradient(lambda th: 1.0 if th.tobytes() == theta.tobytes() else bad,
                    theta, cfg,
                    sample_directions(cfg.d, cfg.s2, cfg.q, spawn_stream(13, "directions")))
    assert str(exc.value) == "non-finite objective value %s" % text


def test_full_gradient_reduces_to_single_for_n_1():
    problem = ridge_synthetic(1, 4, 0.1, spawn_stream(14, "data-gen"), standardize=False)
    cfg = ZoEstimatorConfig(q=6, s2=4, mu=1e-4, d=4)
    theta = np.ones(4)
    full = ZoComponentEstimator(
        problem, cfg, spawn_stream(15, "directions")
    ).full(theta).mean(axis=0)
    single = zo_gradient(
        lambda th: problem.component(0, th), theta, cfg,
        sample_directions(cfg.d, cfg.s2, cfg.q, spawn_stream(15, "directions"))
    )
    np.testing.assert_array_equal(full, single)


@pytest.mark.parametrize("n, d, s2, q", [
    (3, 40, 40, 100),    # s2 = d, four estimates per block
    (2, 300, 300, 60),   # s2 = d, q*d above 2**14: one estimate per block
    (20, 1000, 20, 50),  # s2 < d, integer supports, 16 estimates per block
    (10, 50, 20, 30),    # s2 < d, supports from uniform keys
])
def test_estimator_takes_directions_from_blocks(monkeypatch, n, d, s2, q):
    # Every estimate, full pass and shared pair takes the next q rows of a
    # block of B*q, B = max(1, 2**14 // (q*s2)); for s2 = d the rows are
    # the per-estimate draws byte for byte.
    used, blocks = [], []
    gradient, sampler = zoht.vr.zo_gradient, zoht.vr.sample_directions

    def record_gradient(f, theta, cfg, directions):
        used.append(directions)
        return gradient(f, theta, cfg, directions)

    def record_sampler(d_, s2_, rows, rng):
        blocks.append(rows * s2_)
        return sampler(d_, s2_, rows, rng)

    monkeypatch.setattr(zoht.vr, "zo_gradient", record_gradient)
    monkeypatch.setattr(zoht.vr, "sample_directions", record_sampler)
    problem = ridge_synthetic(n, d, 0.5, spawn_stream(31, "data-gen"))
    cfg = ZoEstimatorConfig(q=q, s2=s2, mu=1e-4, d=d, shared_directions=True)
    est = ZoComponentEstimator(problem, cfg, spawn_stream(32, "directions"))
    theta = np.zeros(d)
    for _ in range(3):
        est.estimate(1, theta)
        est.full(theta)
        est.estimate_pair(0, theta, theta + 1.0)
    assert est.izo == 3 * (1 + n + 2) * (q + 1)

    # Each round: one estimate, n for the full pass, one shared by the pair.
    slices = len(used) - 3
    ref = spawn_stream(32, "directions")
    if s2 == d:
        want = [sample_directions(d, d, q, ref) for _ in range(slices)]
    else:
        rows = max(1, 2 ** 14 // (q * s2)) * q
        want = []
        while len(want) < slices:
            values, support = sample_directions(d, s2, rows, ref)
            want += [(values[j:j + q], support[j:j + q]) for j in range(0, rows, q)]
    def raw(dirs):
        return b"".join(a.tobytes() for a in (dirs if s2 < d else (dirs,)))

    k = 0
    for call, dirs in enumerate(used):
        if call % (n + 3) == n + 2:  # the second estimate of a shared pair
            assert dirs is used[call - 1]
            continue
        assert raw(dirs) == raw(want[k]), call
        k += 1
    assert k == slices
    assert len(blocks) >= 2 and max(blocks) <= max(2 ** 14, q * s2)


def test_full_gradient_izo():
    problem = ridge_synthetic(10, 5, 0.5, spawn_stream(16, "data-gen"))
    cfg = ZoEstimatorConfig(q=200, s2=5, mu=1e-4, d=5)
    est = ZoComponentEstimator(problem, cfg, spawn_stream(17, "directions"))
    est.full(np.zeros(5))
    assert est.izo == 10 * 201 == 2010


def test_full_gradient_identical_linear_components():
    # all components identical and linear: expectation equals the slope
    class Linear:
        n = 3

        def component(self, i, theta):
            return float(theta[0] - 2.0 * theta[1])

    cfg = ZoEstimatorConfig(q=4, s2=2, mu=1e-4, d=2)
    estimator = ZoComponentEstimator(Linear(), cfg, spawn_stream(18, "directions"))
    draws = np.stack([estimator.full(np.zeros(2)).mean(axis=0) for _ in range(20_000)])
    err = np.abs(draws.mean(axis=0) - np.array([1.0, -2.0]))
    tol = 3.0 * draws.std(axis=0) / np.sqrt(len(draws))
    assert np.all(err <= tol)
