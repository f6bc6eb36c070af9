import numpy as np
import pytest

from zoht.core import spawn_stream
from zoht.ht import hard_threshold
from zoht.problems import ridge_synthetic
from zoht.vr import (
    LAW_P_SAGA,
    LAW_SVRG_VARIANT,
    BlockMemo,
    ExactComponentEstimator,
    ZoComponentEstimator,
    draw_update_set,
    init_gradient_memory,
    memory_update,
    pm_gradient,
    sarah_init,
    sarah_step,
    svrg_gradient,
    take_snapshot,
)
from zoht.zo import ZoEstimatorConfig


class _FixedUniformRng:
    """Stub for the update-set stream: uniform() always returns ``value``."""

    def __init__(self, value):
        self.value = value

    def uniform(self):
        return self.value


def _zo_estimator(problem, q=10, mu=1e-5, seed=0, shared=False):
    return ZoComponentEstimator(
        problem,
        ZoEstimatorConfig(q=q, s2=problem.d, mu=mu, d=problem.d, shared_directions=shared),
        spawn_stream(seed, "directions"),
    )


def test_svrg_variant_empty_branch_leaves_memory_untouched():
    problem = ridge_synthetic(4, 3, 0.1, spawn_stream(1, "data-gen"))
    est = _zo_estimator(problem)
    mem = init_gradient_memory(est, np.zeros(3), p=1, law=LAW_SVRG_VARIANT)
    table_before = mem.table.copy()
    izo_before = est.izo
    chosen = draw_update_set(mem, _FixedUniformRng(0.99))
    memory_update(mem, np.ones(3), est, chosen)
    assert chosen.size == 0
    np.testing.assert_array_equal(mem.table, table_before)
    assert est.izo == izo_before


def test_svrg_variant_full_branch_refreshes_all():
    problem = ridge_synthetic(4, 3, 0.1, spawn_stream(1, "data-gen"))
    est = _zo_estimator(problem)
    mem = init_gradient_memory(est, np.zeros(3), p=1, law=LAW_SVRG_VARIANT)
    izo_before = est.izo
    chosen = draw_update_set(mem, _FixedUniformRng(0.0))
    memory_update(mem, np.ones(3), est, chosen)
    assert chosen.size == 4
    assert est.izo - izo_before == 4 * est.cfg.izo_per_estimate


def test_p_saga_full_refresh_when_p_equals_n():
    problem = ridge_synthetic(5, 3, 0.1, spawn_stream(2, "data-gen"))
    est = _zo_estimator(problem)
    mem = init_gradient_memory(est, np.zeros(3), p=5, law=LAW_P_SAGA)
    table_before = mem.table.copy()
    chosen = draw_update_set(mem, spawn_stream(3, "memory-sets"))
    memory_update(mem, np.ones(3), est, chosen)
    assert chosen.size == 5
    assert not np.allclose(mem.table, table_before)


def test_marginal_update_probability():
    # p-saga with p=1, n=4: each index refreshed in fraction 1/4 of
    # 4e4 iterations, within 3 sigma binomial tolerance.
    problem = ridge_synthetic(4, 2, 0.1, spawn_stream(4, "data-gen"))
    est = ExactComponentEstimator(problem)  # cheap rows; law is what matters
    mem = init_gradient_memory(est, np.zeros(2), p=1, law=LAW_P_SAGA)
    rng = spawn_stream(5, "memory-sets")
    iters = 40_000
    counts = np.zeros(4)
    theta = np.zeros(2)
    for _ in range(iters):
        chosen = draw_update_set(mem, rng)
        memory_update(mem, theta, est, chosen)
        for j in chosen:
            counts[j] += 1
    p = 0.25
    tol = 3.0 * np.sqrt(iters * p * (1 - p))
    assert np.all(np.abs(counts - iters * p) <= tol)


def test_pm_gradient_after_full_refresh_equals_mean_gradient():
    # exact-gradient stub: fresh term cancels the stored row, leaving the
    # table mean, which is the true mean gradient after a full refresh
    problem = ridge_synthetic(6, 4, 0.2, spawn_stream(6, "data-gen"))
    est = ExactComponentEstimator(problem)
    theta = np.array([0.3, -0.1, 0.7, 0.0])
    mem = init_gradient_memory(est, theta, p=6, law=LAW_P_SAGA)
    for i_r in range(6):
        g = pm_gradient(mem, theta, i_r, est)
        np.testing.assert_allclose(g, problem.mean_gradient(theta), atol=1e-12)


def test_pm_gradient_zero_variance_linear_two_components():
    class TwoLinear:
        n, d = 2, 1
        minimizer = None

        def component(self, i, theta):
            return float((2.0, -3.0)[i] * theta[0])

        def component_gradient(self, i, theta):
            return np.array([(2.0, -3.0)[i]])

        def mean_gradient(self, theta):
            return np.array([-0.5])

    est = ExactComponentEstimator(TwoLinear())
    mem = init_gradient_memory(est, np.zeros(1), p=1, law=LAW_P_SAGA)
    values = [pm_gradient(mem, np.array([1.0]), i, est)[0] for i in (0, 1)]
    assert values[0] == values[1] == -0.5


def test_pm_exhaustive_unbiasedness():
    # mean over all component indices equals the true mean gradient
    for n in (2, 5, 8):
        problem = ridge_synthetic(n, 4, 0.3, spawn_stream(10 + n, "data-gen"))
        est = ExactComponentEstimator(problem)
        theta0 = np.array([0.5, 0.0, -0.2, 0.1])
        mem = init_gradient_memory(est, theta0, p=1, law=LAW_P_SAGA)
        chosen = draw_update_set(mem, spawn_stream(n, "memory-sets"))
        memory_update(mem, np.zeros(4), est, chosen)
        theta = np.array([-0.4, 0.8, 0.0, 0.3])
        mean_g = np.mean(
            [pm_gradient(mem, theta, i, est) for i in range(n)], axis=0
        )
        np.testing.assert_allclose(mean_g, problem.mean_gradient(theta), atol=1e-12)


def test_memory_mean_consistency():
    problem = ridge_synthetic(7, 3, 0.1, spawn_stream(20, "data-gen"))
    est = _zo_estimator(problem, q=5)
    mem = init_gradient_memory(est, np.zeros(3), p=2, law=LAW_P_SAGA)
    rng = spawn_stream(21, "memory-sets")
    for t in range(50):
        memory_update(mem, np.full(3, 0.1 * t), est, draw_update_set(mem, rng))
        assert np.max(np.abs(mem.mean - mem.table.mean(axis=0))) <= 1e-10


def test_svrg_gradient_at_anchor_with_shared_directions():
    problem = ridge_synthetic(5, 3, 0.2, spawn_stream(30, "data-gen"))
    est = _zo_estimator(problem, shared=True)
    theta = np.array([0.2, -0.5, 0.1])
    snap = take_snapshot(est, theta)
    for i_t in range(5):
        g = svrg_gradient(snap, theta, i_t, est)
        np.testing.assert_array_equal(g, snap.anchor_grad)


def test_svrg_exhaustive_unbiasedness():
    for n in (2, 6, 8):
        problem = ridge_synthetic(n, 3, 0.4, spawn_stream(40 + n, "data-gen"))
        est = ExactComponentEstimator(problem)
        anchor = np.array([0.1, 0.2, -0.3])
        snap = take_snapshot(est, anchor)
        theta = np.array([-0.7, 0.0, 0.5])
        mean_g = np.mean(
            [svrg_gradient(snap, theta, i, est) for i in range(n)], axis=0
        )
        np.testing.assert_allclose(mean_g, problem.mean_gradient(theta), atol=1e-12)


def test_svrg_izo_cost():
    problem = ridge_synthetic(4, 3, 0.1, spawn_stream(50, "data-gen"))
    est = _zo_estimator(problem, q=10)
    snap = take_snapshot(est, np.zeros(3))
    before = est.izo
    svrg_gradient(snap, np.ones(3), 2, est)
    assert est.izo - before == 22


def test_sarah_step_at_same_point_with_shared_directions():
    problem = ridge_synthetic(4, 3, 0.2, spawn_stream(60, "data-gen"))
    est = _zo_estimator(problem, shared=True)
    theta = np.array([0.4, 0.0, -0.2])
    state = sarah_init(est, theta)
    g, new_state = sarah_step(state, theta, 1, est)
    np.testing.assert_array_equal(g, state.anchor_grad)
    np.testing.assert_array_equal(new_state.anchor, theta)


def test_sarah_single_component_telescopes():
    problem = ridge_synthetic(1, 3, 0.1, spawn_stream(61, "data-gen"), standardize=False)
    est = ExactComponentEstimator(problem)
    theta0 = np.zeros(3)
    state = sarah_init(est, theta0)
    theta1 = np.array([0.3, -0.1, 0.2])
    g, _ = sarah_step(state, theta1, 0, est)
    np.testing.assert_allclose(g, problem.mean_gradient(theta1), atol=1e-12)


def test_sarah_conditional_bias_witness():
    # After one inner step the recursion's conditional mean (exhaustive
    # over the second index, first index fixed) misses the true gradient
    # by exactly the inherited first-step residual, which is nonzero for
    # generic two-component quadratics. The snapshot estimator has no
    # such residual: its conditional mean is exact everywhere.
    # standardize=False: with n=2 centered columns the two rows are exact
    # negatives, the component Hessians coincide, and the bias vanishes
    problem = ridge_synthetic(2, 3, 0.3, spawn_stream(62, "data-gen"), standardize=False)
    est = ExactComponentEstimator(problem)
    eta, k = 0.1, 2
    theta0 = np.array([0.5, -0.5, 0.25])
    state0 = sarah_init(est, theta0)
    theta1 = hard_threshold(theta0 - eta * state0.anchor_grad, k)

    worst = 0.0
    for i1 in (0, 1):
        g1, state1 = sarah_step(state0, theta1, i1, est)
        theta2 = hard_threshold(theta1 - eta * g1, k)
        cond_mean = np.mean(
            [sarah_step(state1, theta2, i2, est)[0] for i2 in (0, 1)], axis=0
        )
        residual = cond_mean - problem.mean_gradient(theta2)
        inherited = g1 - problem.mean_gradient(theta1)
        np.testing.assert_allclose(residual, inherited, atol=1e-12)
        worst = max(worst, float(np.linalg.norm(residual)))
    assert worst > 1e-6  # the bias witness

    # contrast: svrg conditional mean matches the true gradient exactly
    snap = take_snapshot(est, theta0)
    for th in (theta1,):
        mean_g = np.mean([svrg_gradient(snap, th, i, est) for i in (0, 1)], axis=0)
        np.testing.assert_allclose(mean_g, problem.mean_gradient(th), atol=1e-12)


def test_variance_reduction_witness_small():
    # near the ridge optimum the snapshot estimator's spread is far below
    # the plain per-component estimate's spread
    problem = ridge_synthetic(10, 5, 0.5, spawn_stream(70, "data-gen"))
    cfg = ZoEstimatorConfig(q=50, s2=5, mu=1e-5, d=5)
    theta_near = np.linalg.lstsq(
        problem.X.T @ problem.X + problem.lam * np.eye(5) * problem.n / 2.0,
        problem.X.T @ problem.y,
        rcond=None,
    )[0]
    est = ZoComponentEstimator(problem, cfg, spawn_stream(71, "directions"))
    snap = take_snapshot(est, theta_near)
    idx = spawn_stream(72, "indices")
    plain = np.stack(
        [est.estimate(int(idx.integers(10)), theta_near) for _ in range(2000)]
    )
    reduced = np.stack(
        [
            svrg_gradient(snap, theta_near, int(idx.integers(10)), est)
            for _ in range(2000)
        ]
    )
    var_plain = float(np.mean(np.sum((plain - plain.mean(0)) ** 2, axis=1)))
    var_reduced = float(np.mean(np.sum((reduced - reduced.mean(0)) ** 2, axis=1)))
    assert var_reduced < var_plain


def test_memory_law_validation():
    problem = ridge_synthetic(3, 2, 0.1, spawn_stream(80, "data-gen"))
    est = ExactComponentEstimator(problem)
    with pytest.raises(ValueError):
        init_gradient_memory(est, np.zeros(2), p=1, law="bogus")
    mem = init_gradient_memory(est, np.zeros(2), p=1, law=LAW_P_SAGA)
    with pytest.raises(ValueError):
        pm_gradient(mem, np.zeros(2), 5, est)
    # the rules are checked before the full pass spends any IZO
    bad = ((0, LAW_P_SAGA, "p=0 n=3"), (4, LAW_P_SAGA, "p=4 n=3"), (1, "bogus", "bogus"))
    for p, law, match in bad:
        zo_est = _zo_estimator(problem)
        with pytest.raises(ValueError, match=match):
            init_gradient_memory(zo_est, np.zeros(2), p=p, law=law)
        assert zo_est.izo == 0


@pytest.mark.parametrize("s2", [40, 6])
@pytest.mark.parametrize("shift", ["one-draw", "buffered-uint32"])
def test_block_memo_serves_only_its_own_stream(s2, shift):
    # A generator one draw past the memo's stream, or at its state but for a
    # buffered uint32 (which s2 < d supports consume and s2 = d values do
    # not), must draw its own blocks and end where its own draws leave it.
    problem = ridge_synthetic(5, 40, 0.3, spawn_stream(3, "data-gen"))
    cfg = ZoEstimatorConfig(q=20, s2=s2, mu=1e-4, d=40)
    theta = np.zeros(40)

    def shifted():
        rng = spawn_stream(1, "directions")
        if shift == "one-draw":
            rng.standard_normal()
        else:
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 12345
            rng.bit_generator.state = state
        return rng

    def run(rng):
        # Two blocks of estimates (136 each at q = 20, s2 = 6; 20 at s2 = 40).
        est = ZoComponentEstimator(problem, cfg, rng)
        rows = est._block_rows // cfg.q
        grads = np.stack([est.estimate(0, theta) for _ in range(2 * rows)])
        return grads.tobytes(), rng.bit_generator.state

    want = run(shifted())
    with BlockMemo() as memo:
        own = run(spawn_stream(1, "directions"))
        arrays = [a for block in memo.blocks
                  for a in (block if isinstance(block, tuple) else (block,))]
        assert len(memo.blocks) == 2 and not any(a.flags.writeable for a in arrays)
        got = run(shifted())
    assert got == want != own


@pytest.mark.parametrize("other_d, other_seed", [(20, 1), (40, 2)])
def test_block_memo_serves_no_other_shape_or_stream(other_d, other_seed):
    # An estimator that takes block 1 after another one replaced the memo's
    # stream draws it itself. Blocks of (d, s2, rows) = (40, 40, 400) and
    # (20, 20, 800) both take 16,000 normals, so one stream passes the same
    # states under both shapes.
    def estimator(d, seed):
        problem = ridge_synthetic(5, d, 0.3, spawn_stream(3, "data-gen"))
        cfg = ZoEstimatorConfig(q=20, s2=d, mu=1e-4, d=d)
        return ZoComponentEstimator(problem, cfg, spawn_stream(seed, "directions"))

    def take(est, blocks):
        rows = est._block_rows // est.cfg.q
        theta = np.zeros(est.cfg.d)
        return [est.estimate(0, theta).tobytes() for _ in range(blocks * rows)]

    want = take(estimator(40, 1), 2)
    with BlockMemo():
        est = estimator(40, 1)
        got = take(est, 1)
        take(estimator(other_d, other_seed), 2)
        got += take(est, 1)
    assert got == want


def test_block_memo_leaves_other_generators_alone():
    # Only a PCG64 state is compared and kept: any other generator (MT19937's
    # state holds a key array) draws its own blocks, bit for bit as it would
    # outside a memo, and leaves the memo empty.
    problem = ridge_synthetic(5, 40, 0.3, spawn_stream(3, "data-gen"))
    cfg = ZoEstimatorConfig(q=20, s2=40, mu=1e-4, d=40)
    theta = np.zeros(40)

    def run():
        est = ZoComponentEstimator(problem, cfg, np.random.Generator(np.random.MT19937(5)))
        rows = est._block_rows // cfg.q
        return np.stack([est.estimate(0, theta) for _ in range(2 * rows)]).tobytes()

    want = run()
    with BlockMemo() as memo:
        assert run() == want
        assert memo.blocks == []
