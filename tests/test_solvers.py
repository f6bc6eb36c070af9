import gc
import itertools
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from zoht.core import FunctionOracle, nnz, spawn_stream
from zoht.harness import ExperimentSpec
from zoht.ht import hard_threshold
from zoht.problems import RidgeProblem, attack_surrogate_problem, ridge_synthetic
from zoht.solvers import (
    ALGORITHMS,
    DIVERGENCE_FACTOR,
    SolverConfig,
    expected_izo,
    gradient_squared_decomposition,
    run_solver,
)
from zoht.theory import TheoryParams
from zoht.vr import (
    ExactComponentEstimator,
    ZoComponentEstimator,
    svrg_gradient,
    take_snapshot,
)
from zoht.zo import ZoEstimatorConfig


class RepeatedQuadratic(FunctionOracle):
    """n identical components f(theta) = ||theta - target||^2."""

    def __init__(self, target, n):
        self.target = np.asarray(target, dtype=np.float64)
        self.n = n
        self.minimizer = self.target

    def component(self, i, theta):
        diff = theta - self.target
        return float(diff @ diff)

    def component_gradient(self, i, theta):
        return 2.0 * (theta - self.target)

    def mean_value(self, theta):
        return self.component(0, theta)


def _cfg(algorithm, *, eta, k, zo, budget, seed, **kw):
    return SolverConfig(
        algorithm=algorithm, eta=eta, k=k, zo=zo, izo_budget=budget, seed=seed, **kw
    )


def _zo_source(problem, zo, seed):
    """The zeroth-order source a run with this seed draws from."""
    return ZoComponentEstimator(problem, zo, spawn_stream(seed, "directions"))


def test_szoht_per_iteration_deltas():
    problem = ridge_synthetic(5, 4, 0.1, spawn_stream(0, "data-gen"))
    zo = ZoEstimatorConfig(q=10, s2=4, mu=1e-4, d=4)
    trace = run_solver(problem, _cfg("szoht", eta=0.01, k=2, zo=zo, budget=200, seed=1))
    izo = trace.column("izo")
    nht = trace.column("nht")
    assert np.all(np.diff(izo) == 11)
    assert np.all(np.diff(nht) == 1)
    assert izo[0] == 0 and nht[0] == 0
    # column() reads a typed column; it equals the array built from the rows
    for idx, name in enumerate(("izo", "nht", "fval", "nnz")):
        col = trace.column(name)
        assert col.dtype == (np.float64 if name == "fval" else np.int64), name
        np.testing.assert_array_equal(col, np.array([row[idx] for row in trace.rows]))


def test_long_trace_retains_at_most_40_bytes_per_row():
    # szoht at q = 1 steps every 2 IZO: 10,001 rows. Four typed columns
    # hold 32 bytes a row; a list of 4-tuples of Python scalars holds about 153.
    problem = ridge_synthetic(4, 3, 0.5, spawn_stream(0, "data-gen"))
    zo = ZoEstimatorConfig(q=1, s2=3, mu=1e-4, d=3)

    def run(budget):
        return run_solver(problem, _cfg("szoht", eta=0.05, k=2, zo=zo, budget=budget, seed=1))

    run(100)  # first-call allocations are not the trace's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run(20_000)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.rows) == 10_001 and not trace.diverged
    assert retained / len(trace.rows) <= 40


def test_zero_eta_freezes_after_first_threshold():
    problem = ridge_synthetic(4, 3, 0.2, spawn_stream(1, "data-gen"))
    zo = ZoEstimatorConfig(q=5, s2=3, mu=1e-4, d=3)
    trace = run_solver(problem, _cfg("szoht", eta=0.0, k=2, zo=zo, budget=120, seed=2))
    fvals = trace.column("fval")
    assert np.all(fvals == fvals[0])
    np.testing.assert_array_equal(trace.final_theta, np.zeros(3))


def test_fgzoht_izo_per_iteration():
    problem = ridge_synthetic(10, 5, 0.5, spawn_stream(2, "data-gen"))
    zo = ZoEstimatorConfig(q=200, s2=5, mu=1e-4, d=5)
    trace = run_solver(problem, _cfg("fgzoht", eta=0.05, k=3, zo=zo, budget=2010, seed=3))
    assert trace.nht == 1
    assert trace.izo == 2010


def test_fgzoht_matches_szoht_for_single_component():
    problem = ridge_synthetic(1, 3, 0.1, spawn_stream(3, "data-gen"), standardize=False)
    zo = ZoEstimatorConfig(q=8, s2=3, mu=1e-4, d=3)
    a = run_solver(problem, _cfg("szoht", eta=0.1, k=2, zo=zo, budget=100, seed=4))
    b = run_solver(problem, _cfg("fgzoht", eta=0.1, k=2, zo=zo, budget=100, seed=4))
    assert a.rows == b.rows
    np.testing.assert_array_equal(a.final_theta, b.final_theta)


def test_szoht_contracts_on_simple_quadratic():
    # exact gradient descent at eta=0.2 contracts by 0.6 per step; the
    # low-noise estimator keeps the iterate in the contraction basin
    target = np.array([0.0, 0.0, 1.3, 0.0, 0.0])
    problem = RepeatedQuadratic(target, n=4)
    zo = ZoEstimatorConfig(q=50, s2=5, mu=1e-6, d=5)
    trace = run_solver(
        problem, _cfg("szoht", eta=0.2, k=1, zo=zo, budget=20_000, seed=5)
    )
    assert np.linalg.norm(trace.final_theta - target) <= 1e-3


def test_fgzoht_monotone_decrease_small_eta():
    problem = ridge_synthetic(3, 4, 0.2, spawn_stream(4, "data-gen"))
    zo = ZoEstimatorConfig(q=500, s2=4, mu=1e-8, d=4)
    budget = 50 * 3 * 501
    trace = run_solver(
        problem, _cfg("fgzoht", eta=0.02, k=4, zo=zo, budget=budget, seed=6)
    )
    fvals = trace.column("fval")
    assert trace.nht == 50
    assert np.all(np.diff(fvals) <= 1e-6)


def test_pm_full_refresh_izo():
    problem = ridge_synthetic(6, 4, 0.3, spawn_stream(5, "data-gen"))
    zo = ZoEstimatorConfig(q=10, s2=4, mu=1e-4, d=4)
    trace = run_solver(
        problem,
        _cfg("pm-szht", eta=0.02, k=2, zo=zo, budget=800, seed=7, p=6),
    )
    izo = trace.column("izo")
    # init pass n(q+1)=66, then (n+1)(q+1)=77 per iteration
    assert izo[1] - izo[0] == 66 + 77
    assert np.all(np.diff(izo[1:]) == 77)
    assert expected_izo(6, trace) == trace.izo


def test_vr_epoch_izo_m_1():
    problem = ridge_synthetic(5, 3, 0.2, spawn_stream(6, "data-gen"))
    zo = ZoEstimatorConfig(q=10, s2=3, mu=1e-4, d=3)
    trace = run_solver(
        problem, _cfg("vr-szht", eta=0.02, k=2, zo=zo, budget=600, seed=8, m=1)
    )
    # per epoch: n(q+1) + 2(q+1) = 55 + 22
    izo = trace.column("izo")
    assert np.all(np.diff(izo) == 77)
    assert trace.epochs == trace.nht


def test_sarah_m1_is_full_gradient_epochs():
    problem = ridge_synthetic(4, 3, 0.2, spawn_stream(7, "data-gen"))
    zo = ZoEstimatorConfig(q=10, s2=3, mu=1e-4, d=3)
    trace = run_solver(
        problem, _cfg("sarah-szht", eta=0.02, k=2, zo=zo, budget=400, seed=9, m=1)
    )
    izo = trace.column("izo")
    assert np.all(np.diff(izo) == 4 * 11)  # one full pass per epoch, no recursion
    assert trace.nht == trace.epochs


def test_sarah_inner_step_cost():
    problem = ridge_synthetic(4, 3, 0.2, spawn_stream(8, "data-gen"))
    zo = ZoEstimatorConfig(q=10, s2=3, mu=1e-4, d=3)
    trace = run_solver(
        problem, _cfg("sarah-szht", eta=0.02, k=2, zo=zo, budget=500, seed=10, m=4)
    )
    izo = trace.column("izo")
    deltas = set(np.diff(izo).tolist())
    # inner recursion steps cost 22; epoch boundary rows show 44 (full
    # pass) and the free first step adjoins it
    assert 22 in deltas
    assert expected_izo(4, trace) == trace.izo


def _assert_one_row_per_step(trace):
    """izo strictly increases and row i is at nht i."""
    izo, nht = trace.column("izo"), trace.column("nht")
    assert np.all(np.diff(izo) > 0)
    np.testing.assert_array_equal(nht, np.arange(len(nht)))


def test_all_solvers_seed_deterministic_and_sparse():
    # full-support directions (s2 = d), sparse ones (s2 < d), and the
    # edge cases k = 0 (every iterate is zero) and n = 1
    cases = (
        (ridge_synthetic(6, 5, 0.3, spawn_stream(9, "data-gen")),
         ZoEstimatorConfig(q=12, s2=5, mu=1e-4, d=5), 3),
        (ridge_synthetic(6, 30, 0.3, spawn_stream(19, "data-gen")),
         ZoEstimatorConfig(q=12, s2=4, mu=1e-4, d=30), 3),
        (ridge_synthetic(6, 5, 0.3, spawn_stream(9, "data-gen")),
         ZoEstimatorConfig(q=12, s2=5, mu=1e-4, d=5), 0),
        (ridge_synthetic(1, 5, 0.3, spawn_stream(29, "data-gen"), standardize=False),
         ZoEstimatorConfig(q=12, s2=5, mu=1e-4, d=5), 3),
    )
    algos = ("szoht", "fgzoht", "pm-szht", "vr-szht", "sarah-szht")
    for (problem, zo, k), algo, shared in itertools.product(cases, algos, (False, True)):
        kw = {}
        if algo == "pm-szht":
            kw["p"] = min(2, problem.n)
        if algo in ("vr-szht", "sarah-szht"):
            kw["m"] = 3
        cfg = _cfg(algo, eta=0.05, k=k, zo=replace(zo, shared_directions=shared),
                   budget=1500, seed=11, **kw)
        t1 = run_solver(problem, cfg)
        t2 = run_solver(problem, cfg)
        assert t1.rows == t2.rows
        np.testing.assert_array_equal(t1.final_theta, t2.final_theta)
        assert np.all(t1.column("nnz")[1:] <= k)
        if k == 0:
            assert not t1.final_theta.any()
        assert expected_izo(problem.n, t1) == t1.izo
        assert t1.izo <= cfg.izo_budget
        assert t1.nht == t1.column("nht")[-1]
        _assert_one_row_per_step(t1)


def test_budget_is_a_ceiling_and_spent_to_the_last_unit():
    # a unit of work starts only if its whole cost fits, so no cell passes
    # its budget, a cell that does not diverge ends on a row at its final
    # izo, and what is left is less than the next unit would cost:
    # q+1 (szoht), n(q+1) (fgzoht), (p+1)(q+1) (pm, p-saga), an inner pair
    # 2(q+1), or at an epoch's end the next epoch's first step
    cases = (
        (ridge_synthetic(6, 5, 0.3, spawn_stream(9, "data-gen")), 5, (0.05, 1.0)),
        (ridge_synthetic(6, 30, 0.3, spawn_stream(19, "data-gen")), 4, (0.05, 1.0)),
        (attack_surrogate_problem(4, 12, 5, spawn_stream(0, "data-gen")), 12, (0.01,)),
    )
    algos = ("szoht", "fgzoht", "pm-szht", "vr-szht", "sarah-szht")
    q, m = 12, 3
    unit = q + 1
    diverged = 0
    for (problem, s2, etas), algo, shared, budget in itertools.product(
        cases, algos, (False, True), (1111, 1500)
    ):
        n = problem.n
        zo = ZoEstimatorConfig(q=q, s2=s2, mu=1e-4, d=problem.d, shared_directions=shared)
        for eta in etas:
            cfg = _cfg(algo, eta=eta, k=3, zo=zo, budget=budget, seed=41, m=m, p=2)
            trace = run_solver(problem, cfg)
            where = (problem.d, algo, shared, budget, eta)
            assert trace.izo <= budget, where
            if trace.diverged:
                diverged += 1
                continue
            assert trace.rows[-1][:2] == (trace.izo, trace.nht), where
            epoch_done = trace.nht == trace.epochs * m
            next_unit = {
                "szoht": unit,
                "fgzoht": n * unit,
                "pm-szht": 3 * unit,
                "vr-szht": (n + 2) * unit if epoch_done else 2 * unit,
                "sarah-szht": n * unit if epoch_done else 2 * unit,
            }[algo]
            assert budget - trace.izo < next_unit, where
    assert diverged > 0


class ScaledOracle(FunctionOracle):
    """``base`` with every value multiplied by ``factor`` (a power of two,
    so the scaling is exact)."""

    def __init__(self, base, factor):
        self.base, self.factor, self.n = base, factor, base.n

    def component(self, i, theta):
        return self.base.component(i, theta) * self.factor

    def mean_value(self, theta):
        return self.base.mean_value(theta) * self.factor


def test_power_of_two_scaling_is_exact():
    # f * 2^j run with eta * 2^-j takes the same path bit for bit: every
    # estimate scales by 2^j exactly, and eta * 2^-j undoes it. (The
    # guard level 1e12 (1 + |F0|) does not scale, so no run may diverge.)
    cases = (
        (ridge_synthetic(6, 5, 0.3, spawn_stream(9, "data-gen")), 5, 0.05),
        (ridge_synthetic(6, 30, 0.3, spawn_stream(19, "data-gen")), 4, 0.05),
        (attack_surrogate_problem(4, 12, 5, spawn_stream(0, "data-gen")), 12, 0.01),
    )
    algos = ("szoht", "fgzoht", "pm-szht", "vr-szht", "sarah-szht")
    for (problem, s2, eta), algo, (j, shared) in itertools.product(
        cases, algos, ((-3, False), (5, True))
    ):
        zo = ZoEstimatorConfig(q=12, s2=s2, mu=1e-4, d=problem.d, shared_directions=shared)
        kw = dict(k=3, zo=zo, budget=1500, seed=11, m=3, p=2)
        plain = run_solver(problem, _cfg(algo, eta=eta, **kw))
        scaled = run_solver(ScaledOracle(problem, 2.0 ** j),
                            _cfg(algo, eta=eta * 2.0 ** -j, **kw))
        assert not plain.diverged and not scaled.diverged
        assert scaled.final_theta.tobytes() == plain.final_theta.tobytes()
        for name in ("izo", "nht", "nnz"):
            np.testing.assert_array_equal(scaled.column(name), plain.column(name))
        np.testing.assert_array_equal(
            scaled.column("fval"), plain.column("fval") * 2.0 ** j
        )


class CountingRidge(RidgeProblem):
    """Ridge that counts ``component`` and ``mean_value`` calls. Its
    vectorised mean_value never calls component, so every counted
    component call is a probe."""

    calls = values = 0

    def component(self, i, theta):
        self.calls += 1
        return super().component(i, theta)

    def mean_value(self, theta):
        self.values += 1
        return super().mean_value(theta)


def _log_thresholds(monkeypatch, log):
    """Route solvers' hard_threshold through a wrapper that appends each
    output to ``log``."""

    def logging_threshold(v, k):
        log.append(hard_threshold(v, k))
        return log[-1]

    monkeypatch.setattr("zoht.solvers.hard_threshold", logging_threshold)


def _moved(iterates):
    """Number of iterates that differ bytewise from the one before."""
    return sum(a.tobytes() != b.tobytes() for a, b in zip(iterates, iterates[1:]))


def test_component_and_threshold_calls_match_trace(monkeypatch):
    # the tier-1 twin of the traced benchmark's self-check: one component
    # call per IZO and one hard_threshold call per NHT; and one mean_value
    # call per distinct iterate: theta = 0, then each step whose output
    # differs bytewise from the iterate before (here every step does)
    base = ridge_synthetic(6, 5, 0.3, spawn_stream(9, "data-gen"))
    zo = ZoEstimatorConfig(q=7, s2=5, mu=1e-4, d=5)
    iterates = []
    _log_thresholds(monkeypatch, iterates)
    algos = ("szoht", "fgzoht", "pm-szht", "vr-szht", "sarah-szht")
    for algo, shared in itertools.product(algos, (False, True)):
        problem = CountingRidge(base.X, base.y, base.lam)
        iterates[:] = [np.zeros(5)]
        cfg = _cfg(algo, eta=0.05, k=3, zo=replace(zo, shared_directions=shared),
                   budget=600, seed=4, m=3, p=2)
        trace = run_solver(problem, cfg)
        assert not trace.diverged
        assert problem.calls == trace.izo > 0
        assert len(iterates) - 1 == trace.nht == trace.column("nht")[-1] > 0
        assert _moved(iterates) == trace.nht
        assert problem.values == 1 + _moved(iterates)


@pytest.mark.parametrize("algo", ("szoht", "fgzoht", "pm-szht", "vr-szht", "sarah-szht"))
def test_k_zero_evaluates_the_objective_once(monkeypatch, algo):
    # k = 0 thresholds every step to theta = 0, the iterate F was taken at
    base = ridge_synthetic(6, 5, 0.3, spawn_stream(9, "data-gen"))
    problem = CountingRidge(base.X, base.y, base.lam)
    iterates = [np.zeros(5)]
    _log_thresholds(monkeypatch, iterates)
    zo = ZoEstimatorConfig(q=7, s2=5, mu=1e-4, d=5)
    trace = run_solver(problem, _cfg(algo, eta=0.05, k=0, zo=zo, budget=600, seed=4,
                                     m=3, p=2))
    assert len(iterates) - 1 == trace.nht > 0
    assert _moved(iterates) == 0
    assert problem.values == 1
    f0 = base.mean_value(np.zeros(5))
    assert all(fval == f0 for fval in trace.column("fval"))


def test_repeated_iterate_keeps_held_fval_at_hinge_floor(monkeypatch):
    # szoht on the attack: a sampled component at its hinge floor gives an
    # all-zero estimate, so many steps repeat the iterate; F is evaluated
    # only at those that move, and each row's fval is F at its iterate
    problem = attack_surrogate_problem(4, 48, 10, spawn_stream(0, "data-gen"))
    mean_value = problem.mean_value
    evaluated = []

    def counting_mean_value(theta):
        evaluated.append(theta)
        return mean_value(theta)

    problem.mean_value = counting_mean_value
    iterates = [np.zeros(48)]
    _log_thresholds(monkeypatch, iterates)
    zo = ZoEstimatorConfig(q=10, s2=48, mu=1e-3, d=48)
    trace = run_solver(problem, _cfg("szoht", eta=0.01, k=6, zo=zo, budget=600, seed=1))
    assert not trace.diverged
    assert len(iterates) - 1 == trace.nht == len(trace.rows) - 1
    assert 0 < _moved(iterates) < trace.nht
    assert len(evaluated) == 1 + _moved(iterates)
    for row, theta in zip(trace.rows, iterates):
        assert row[2] == mean_value(theta)
    np.testing.assert_array_equal(trace.final_theta, iterates[-1])


def test_izo_overcharge_caught_at_end_of_run(monkeypatch):
    problem = ridge_synthetic(5, 4, 0.1, spawn_stream(0, "data-gen"))
    zo = ZoEstimatorConfig(q=10, s2=4, mu=1e-4, d=4)
    estimate = ZoComponentEstimator.estimate

    def overcharging(self, i, theta, directions=None):
        self.izo += 1
        return estimate(self, i, theta, directions)

    monkeypatch.setattr(ZoComponentEstimator, "estimate", overcharging)
    with pytest.raises(RuntimeError, match="szoht: trace.izo 192 != expected_izo 176"):
        run_solver(problem, _cfg("szoht", eta=0.01, k=2, zo=zo, budget=200, seed=1))


def test_nnz_above_k_caught_at_end_of_run(monkeypatch):
    problem = ridge_synthetic(5, 4, 0.1, spawn_stream(0, "data-gen"))
    zo = ZoEstimatorConfig(q=10, s2=4, mu=1e-4, d=4)
    monkeypatch.setattr("zoht.solvers.hard_threshold", lambda v, k: v)
    with pytest.raises(RuntimeError, match="fgzoht: nnz 4 exceeds k = 2"):
        run_solver(problem, _cfg("fgzoht", eta=0.01, k=2, zo=zo, budget=200, seed=1))


def test_oracle_d_mismatch_rejected_before_any_query():
    problem = attack_surrogate_problem(4, 48, 10, spawn_stream(0, "data-gen"))
    calls = []
    component = problem.component

    def counting(i, theta):
        calls.append(i)
        return component(i, theta)

    problem.component = counting
    zo = ZoEstimatorConfig(q=10, s2=1, mu=1e-3, d=1)
    with pytest.raises(ValueError, match="oracle has d=48 but cfg.zo.d=1"):
        run_solver(problem, _cfg("szoht", eta=0.01, k=1, zo=zo, budget=600, seed=1))
    assert calls == []


def test_decomposition_oracle_d_mismatch_rejected_before_any_query():
    problem = attack_surrogate_problem(4, 48, 10, spawn_stream(0, "data-gen"))
    calls = []
    component = problem.component

    def counting(i, theta):
        calls.append(i)
        return component(i, theta)

    problem.component = counting
    zo = ZoEstimatorConfig(q=10, s2=1, mu=1e-3, d=1)
    # the decomposition takes a built source, and the source's constructor
    # refuses a config whose d is not the oracle's
    with pytest.raises(ValueError, match="^oracle has d=48 but cfg.zo.d=1$"):
        gradient_squared_decomposition(_zo_source(problem, zo, 1), np.zeros(1), 100, seed=1)
    assert calls == []


@pytest.mark.parametrize("estimator", ["szoht", "vr-szht"])
def test_decomposition_black_box_refuses_exact_gradients(estimator):
    # A black box has no component_gradient of its own, so the exact twin
    # fails at its first gradient, with the class named.
    problem = attack_surrogate_problem(4, 48, 10, spawn_stream(0, "data-gen"))
    with pytest.raises(NotImplementedError,
                       match="^CwAttackProblem does not expose exact gradients$"):
        gradient_squared_decomposition(ExactComponentEstimator(problem), np.zeros(48), 100,
                                       seed=1, estimator=estimator)


def test_last_row_describes_final_theta():
    # each iterate is evaluated once, and the trace ends at the iterate the
    # run returns; for sarah-szht that is a random inner iterate of the
    # last epoch, not the last one stepped to
    cases = (
        (ridge_synthetic(6, 5, 0.5, spawn_stream(0, "data-gen")),
         ZoEstimatorConfig(q=10, s2=5, mu=1e-4, d=5), 3, 0.05, 1500),
        (attack_surrogate_problem(3, 12, 4, spawn_stream(0, "data-gen")),
         ZoEstimatorConfig(q=8, s2=12, mu=1e-3, d=12), 4, 0.01, 600),
    )
    algos = ("szoht", "fgzoht", "pm-szht", "vr-szht", "sarah-szht")
    for (problem, zo, k, eta, budget), algo, shared in itertools.product(
        cases, algos, (False, True)
    ):
        cfg = _cfg(algo, eta=eta, k=k, zo=replace(zo, shared_directions=shared),
                   budget=budget, seed=31, m=3, p=2)
        trace = run_solver(problem, cfg)
        assert not trace.diverged
        theta = trace.final_theta
        assert trace.rows[-1] == (
            trace.izo, trace.nht, problem.mean_value(theta), nnz(theta)
        ), (algo, shared)


def test_sarah_hand_off_rows_describe_the_next_epoch_start(monkeypatch):
    # each epoch ends at a uniformly random inner iterate; the row at the
    # hand-off izo must describe that iterate, not the last one stepped to
    starts = []

    def spy(est, theta):
        starts.append((est.izo, theta.copy()))
        return take_snapshot(est, theta)

    monkeypatch.setattr("zoht.solvers.sarah_init", spy)
    problem = ridge_synthetic(10, 5, 0.5, spawn_stream(0, "data-gen"))
    zo = ZoEstimatorConfig(q=200, s2=5, mu=1e-4, d=5)
    trace = run_solver(problem, _cfg("sarah-szht", eta=0.05, k=3, zo=zo,
                                     budget=80_000, seed=1, m=10))
    at_izo = {row[0]: (nht, row) for nht, row in enumerate(trace.rows)}
    hand_offs = starts[1:]
    assert len(hand_offs) == 13
    for izo, theta in hand_offs:
        nht, row = at_izo[izo]
        assert row == (izo, nht, problem.mean_value(theta), nnz(theta))


def test_diverged_sarah_trace_ends_at_an_in_bounds_pick():
    # the guard test at the end applies to the returned iterate's value,
    # not to the diverged flag: the epoch that diverged may pick an earlier
    # iterate that passes the guard, and the trace then ends there
    problem = ridge_synthetic(6, 5, 0.5, spawn_stream(0, "data-gen"))
    zo = ZoEstimatorConfig(q=10, s2=5, mu=1e-4, d=5)
    ends = set()
    for seed in range(1, 8):
        trace = run_solver(problem, _cfg("sarah-szht", eta=0.5, k=3, zo=zo,
                                         budget=20_000, seed=seed, m=10))
        assert trace.diverged
        fval = problem.mean_value(trace.final_theta)
        if fval <= DIVERGENCE_FACTOR * (1.0 + abs(trace.rows[0][2])):
            assert trace.rows[-1] == (
                trace.izo, trace.nht, fval, nnz(trace.final_theta)
            )
            ends.add("pick")
        else:
            assert trace.rows[-1][0] < trace.izo
            ends.add("tripped")
    assert ends == {"pick", "tripped"}


def test_budget_check_precedes_estimates():
    # a step starts only if its whole cost fits in what is left
    problem = ridge_synthetic(5, 4, 0.1, spawn_stream(10, "data-gen"))
    zo = ZoEstimatorConfig(q=10, s2=4, mu=1e-4, d=4)
    budget = 5 * 11 + 1  # one IZO beyond the full pass
    trace = run_solver(problem, _cfg("szoht", eta=0.01, k=2, zo=zo, budget=budget, seed=12))
    assert trace.izo == 55  # floor(56/11) = 5 iterations of 11


def test_divergence_guard_aborts():
    problem = ridge_synthetic(5, 4, 0.1, spawn_stream(11, "data-gen"))
    zo = ZoEstimatorConfig(q=10, s2=4, mu=1e-4, d=4)
    trace = run_solver(
        problem, _cfg("szoht", eta=1e9, k=4, zo=zo, budget=50_000, seed=13)
    )
    assert trace.diverged
    assert trace.izo < 50_000
    # the trace keeps only finite objective values
    assert np.all(np.isfinite(trace.column("fval")))
    _assert_one_row_per_step(trace)


def test_budget_below_full_pass_rejected():
    # each solver's least budget pays for its first step: one full pass
    # (5 * 11 = 55 IZO), plus one inner pair for vr-szht or one largest
    # refresh step for pm-szht. One IZO less is refused before any query;
    # exactly the least budget is spent in full.
    base = ridge_synthetic(5, 4, 0.1, spawn_stream(12, "data-gen"))
    zo = ZoEstimatorConfig(q=10, s2=4, mu=1e-4, d=4)
    cases = (  # algorithm, options, least budget, steps taken at it
        ("szoht", {}, 55, 5),
        ("fgzoht", {}, 55, 1),
        ("sarah-szht", dict(m=3), 55, 1),
        ("vr-szht", dict(m=3), 55 + 22, 1),
        ("pm-szht", dict(p=2), 55 + 33, 1),
        ("pm-szht", dict(p=2, law="svrg-variant"), 55 + 66, None),
    )
    for algo, kw, least, steps in cases:
        problem = CountingRidge(base.X, base.y, base.lam)
        with pytest.raises(ValueError, match="below %s's least budget" % algo):
            run_solver(problem, _cfg(algo, eta=0.01, k=2, zo=zo, budget=least - 1,
                                     seed=14, **kw))
        assert problem.calls == problem.values == 0, algo
        trace = run_solver(problem, _cfg(algo, eta=0.01, k=2, zo=zo, budget=least,
                                         seed=14, **kw))
        assert trace.nht >= 1 and trace.izo <= least, algo
        if steps is not None:
            assert (trace.nht, trace.izo) == (steps, least), algo


def test_pm_p_out_of_range_refused_before_any_query():
    # p is refused by name whatever the budget, before the least budget is
    # computed from it and before the initial objective value is read
    base = ridge_synthetic(5, 4, 0.1, spawn_stream(12, "data-gen"))
    zo = ZoEstimatorConfig(q=10, s2=4, mu=1e-4, d=4)
    for p, budget, law in itertools.product((0, 6), (10_000, 100),
                                            ("p-saga", "svrg-variant")):
        problem = CountingRidge(base.X, base.y, base.lam)
        cfg = _cfg("pm-szht", eta=0.01, k=2, zo=zo, budget=budget, seed=14, p=p, law=law)
        with pytest.raises(ValueError) as exc:
            run_solver(problem, cfg)
        assert str(exc.value) == "pm-szht needs 1 <= p <= n, got p=%d n=5" % p
        assert problem.calls == problem.values == 0


def test_vr_collapses_to_exact_descent_for_n_1():
    # with one component the snapshot estimate telescopes to the full
    # gradient; with the exact stub the inner step is plain descent + HT
    problem = ridge_synthetic(1, 3, 0.1, spawn_stream(13, "data-gen"), standardize=False)
    est = ExactComponentEstimator(problem)
    theta = np.array([0.4, -0.2, 0.1])
    snap = take_snapshot(est, theta)
    eta, k = 0.1, 2
    reduced, plain = theta.copy(), theta.copy()
    for _ in range(5):
        g = svrg_gradient(snap, reduced, 0, est)
        np.testing.assert_allclose(g, problem.mean_gradient(reduced), atol=1e-12)
        reduced = hard_threshold(reduced - eta * g, k)
        plain = hard_threshold(plain - eta * problem.mean_gradient(plain), k)
        np.testing.assert_allclose(reduced, plain, atol=1e-12)


def test_decomposition_deterministic_estimator_zero_variance():
    problem = ridge_synthetic(4, 3, 0.2, spawn_stream(15, "data-gen"))
    var, mean_sq = gradient_squared_decomposition(
        ExactComponentEstimator(problem), np.array([0.1, 0.2, 0.3]), 200, seed=16,
        estimator="fgzoht",
    )
    assert var <= 1e-12
    np.testing.assert_allclose(
        mean_sq,
        float(np.sum(problem.mean_gradient(np.array([0.1, 0.2, 0.3])) ** 2)),
        rtol=1e-12,
    )


def test_decomposition_svrg_anchor_shared_zero_variance():
    problem = ridge_synthetic(4, 3, 0.2, spawn_stream(17, "data-gen"))
    zo = ZoEstimatorConfig(q=5, s2=3, mu=1e-4, d=3, shared_directions=True)
    shared = ZoComponentEstimator(problem, zo, spawn_stream(18, "directions"))
    var, _ = gradient_squared_decomposition(
        shared, np.array([0.3, -0.1, 0.0]), 200, seed=18, estimator="vr-szht"
    )
    assert var <= 1e-12


def test_decomposition_refuses_few_samples():
    problem = ridge_synthetic(4, 3, 0.2, spawn_stream(19, "data-gen"))
    zo = ZoEstimatorConfig(q=5, s2=3, mu=1e-4, d=3)
    with pytest.raises(ValueError, match="^samples must be >= 100, got 99$"):
        gradient_squared_decomposition(_zo_source(problem, zo, 20), np.zeros(3), 99, seed=20)


def test_config_validation():
    zo = ZoEstimatorConfig(q=5, s2=3, mu=1e-4, d=3)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="nope", eta=0.1, k=2, zo=zo, izo_budget=100, seed=0)
    # a removed short name gets the list of the five
    with pytest.raises(ValueError, match="^%s$" % re.escape(
            "unknown algorithm 'vr' (known: fgzoht,szoht,pm-szht,vr-szht,sarah-szht)")):
        SolverConfig(algorithm="vr", eta=0.1, k=2, zo=zo, izo_budget=100, seed=0)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="vr-szht", eta=0.1, k=2, zo=zo, izo_budget=100, seed=0)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="szoht", eta=0.1, k=9, zo=zo, izo_budget=100, seed=0)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="pm-szht", eta=0.1, k=2, zo=zo, izo_budget=100, seed=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SolverConfig(algorithm="szoht", eta=0.1, k=2, zo=zo, izo_budget=100, seed=-1)
    # a bool step size would run at 1.0
    for eta in (True, np.True_, np.False_):
        with pytest.raises(ValueError, match="^eta must be a number, got %s$" % re.escape(repr(eta))):
            SolverConfig(algorithm="szoht", eta=eta, k=2, zo=zo, izo_budget=100, seed=0)
    # numpy integers are integers; m and p may stay unset
    SolverConfig(algorithm="szoht", eta=0.1, k=np.int64(2), zo=zo,
                 izo_budget=np.int64(100), seed=np.uint8(0), m=None, p=None)


@pytest.mark.parametrize("field, value", [
    ("q", 10.0), ("s2", 48.0), ("d", 48.0), ("k", 2.0), ("k", "2"),
    ("izo_budget", 600.0), ("m", 3.0), ("p", 2.0), ("seed", 1.5),
    ("q", True), ("seed", True),
    ("spawn_stream:seed", 1.7), ("spawn_stream:seed", True), ("spawn_stream:seed", "4"),
    ("decomposition:seed", 1.5), ("decomposition:samples", 100.5),
    ("decomposition:samples", "200"),
])
def test_counts_must_be_integers(field, value):
    # refused where the config is built, not deep inside a run (a float q
    # ran until numpy refused it; a float budget printed truncated), and
    # where a stream is spawned (a float seed ran truncated)
    call, _, name = field.rpartition(":")
    zo_kw = dict(q=10, s2=48, mu=1e-3, d=48)
    cfg_kw = dict(algorithm="pm-szht", eta=0.01, k=2, izo_budget=600, seed=1, m=3, p=2)
    dec_kw = dict(samples=100, seed=1)
    (dec_kw if call else zo_kw if name in zo_kw else cfg_kw)[name] = value
    with pytest.raises(ValueError, match="^%s must be an integer, got %s$"
                       % (name, re.escape(repr(value)))):
        if call == "spawn_stream":
            spawn_stream(value, "indices")
        elif call == "decomposition":
            problem = ridge_synthetic(4, 3, 0.2, spawn_stream(19, "data-gen"))
            zo = ZoEstimatorConfig(q=5, s2=3, mu=1e-4, d=3)
            gradient_squared_decomposition(_zo_source(problem, zo, 20), np.zeros(3), **dec_kw)
        else:
            SolverConfig(zo=ZoEstimatorConfig(**zo_kw), **cfg_kw)


@pytest.mark.parametrize("cls", [ZoEstimatorConfig, SolverConfig, ExperimentSpec, TheoryParams])
def test_every_numeric_field_refuses_bools_strings_and_nan(cls):
    # every int or float field goes through core.require_numbers, so a
    # bool is not read as 1, a string does not fail deep inside a check,
    # and a real field is finite
    problem = ridge_synthetic(4, 4, 0.2, spawn_stream(0, "data-gen"))
    zo = ZoEstimatorConfig(q=5, s2=4, mu=1e-3, d=4)
    valid = {
        ZoEstimatorConfig: dict(q=5, s2=4, mu=1e-3, d=4),
        SolverConfig: dict(algorithm="pm-szht", eta=0.01, k=2, zo=zo, izo_budget=600,
                           seed=1, m=3, p=2),
        ExperimentSpec: dict(problem=problem, algorithms=["szoht"], eta_grid=[0.01],
                             seeds=[1], k=2, zo=zo, izo_budget=600, m=3, p=2),
        TheoryParams: dict(d=5, n=10, q=200, s2=5, k=3, kstar=1, rho_minus=0.5,
                           rho_plus=2.0, p=1),
    }[cls]
    cls(**valid)
    numeric = [f for f in fields(cls) if f.type in (int, float)]
    assert numeric
    for f in numeric:
        noun = "an integer" if f.type is int else "a number"
        bad = [(True, "must be %s" % noun), ("1", "must be %s" % noun)]
        if f.type is float:
            bad.append((float("nan"), "must be finite"))
        for value, rule in bad:
            with pytest.raises(ValueError, match="^%s$" % re.escape(
                    "%s %s, got %r" % (f.name, rule, value))):
                cls(**dict(valid, **{f.name: value}))


@pytest.mark.parametrize("bad, text", [
    (np.float64("nan"), "nan"), (np.float32("inf"), "inf"), (float("-inf"), "-inf"),
])
def test_non_finite_initial_objective_names_its_value(bad, text):
    oracle = RepeatedQuadratic(np.zeros(3), 2)
    oracle.mean_value = lambda theta: bad
    zo = ZoEstimatorConfig(q=3, s2=3, mu=1e-4, d=3)
    with pytest.raises(ValueError) as exc:
        run_solver(oracle, _cfg("szoht", eta=0.1, k=2, zo=zo, budget=100, seed=0))
    assert str(exc.value) == "objective is non-finite at the initial point: %s" % text


def test_sarah_thresholds_every_inner_step():
    problem = ridge_synthetic(4, 4, 0.2, spawn_stream(22, "data-gen"))
    zo = ZoEstimatorConfig(q=8, s2=4, mu=1e-4, d=4)
    base = dict(eta=0.02, k=2, zo=zo, budget=600, seed=23, m=3)
    thresholded = run_solver(problem, _cfg("sarah-szht", **base))
    # 8 whole epochs of 4(q+1) + 2 * 2(q+1) = 72 IZO fit in 600; m = 3
    # steps, each thresholded, per epoch
    assert thresholded.epochs == 8
    assert thresholded.nht == 8 * 3


def test_shared_directions_runs_and_is_deterministic():
    problem = ridge_synthetic(5, 4, 0.2, spawn_stream(24, "data-gen"))
    zo = ZoEstimatorConfig(q=10, s2=4, mu=1e-4, d=4, shared_directions=True)
    cfg = _cfg("vr-szht", eta=0.05, k=2, zo=zo, budget=1500, seed=25, m=3)
    t1, t2 = run_solver(problem, cfg), run_solver(problem, cfg)
    assert t1.rows == t2.rows
    assert expected_izo(5, t1) == t1.izo


def test_recommended_eta_descends_on_ridge():
    # cross-module consistency: the rho proxy feeds the closed-form eta
    # recommendation, and the snapshot solver descends monotonically at
    # that rate, read every 20th step, on the instance the proxy came from
    from zoht.theory import TheoryParams, vrszht_eta_interval

    problem = ridge_synthetic(10, 5, 0.5, spawn_stream(0, "data-gen"))
    rho_minus, rho_plus = problem.rho_bounds()
    tp = TheoryParams(d=5, n=10, q=200, s2=5, k=3, kstar=1,
                      rho_minus=rho_minus, rho_plus=rho_plus)
    _, eta_rec = vrszht_eta_interval(tp)
    assert eta_rec > 0.0
    zo = ZoEstimatorConfig(q=200, s2=5, mu=1e-4, d=5)
    trace = run_solver(
        problem,
        _cfg("vr-szht", eta=eta_rec, k=3, zo=zo, budget=80_000, seed=1, m=10),
    )
    assert not trace.diverged
    f = trace.column("fval")
    fvals = np.append(f[::20], f[-1])
    assert fvals[-1] < fvals[0]
    assert np.all(np.diff(fvals) <= 1e-9)


def test_decomposition_memory_and_recursive_estimators():
    problem = ridge_synthetic(4, 3, 0.2, spawn_stream(26, "data-gen"))
    zo = ZoEstimatorConfig(q=5, s2=3, mu=1e-4, d=3)
    theta = np.array([0.2, -0.3, 0.1])
    for estimator in ("pm-szht", "sarah-szht"):
        var, mean_sq = gradient_squared_decomposition(
            _zo_source(problem, zo, 27), theta, 300, seed=27, estimator=estimator
        )
        assert var >= 0.0 and np.isfinite(mean_sq)
    # At a fixed theta a recursion step is the snapshot estimator anchored
    # there: the same draws give the same numbers.
    assert gradient_squared_decomposition(
        _zo_source(problem, zo, 27), theta, 300, seed=27, estimator="sarah-szht"
    ) == gradient_squared_decomposition(
        _zo_source(problem, zo, 27), theta, 300, seed=27, estimator="vr-szht"
    )
    with pytest.raises(ValueError):
        gradient_squared_decomposition(
            _zo_source(problem, zo, 28), theta, 300, seed=28, estimator="bogus"
        )


@pytest.mark.parametrize("estimator", ALGORITHMS)
def test_decomposition_under_every_solver_name(estimator):
    problem = ridge_synthetic(4, 3, 0.2, spawn_stream(26, "data-gen"))
    zo = ZoEstimatorConfig(q=5, s2=3, mu=1e-4, d=3)
    var, mean_sq = gradient_squared_decomposition(
        _zo_source(problem, zo, 29), np.array([0.2, -0.3, 0.1]), 100, seed=29,
        estimator=estimator,
    )
    assert np.isfinite(var) and var >= 0.0
    assert np.isfinite(mean_sq) and mean_sq > 0.0


@pytest.mark.parametrize("old", ["svrg", "sarah", "pm", "vr", "saga"])
def test_decomposition_refuses_old_estimator_names(old):
    problem = ridge_synthetic(4, 3, 0.2, spawn_stream(26, "data-gen"))
    zo = ZoEstimatorConfig(q=5, s2=3, mu=1e-4, d=3)
    with pytest.raises(ValueError, match=re.escape(
            "unknown estimator '%s' (known: %s)" % (old, ",".join(ALGORITHMS)))):
        gradient_squared_decomposition(_zo_source(problem, zo, 30), np.zeros(3), 100, seed=30,
                                       estimator=old)


def test_decomposition_deterministic_variance_is_not_cancellation_residue():
    # Exact component gradients make fgzoht, vr-szht and sarah-szht deterministic,
    # so every draw is the same vector and the variance is 0 up to the
    # rounding of the draws' mean. The one-pass E||g||^2 - ||E g||^2
    # cancels to residue near 1e-15 * ||E g||^2 on most of these instances.
    theta = np.zeros(30)
    theta[:3] = [0.3, -0.2, 0.1]
    for seed in range(5):
        problem = ridge_synthetic(10, 30, 0.5, spawn_stream(seed, "data-gen"))
        for estimator in ("fgzoht", "vr-szht", "sarah-szht"):
            var, mean_sq = gradient_squared_decomposition(
                ExactComponentEstimator(problem), theta, 100, seed=seed, estimator=estimator
            )
            assert 0.0 <= var <= 1e-20 * mean_sq, (seed, estimator, var, mean_sq)


def test_decomposition_uses_its_source_as_given():
    # A source on another stream, one estimate into it: the szoht draws are
    # its next estimates at component indices from the seed's index stream.
    problem = ridge_synthetic(4, 3, 0.2, spawn_stream(31, "data-gen"))
    zo = ZoEstimatorConfig(q=5, s2=3, mu=1e-4, d=3)
    theta = np.array([0.2, -0.3, 0.1])
    source, twin = _zo_source(problem, zo, 99), _zo_source(problem, zo, 99)
    source.estimate(0, theta)
    twin.estimate(0, theta)
    before = source.izo
    got = gradient_squared_decomposition(source, theta, 100, seed=31)
    idx_rng = spawn_stream(31, "indices")
    draws = np.stack([twin.estimate(int(idx_rng.integers(4)), theta) for _ in range(100)])
    mean_g = draws.mean(axis=0)
    want = (float(np.mean(np.sum((draws - mean_g) ** 2, axis=1))), float(mean_g @ mean_g))
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert source.izo - before == 100 * (zo.q + 1)
