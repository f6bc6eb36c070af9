"""Acceptance gate: one test per criterion, each printing a pass/fail
line. Tolerances are fixed here, not tuned at run time. Run with
``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math
from itertools import product

import numpy as np
import pytest

from zoht.core import nnz, spawn_stream
from zoht.harness import ExperimentSpec, run_experiment
from zoht.ht import expansivity_ratio, hard_threshold
from zoht.problems import attack_surrogate_problem, ridge_synthetic
from zoht.solvers import SolverConfig, expected_izo, run_solver
from zoht.theory import (
    TheoryParams,
    alpha,
    epsilon_constants,
    pm_eta_interval,
    sarah_eta_interval,
    szoht_conditions,
    vrszht_eta_interval,
)
from zoht.vr import (
    LAW_P_SAGA,
    ExactComponentEstimator,
    ZoComponentEstimator,
    draw_update_set,
    init_gradient_memory,
    memory_update,
    pm_gradient,
    sarah_step,
    svrg_gradient,
    take_snapshot,
)
from zoht.zo import ZoEstimatorConfig, sample_directions, zo_gradient


def _report(num, description, ok):
    print("criterion %02d [%s] %s" % (num, "PASS" if ok else "FAIL", description))
    assert ok, "criterion %d failed: %s" % (num, description)


def test_criterion_01_projection_optimality_exhaustive():
    # all 2^d coordinate subsets, d <= 12, 1000 random vectors, every k
    rng = np.random.default_rng(101)
    violations = 0
    masks_cache = {}
    for _ in range(1000):
        d = int(rng.integers(1, 13))
        if d not in masks_cache:
            masks = np.array(
                [[(m >> j) & 1 for j in range(d)] for m in range(2**d)], dtype=float
            )
            masks_cache[d] = (masks, masks.sum(axis=1).astype(int))
        masks, sizes = masks_cache[d]
        v = rng.standard_normal(d)
        masses = masks @ (v * v)
        for k in range(d + 1):
            kept = hard_threshold(v, k)
            best = masses[sizes <= k].max()
            if float(kept @ kept) < best - 1e-12:
                violations += 1
    _report(1, "hard threshold retains the max-mass subset at every k",
            violations == 0)


def test_criterion_02_expansivity_bound_10k_trials():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(10_000):
        d = int(rng.integers(2, 15))
        kstar = int(rng.integers(0, d))
        k = int(rng.integers(kstar + 1, d + 1))
        target = np.zeros(d)
        if kstar:
            idx = rng.choice(d, size=kstar, replace=False)
            target[idx] = rng.standard_normal(kstar)
        v = rng.standard_normal(d)
        ratio = expansivity_ratio(v, target, k)
        if not ratio <= alpha(k, nnz(target)):
            ok = False
            break
    _report(2, "expansivity ratio within the closed-form bound in all 1e4 trials", ok)


def test_criterion_03_zo_unbiasedness():
    ok = True
    # full-support Monte Carlo on linear objectives, d in {3, 5}
    for d, seed in ((3, 103), (5, 104)):
        c = np.linspace(1.0, -1.5, d)
        cfg = ZoEstimatorConfig(q=1, s2=d, mu=1e-3, d=d)
        rng = spawn_stream(seed, "directions")
        n_draws = 100_000
        draws = np.empty((n_draws, d))
        theta = np.zeros(d)
        f = lambda th: float(c @ th)
        for t in range(n_draws):
            draws[t] = zo_gradient(f, theta, cfg, sample_directions(d, d, 1, rng))
        err = np.abs(draws.mean(axis=0) - c)
        tol = 3.0 * draws.std(axis=0) / math.sqrt(n_draws)
        ok = ok and bool(np.all(err <= tol))
    # axis-direction enumeration equals central differences on a quadratic
    d = 4
    rng_q = np.random.default_rng(105)
    A = rng_q.standard_normal((d, d))
    A = A @ A.T
    b = rng_q.standard_normal(d)
    f = lambda th: float(0.5 * th @ A @ th + b @ th)
    theta = rng_q.standard_normal(d)
    cfg = ZoEstimatorConfig(q=1, s2=1, mu=0.1, d=d)
    total = np.zeros(d)
    for j, sign in product(range(d), (1.0, -1.0)):
        e = np.zeros((1, d))
        e[0, j] = sign
        total += zo_gradient(f, theta, cfg, directions=e)
    enumeration_mean = total / (2 * d)
    central = np.array([
        (f(theta + 0.1 * np.eye(d)[j]) - f(theta - 0.1 * np.eye(d)[j])) / 0.2
        for j in range(d)
    ])
    ok = ok and bool(np.all(np.abs(enumeration_mean - central) <= 1e-12))
    ok = ok and bool(np.all(np.abs(central - (A @ theta + b)) <= 1e-12))
    _report(3, "estimator unbiased on linear objectives; axis enumeration "
               "equals central differences", ok)


def test_criterion_04_vr_unbiasedness_and_sarah_bias():
    ok = True
    theta = None
    for n in (2, 4, 8):
        problem = ridge_synthetic(n, 4, 0.3, spawn_stream(106 + n, "data-gen"),
                                  standardize=False)
        est = ExactComponentEstimator(problem)
        theta0 = np.array([0.4, -0.2, 0.0, 0.3])
        theta = np.array([-0.1, 0.5, 0.2, 0.0])
        true_grad = problem.mean_gradient(theta)
        mem = init_gradient_memory(est, theta0, p=1, law=LAW_P_SAGA)
        chosen = draw_update_set(mem, spawn_stream(n, "memory-sets"))
        memory_update(mem, np.zeros(4), est, chosen)
        pm_mean = np.mean([pm_gradient(mem, theta, i, est) for i in range(n)], axis=0)
        snap = take_snapshot(est, theta0)
        svrg_mean = np.mean(
            [svrg_gradient(snap, theta, i, est) for i in range(n)], axis=0
        )
        ok = ok and bool(np.max(np.abs(pm_mean - true_grad)) <= 1e-12)
        ok = ok and bool(np.max(np.abs(svrg_mean - true_grad)) <= 1e-12)
    # recursive estimator: conditional mean after two inner steps carries
    # the inherited first-step residual (nonzero bias witness)
    problem = ridge_synthetic(2, 3, 0.3, spawn_stream(120, "data-gen"),
                              standardize=False)
    est = ExactComponentEstimator(problem)
    eta, k = 0.1, 2
    theta0 = np.array([0.5, -0.5, 0.25])
    state0 = take_snapshot(est, theta0)
    theta1 = hard_threshold(theta0 - eta * state0.anchor_grad, k)
    witness = 0.0
    for i1 in (0, 1):
        g1, state1 = sarah_step(state0, theta1, i1, est)
        theta2 = hard_threshold(theta1 - eta * g1, k)
        cond = np.mean([sarah_step(state1, theta2, i2, est)[0] for i2 in (0, 1)],
                       axis=0)
        witness = max(witness, float(np.linalg.norm(cond - problem.mean_gradient(theta2))))
    ok = ok and witness > 1e-8
    _report(4, "memory/snapshot estimators exhaustively unbiased to 1e-12; "
               "recursive estimator bias witness present", ok)


def test_criterion_05_variance_reduction_witness():
    problem = ridge_synthetic(10, 5, 0.5, spawn_stream(0, "data-gen"))
    zo = ZoEstimatorConfig(q=200, s2=5, mu=1e-4, d=5)
    mid = run_solver(
        problem,
        SolverConfig(algorithm="vr-szht", eta=0.05, k=3, zo=zo,
                     izo_budget=20_000, seed=1, m=10),
    )
    theta = mid.final_theta
    est = ZoComponentEstimator(problem, zo, spawn_stream(107, "directions"))
    snap = take_snapshot(est, theta)
    idx = spawn_stream(108, "indices")
    n_samples = 10_000
    plain = np.stack(
        [est.estimate(int(idx.integers(10)), theta) for _ in range(n_samples)]
    )
    reduced = np.stack(
        [svrg_gradient(snap, theta, int(idx.integers(10)), est)
         for _ in range(n_samples)]
    )

    def var_and_se(draws):
        sq = np.sum((draws - draws.mean(axis=0)) ** 2, axis=1)
        return float(sq.mean()), float(sq.std() / math.sqrt(len(sq)))

    var_plain, se_plain = var_and_se(plain)
    var_reduced, se_reduced = var_and_se(reduced)
    margin = 3.0 * (se_plain + se_reduced)
    print("  plain variance %.5g (se %.2g), reduced %.5g (se %.2g)"
          % (var_plain, se_plain, var_reduced, se_reduced))
    _report(5, "snapshot estimator variance below plain estimator variance "
               "by a 3 sigma margin", var_reduced + margin < var_plain)


def test_criterion_06_benchmark_ordering():
    problem = ridge_synthetic(10, 5, 0.5, spawn_stream(0, "data-gen"))
    spec = ExperimentSpec(
        problem=problem,
        algorithms=["fgzoht", "szoht", "vr-szht", "pm-szht", "sarah-szht"],
        k=3,
        zo=ZoEstimatorConfig(q=200, s2=5, mu=1e-4, d=5),
        eta_grid=[0.005, 0.01, 0.05, 0.1, 0.5],
        seeds=[1, 2, 3],
        izo_budget=80_000,
        m=10,
        p=1,
        law=LAW_P_SAGA,
        problem_name="ridge-synthetic",
    )
    result = run_experiment(spec)

    def best_final(token):
        group = [result.traces[(token, result.best_eta[token], s)] for s in (1, 2, 3)]
        return float(np.mean([tr.rows[-1][2] for tr in group]))

    finals = {token: best_final(token) for token in spec.algorithms}
    print("  best-eta mean final objective: %s"
          % {t: round(v, 6) for t, v in finals.items()})
    ok = (
        finals["vr-szht"] <= finals["szoht"]
        and finals["pm-szht"] <= finals["szoht"]
        and finals["fgzoht"] <= finals["szoht"]
    )
    _report(6, "variance-reduced and full-gradient solvers reach at most the "
               "plain solver's best final objective", ok)


def test_criterion_07_sparse_recovery():
    problem = ridge_synthetic(10, 5, 0.0, spawn_stream(0, "data-gen"),
                              sparse_kstar=3, standardize=False)
    zo = ZoEstimatorConfig(q=200, s2=5, mu=1e-6, d=5)
    worst = 0.0
    for seed in (1, 2, 3):
        trace = run_solver(
            problem,
            SolverConfig(algorithm="vr-szht", eta=0.5, k=3, zo=zo,
                         izo_budget=80_000, seed=seed, m=10),
        )
        rel = float(
            np.linalg.norm(trace.final_theta - problem.minimizer)
            / np.linalg.norm(problem.minimizer)
        )
        worst = max(worst, rel)
    print("  worst relative recovery error %.3e" % worst)
    _report(7, "snapshot solver recovers the sparse generator to 1e-2", worst <= 1e-2)


def _replay_izo(algo, n, q, budget, m=None, p=None):
    """IZO and NHT of a run that starts each unit of work only if its whole
    cost fits in the budget (p-saga memory law, so |J| = p)."""
    unit = q + 1
    izo = 0
    nht = 0
    if algo == "szoht":
        while izo + unit <= budget:
            izo += unit
            nht += 1
    elif algo == "fgzoht":
        while izo + n * unit <= budget:
            izo += n * unit
            nht += 1
    elif algo == "pm-szht":
        izo = n * unit
        while izo + (p + 1) * unit <= budget:
            izo += (p + 1) * unit
            nht += 1
    elif algo == "vr-szht":
        while izo + (n + 2) * unit <= budget:
            izo += n * unit
            for _ in range(m):
                if izo + 2 * unit > budget:
                    break
                izo += 2 * unit
                nht += 1
    elif algo == "sarah-szht":
        while izo + n * unit <= budget:
            izo += n * unit
            nht += 1  # first step reuses the epoch estimate
            for _ in range(1, m):
                if izo + 2 * unit > budget:
                    break
                izo += 2 * unit
                nht += 1
    return izo, nht


def test_criterion_08_counter_accounting():
    problem = ridge_synthetic(6, 4, 0.2, spawn_stream(109, "data-gen"))
    zo = ZoEstimatorConfig(q=7, s2=4, mu=1e-4, d=4)
    ok = True
    for algo in ("szoht", "fgzoht", "pm-szht", "vr-szht", "sarah-szht"):
        kw = {}
        if algo == "pm-szht":
            kw["p"] = 2
        if algo in ("vr-szht", "sarah-szht"):
            kw["m"] = 3
        cfg = SolverConfig(algorithm=algo, eta=0.02, k=2, zo=zo,
                           izo_budget=700, seed=5, **kw)
        trace = run_solver(problem, cfg)
        want_izo, want_nht = _replay_izo(algo, 6, 7, 700, m=kw.get("m"), p=kw.get("p"))
        ok = ok and trace.izo == want_izo == expected_izo(6, trace)
        ok = ok and trace.nht == want_nht
    _report(8, "final IZO and NHT equal the closed-form per-iteration rules", ok)


def test_criterion_09_theory_constants():
    ok = True
    ok = ok and abs(alpha(5, 1) - 2.0) <= 1e-9
    ok = ok and abs(alpha(3, 1) - (1.0 + math.sqrt(2.0))) <= 1e-9
    tp = TheoryParams(d=5, n=10, q=200, s2=5, k=3, kstar=3,
                      rho_minus=1.0, rho_plus=1.0)
    ok = ok and abs(epsilon_constants(tp).eps_I - (110.0 / 1400.0 + 2.0)) <= 1e-9
    tp2 = TheoryParams(d=5, n=10, q=200, s2=5, k=3, kstar=3,
                       rho_minus=1.0, rho_plus=2.0)
    ok = ok and abs(epsilon_constants(tp2).eps_mu - 180.0) <= 1e-9
    tp3 = TheoryParams(d=100, n=10, q=200, s2=1, k=10, kstar=4,
                       rho_minus=1.0, rho_plus=1.0)
    ok = ok and abs(szoht_conditions(tp3)[2] - 800.0 / math.sqrt(26.0)) <= 1e-9
    # every interval's real roots satisfy its quadratic to 1e-9
    tp4 = TheoryParams(d=30_100, n=10, q=1_000_000, s2=5, k=10_001, kstar=10_000,
                       rho_minus=1.0, rho_plus=1.0, p=10)
    tp5 = TheoryParams(d=20, n=10, q=200, s2=5, k=6, kstar=0,
                       rho_minus=1.0, rho_plus=1.0, p=5)
    intervals = [
        pm_eta_interval(tp4),
        vrszht_eta_interval(tp5)[0],
        sarah_eta_interval(tp5),
    ]
    for iv in intervals:
        a, b, c = iv.coeffs
        ok = ok and iv.roots is not None
        for root in iv.roots:
            ok = ok and abs(a * root * root + b * root + c) <= 1e-9
    # pinned empty-interval signs
    tp_pm = TheoryParams(d=20, n=10, q=200, s2=5, k=5, kstar=1,
                         rho_minus=1.0, rho_plus=1.0, p=10)
    ok = ok and pm_eta_interval(tp_pm, eps_I=2.1).discriminant == pytest.approx(
        16.0 - 8.0 * 202.6, abs=1e-9
    )
    tp6 = TheoryParams(d=300, n=10, q=200, s2=5, k=101, kstar=1,
                       rho_minus=1.0, rho_plus=1.0)
    iv6, rec6 = vrszht_eta_interval(tp6, eps_I=2.1)
    ok = ok and iv6.discriminant == pytest.approx(1.44 - 4.0 * 121.96 * 0.2, abs=1e-9)
    ok = ok and rec6 == pytest.approx(1.2 / (2.0 * 121.96), abs=1e-9)
    _report(9, "closed-form constants and eta intervals reproduce hand "
               "arithmetic to 1e-9", ok)


def test_criterion_10_attack_smoke():
    problem = attack_surrogate_problem(4, 48, 10, spawn_stream(0, "data-gen"))
    initial = problem.mean_value(np.zeros(48))
    zo = ZoEstimatorConfig(q=10, s2=48, mu=1e-3, d=48)
    finals = {}
    traces = {}
    for eta in (0.001, 0.005, 0.01, 0.05):
        group = []
        for seed in (1, 2, 3):
            tr = run_solver(
                problem,
                SolverConfig(algorithm="szoht", eta=eta, k=6, zo=zo,
                             izo_budget=600, seed=seed),
            )
            group.append(tr)
        finals[eta] = float(np.mean([tr.rows[-1][2] for tr in group]))
        traces[eta] = group
    best = min(finals, key=lambda e: (finals[e], e))
    best_traces = traces[best]
    print("  initial mean loss %.4f, best (eta=%g) final %.4f"
          % (initial, best, finals[best]))
    in_box = all(
        np.all(np.abs(problem.attacked_image(i, tr.final_theta)) <= 0.5)
        for tr in best_traces
        for i in range(4)
    )
    sparse = all(nnz(tr.final_theta) <= 6 for tr in best_traces)
    ok = finals[best] < initial and in_box and sparse
    _report(10, "attack strictly reduces the mean hinge loss with a sparse, "
                "in-box perturbation", ok)
