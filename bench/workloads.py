"""The benchmark's workloads: three solver grids run through
``zoht.harness.run_experiment``.

Each workload fixes a problem generator and an ExperimentSpec; the
benchmark's ``--seed`` picks the instance. Seed s draws the data from
``spawn_stream(s, "data-gen")`` and runs the solver seeds 3s+1, 3s+2,
3s+3, so seed 0 is exactly the CLI default (data seed 0, seeds 1,2,3).

This module imports neither numpy nor zoht at load time, so that a
set-up probe can time those imports itself.
"""

from dataclasses import dataclass

ALGORITHMS = ["fgzoht", "szoht", "pm-szht", "vr-szht", "sarah-szht"]


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str            # "ridge" or "attack"
    sizes: tuple            # ridge: (n, d, lam); attack: (n, d, classes)
    k: int
    q: int
    s2: int
    mu: float
    m: int
    eta_grid: tuple
    izo_budget: int
    # The generic FunctionOracle.mean_value loops over component, so the
    # divergence guard shows up as component calls under mean_value.
    guard_through_component: bool


WORKLOADS = {
    # `zoht ridge-synthetic` with every default: 75 cells, 80,000 IZO each.
    "ridge-default": Workload(
        name="ridge-default", problem="ridge", sizes=(10, 5, 0.5),
        k=3, q=200, s2=5, mu=1e-4, m=10,
        eta_grid=(0.005, 0.01, 0.05, 0.1, 0.5), izo_budget=80_000,
        guard_through_component=False,
    ),
    # s2 < d takes the per-row rng.choice branch of sample_directions; the
    # eta grid stays well inside the stable range, so no cell diverges.
    "ridge-wide": Workload(
        name="ridge-wide", problem="ridge", sizes=(20, 1000, 0.5),
        k=20, q=50, s2=20, mu=1e-4, m=10,
        eta_grid=(5e-5, 1e-4, 2e-4), izo_budget=4_080,
        guard_through_component=False,
    ),
    # `zoht attack-surrogate` defaults with the budget raised from 600 so
    # that cells run long enough to time.
    "attack-long": Workload(
        name="attack-long", problem="attack", sizes=(4, 48, 10),
        k=6, q=10, s2=48, mu=1e-3, m=10,
        eta_grid=(0.001, 0.005, 0.01, 0.05), izo_budget=3_000,
        guard_through_component=True,
    ),
}


def solver_seeds(seed):
    return [3 * seed + 1, 3 * seed + 2, 3 * seed + 3]


def make_problem(zoht, wl, seed):
    rng = zoht.spawn_stream(seed, "data-gen")
    if wl.problem == "ridge":
        n, d, lam = wl.sizes
        return zoht.ridge_synthetic(n, d, lam, rng)
    n, d, classes = wl.sizes
    return zoht.attack_surrogate_problem(n, d, classes, rng)


def make_spec(zoht, wl, problem, seed):
    return zoht.ExperimentSpec(
        problem=problem,
        algorithms=list(ALGORITHMS),
        k=wl.k,
        zo=zoht.ZoEstimatorConfig(q=wl.q, s2=wl.s2, mu=wl.mu, d=problem.d),
        eta_grid=list(wl.eta_grid),
        seeds=solver_seeds(seed),
        izo_budget=wl.izo_budget,
        m=wl.m,
        problem_name=wl.name,
    )
