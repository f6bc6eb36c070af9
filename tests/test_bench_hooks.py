"""The benchmark's tracer (bench/tracer.py) hooks zoht by module attribute
name. A renamed or bypassed function leaves a span with no calls, which the
traced benchmark run refuses; this test finds it on a grid small enough for
every test run."""

import importlib.util
import sys
from pathlib import Path

import zoht.harness
import zoht.solvers
import zoht.vr
from zoht.core import spawn_stream
from zoht.harness import ExperimentSpec
from zoht.problems import ridge_synthetic
from zoht.zo import ZoEstimatorConfig

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_hook_sees_calls_on_a_tiny_grid(tmp_path):
    tracer_module = _load_tracer()
    problem = ridge_synthetic(3, 4, 0.3, spawn_stream(0, "data-gen"))
    spec = ExperimentSpec(
        problem=problem,
        algorithms=["fgzoht", "szoht", "pm-szht", "vr-szht", "sarah-szht"],
        k=2,
        zo=ZoEstimatorConfig(q=3, s2=2, mu=1e-4, d=4),
        eta_grid=[0.01],
        seeds=[1],
        izo_budget=120,
        m=3,
        problem_name="tiny",
    )
    tracer = tracer_module.Tracer()
    tracer.install(sys.modules)
    tracer.attach_problem(problem)
    try:
        result = zoht.harness.run_experiment(spec)
        zoht.harness.emit_csv(result, str(tmp_path))
        zoht.harness.emit_svg(result, "izo", str(tmp_path))
    finally:
        tracer.uninstall()

    assert tracer.missing == []
    spans = {span for _, _, span in tracer_module.HOOKS}
    spans |= {span for _, span in tracer_module.PROBLEM_HOOKS}
    assert sorted(s for s in spans if tracer.stat(s, "calls") == 0) == []
    izo = sum(tr.izo for tr in result.traces.values())
    assert tracer.stat("problems.component", "calls", {"zo.zo_gradient"}) == izo

    # Each snapshot span counts its own solver's epochs. The tiny budget gives
    # vr-szht and sarah-szht different epoch counts, so a swap of the two
    # spans shows.
    assert zoht.solvers.sarah_init is zoht.vr.take_snapshot
    epochs = {algo: 0 for algo in spec.algorithms}
    for (algo, _, _), trace in result.traces.items():
        epochs[algo] += trace.epochs
    assert epochs["vr-szht"] != epochs["sarah-szht"]
    assert tracer.stat("vr.sarah_init", "calls") == epochs["sarah-szht"]
    assert tracer.stat("vr.take_snapshot", "calls") == epochs["vr-szht"]
    pm_cells = sum(algo == "pm-szht" for algo, _, _ in result.traces)
    assert tracer.stat("vr.init_gradient_memory", "calls") == pm_cells
    nht = sum(trace.nht for trace in result.traces.values())
    assert tracer.stat("ht.hard_threshold", "calls") == nht

    # Each building block has one import path: zoht.vr binds no sarah_init
    # (the solvers' name for take_snapshot), and the top level binds the
    # variance diagnostic but none of the blocks.
    assert not hasattr(zoht.vr, "sarah_init")
    assert zoht.gradient_squared_decomposition is zoht.solvers.gradient_squared_decomposition
    for name in ("zo_gradient", "hard_threshold", "expansivity_ratio"):
        assert not hasattr(zoht, name), name
