import functools
import multiprocessing
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import zoht.vr as vr
from zoht.core import spawn_stream
from zoht.harness import (
    ExperimentSpec,
    emit_csv,
    emit_svg,
    run_experiment,
    select_best_eta,
    step_resample,
)
from zoht.problems import attack_surrogate_problem, ridge_synthetic
from zoht.solvers import ALGORITHMS, RunSettings, RunTrace, SolverConfig, run_solver
from zoht.zo import ZoEstimatorConfig


def parse_trace_csv(path):
    """Inverse of the raw-trace writer: rows of (izo, nht, fval, nnz)."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "izo,nht,fval,nnz":
            raise ValueError("unexpected header %r in %s" % (header, path))
        for line in fh:
            izo, nht, fval, nz = line.strip().split(",")
            rows.append((int(izo), int(nht), float(fval), int(nz)))
    return rows


def validate_svg(text):
    """Minimal schema gate: well-formed XML, an svg 1.1 root, and no
    script elements."""
    root = ET.fromstring(text)
    if not root.tag.endswith("svg"):
        raise ValueError("root element is not svg")
    if root.get("version") != "1.1":
        raise ValueError("svg version must be 1.1")
    for el in root.iter():
        if el.tag.endswith("script"):
            raise ValueError("svg must be static (script element found)")
    return True


def _tiny_spec(**kw):
    problem = ridge_synthetic(5, 4, 0.3, spawn_stream(0, "data-gen"))
    base = dict(
        problem=problem,
        algorithms=["szoht", "pm-szht"],
        k=2,
        zo=ZoEstimatorConfig(q=10, s2=4, mu=1e-4, d=4),
        eta_grid=[0.01, 0.05],
        seeds=[1, 2],
        izo_budget=900,
        p=1,
        problem_name="tiny",
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        _tiny_spec(algorithms=[])
    with pytest.raises(ValueError):
        _tiny_spec(algorithms=["bogus"])
    # an exact repeat would run its cells twice and weight them double in
    # eta scores and curves
    for repeat in (dict(seeds=[1, 1, 2]), dict(eta_grid=[0.01, 0.01]),
                   dict(algorithms=["szoht", "pm-szht", "szoht"])):
        with pytest.raises(ValueError, match="repeats an entry"):
            _tiny_spec(**repeat)
    # a solver has one name: the old short names are unknown, and the
    # message lists the five
    for first, second in (("saga", "pm-szht"), ("vr-szht", "vr"), ("sarah", "sarah-szht")):
        old = second if first in ALGORITHMS else first
        with pytest.raises(ValueError, match="^%s$" % re.escape(
                "unknown algorithm '%s' (known: %s)" % (old, ",".join(ALGORITHMS)))):
            _tiny_spec(algorithms=["szoht", first, second], m=2)


def test_bad_p_or_law_fails_before_first_cell(monkeypatch):
    # a bad p, law, budget or seed is refused when the spec is built
    # (test_bad_cell_refused_when_spec_is_built); run_experiment itself
    # checks only workers, and before the first cell
    calls = []
    monkeypatch.setattr("zoht.harness.run_solver", lambda *args: calls.append(args))
    spec = _tiny_spec(algorithms=["szoht", "vr-szht", "pm-szht"], m=2)
    for workers, message in ((0, "workers must be >= 1, got 0"),
                             (2.5, "workers must be an integer, got 2.5")):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            run_experiment(spec, workers=workers)
    assert calls == []
    _tiny_spec(algorithms=["szoht"], p=6)  # p is only checked for pm-szht


def test_cells_take_the_spec_run_settings(monkeypatch):
    # SolverConfig and ExperimentSpec declare the shared run settings once
    # (RunSettings), and every cell config holds the spec's value of each
    configs = []

    def record(problem, cfg):
        configs.append(cfg)
        return run_solver(problem, cfg)

    monkeypatch.setattr("zoht.harness.run_solver", record)
    spec = _tiny_spec(algorithms=["szoht", "vr-szht", "pm-szht"], k=3, m=3,
                      izo_budget=880, law=vr.LAW_SVRG_VARIANT)
    run_experiment(spec)
    assert sorted((c.algorithm, c.eta, c.seed) for c in configs) == sorted(
        (a, e, s) for a in spec.algorithms for e in spec.eta_grid for s in spec.seeds)
    for cfg in configs:
        for f in fields(RunSettings):
            assert getattr(cfg, f.name) is getattr(spec, f.name), f.name


def test_spec_runs_pm_at_p_1_unless_told():
    shared = {f.name: getattr(_tiny_spec(), f.name) for f in fields(ExperimentSpec)}
    del shared["p"]
    spec = ExperimentSpec(**shared)
    assert spec.p == 1
    assert run_experiment(spec).traces[("pm-szht", 0.01, 1)].config.p == 1
    # a lone config has no such default
    cell = {name: shared[name] for name in ("k", "zo", "izo_budget")}
    with pytest.raises(ValueError, match="^pm-szht needs the memory update rate p$"):
        SolverConfig(algorithm="pm-szht", eta=0.01, seed=1, **cell)


@pytest.mark.parametrize("kw, message", [
    (dict(k=9), "need 0 <= k <= d, got k=9 d=4"),
    (dict(law="bogus"), "unknown update law 'bogus'"),
    (dict(izo_budget=900.0), "izo_budget must be an integer, got 900.0"),
    (dict(zo=ZoEstimatorConfig(q=3, s2=3, mu=1e-4, d=3)), "oracle has d=4 but cfg.zo.d=3"),
])
def test_bad_run_setting_refused_when_spec_is_built(kw, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        _tiny_spec(**kw)


@pytest.mark.parametrize("kw, message", [
    (dict(seeds=[1, 1.5]), "seed must be an integer, got 1.5"),
    (dict(eta_grid=[np.nan]), "eta must be finite, got nan"),
    (dict(p=9), "pm-szht needs 1 <= p <= n, got p=9 n=5"),
    (dict(izo_budget=10), "izo_budget 10 below szoht's least budget, 55 IZO"),
    (dict(seeds=[1, -1]), "seed must be >= 0, got -1"),
    (dict(p=0), "pm-szht needs 1 <= p <= n, got p=0 n=5"),
    # one full pass (55 IZO) is szoht's least budget, not vr's
    (dict(algorithms=["szoht", "vr-szht", "pm-szht"], m=2, izo_budget=55),
     "izo_budget 55 below vr-szht's least budget, 77 IZO"),
])
def test_bad_cell_refused_when_spec_is_built(kw, message):
    # the spec holds the problem, so it checks every cell, its budget
    # included, before run_experiment is called
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        _tiny_spec(**kw)
    # cells come seed by seed, the order vr.BlockMemo needs
    spec = _tiny_spec(seeds=[2, 1])
    assert list(spec.cells()) == [
        (a, e, s) for s in (2, 1) for a in spec.algorithms for e in spec.eta_grid]


def test_select_best_eta_pure_rule():
    assert select_best_eta({0.1: 3.0, 0.01: 1.0}) == 0.01
    # ties break toward the smaller eta
    assert select_best_eta({0.5: 1.0, 0.05: 1.0, 0.1: 2.0}) == 0.05
    with pytest.raises(ValueError):
        select_best_eta({})


def test_step_resample_previous_value():
    x = np.array([0, 10, 20])
    y = np.array([5.0, 3.0, 1.0])
    grid = np.array([0, 4, 10, 15, 25])
    np.testing.assert_array_equal(
        step_resample(x, y, grid), [5.0, 5.0, 3.0, 3.0, 1.0]
    )


def test_single_cell_aggregate_equals_raw():
    spec = _tiny_spec(algorithms=["szoht"], eta_grid=[0.02], seeds=[3])
    result = run_experiment(spec)
    trace = result.traces[("szoht", 0.02, 3)]
    grid, mean, std = result.curves["izo"]["szoht"]
    np.testing.assert_array_equal(grid, trace.column("izo"))
    np.testing.assert_array_equal(mean, trace.column("fval"))
    np.testing.assert_array_equal(std, 0.0)


def test_experiment_deterministic_and_csv_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        result = run_experiment(_tiny_spec())
        emit_csv(result, str(out))
    for name in sorted(os.listdir(out1)):
        with open(out1 / name, "rb") as f1, open(out2 / name, "rb") as f2:
            assert f1.read() == f2.read(), name


def test_csv_round_trip_exact(tmp_path):
    spec = _tiny_spec(algorithms=["szoht"], eta_grid=[0.02], seeds=[4])
    result = run_experiment(spec)
    paths = emit_csv(result, str(tmp_path))
    raw = [p for p in paths if os.path.basename(p).startswith("raw_")][0]
    rows = parse_trace_csv(raw)
    assert rows == result.traces[("szoht", 0.02, 4)].rows


def test_csv_schemas(tmp_path):
    result = run_experiment(_tiny_spec())
    paths = emit_csv(result, str(tmp_path))
    for path in paths:
        name = os.path.basename(path)
        with open(path) as fh:
            header = fh.readline().strip()
        if name.startswith("raw_"):
            assert header.count(",") == 3  # izo,nht,fval,nnz
        elif name.startswith("agg_"):
            assert header == "izo,mean_fval,std_fval"
    meta = [p for p in paths if p.endswith("meta.txt")][0]
    text = Path(meta).read_text()
    assert "rng=" in text and "best_eta_szoht=" in text and "misprint" in text
    assert "\np=1\n" in text and "shared_directions" not in text
    # without pm-szht, p may be unset: meta.txt then omits it, as it does m
    spec = _tiny_spec(algorithms=["szoht"], eta_grid=[0.02], seeds=[5], p=None)
    paths = emit_csv(run_experiment(spec), str(tmp_path / "no_p"))
    text = Path([p for p in paths if p.endswith("meta.txt")][0]).read_text()
    assert "\np=" not in text and "\nm=" not in text and "law=p-saga" in text
    # an int eta that diverges: meta.txt names each diverged cell as its raw file
    spec = _tiny_spec(algorithms=["szoht"], eta_grid=[0.02, 10**9], seeds=[1])
    out = tmp_path / "int_eta"
    paths = emit_csv(run_experiment(spec), str(out))
    text = Path([p for p in paths if p.endswith("meta.txt")][0]).read_text()
    cells = text.split("diverged_cells=")[1].strip().split(";")
    assert cells == ["szoht,eta1000000000.0,seed1"]
    for cell in cells:
        assert (out / ("raw_%s.csv" % cell.replace(",", "_"))).is_file(), cell


def test_empty_trace_writes_header_only(tmp_path):
    spec = _tiny_spec(algorithms=["szoht"], eta_grid=[0.02], seeds=[5])
    result = run_experiment(spec)
    key = ("szoht", 0.02, 5)
    tr = result.traces[key]
    result.traces[key] = RunTrace(final_theta=tr.final_theta, config=tr.config, izo=0, nht=0)
    result.curves["izo"]["szoht"] = (np.array([0]), np.array([1.0]), np.array([0.0]))
    result.curves["nht"]["szoht"] = (np.array([0]), np.array([1.0]), np.array([0.0]))
    paths = emit_csv(result, str(tmp_path / "empty"))
    raw = [p for p in paths if os.path.basename(p).startswith("raw_")][0]
    assert Path(raw).read_text() == "izo,nht,fval,nnz\n"


def test_worker_pool_invariance(monkeypatch):
    # zoht attack-surrogate's defaults at budget 3000, seeds 1,2 and etas
    # 0.01,0.05: about half the steps repeat their iterate and keep the held
    # objective value, so the pool runs that path too
    attack = ExperimentSpec(
        problem=attack_surrogate_problem(4, 48, 10, spawn_stream(0, "data-gen")),
        algorithms=list(ALGORITHMS), k=6, zo=ZoEstimatorConfig(q=10, s2=48, mu=1e-3, d=48),
        eta_grid=[0.01, 0.05], seeds=[1, 2], izo_budget=3000, m=10,
    )
    tiny = _tiny_spec(seeds=[1], eta_grid=[0.02])
    # The platform's start method, then spawn: its workers unpickle the
    # problem and run _init_worker in a fresh interpreter.
    spawn = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
    for spec, pool in ((tiny, ProcessPoolExecutor), (attack, ProcessPoolExecutor), (tiny, spawn)):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool)
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)
        assert list(parallel.traces) == list(serial.traces)
        for key, trace in serial.traces.items():
            rows = parallel.traces[key].rows
            assert trace.rows == rows
            assert list(trace.rows) == list(rows)  # row for row
            assert trace.final_theta.tobytes() == parallel.traces[key].final_theta.tobytes()
            for row in rows:
                assert type(row) is tuple
                assert [type(x) for x in row] == [int, int, float, int]
        assert serial.best_eta == parallel.best_eta


def test_pool_asks_for_no_more_workers_than_cells(monkeypatch):
    import zoht.harness as harness

    asked = []

    class FakePool:
        def __init__(self, max_workers, initializer, initargs):
            asked.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(harness, "_worker_problem", None)
    # No with closes the memo the in-process worker opens; undo restores it.
    monkeypatch.setattr(vr, "_memo", None)
    spec = _tiny_spec(algorithms=["szoht"], eta_grid=[0.02], seeds=[1, 2])
    assert len(run_experiment(spec, workers=10**6).traces) == 2
    assert asked == [2]
    # The worker's own memo is the only one: its cells draw each of a
    # seed's three blocks once (every cell would draw its own without it).
    calls = _counting_sampler(monkeypatch)
    run_experiment(_memo_spec(40, 6), workers=2)
    assert len(calls) == 3 * 2


def test_divergent_cell_not_fatal():
    spec = _tiny_spec(eta_grid=[0.02, 1e9], algorithms=["szoht"])
    result = run_experiment(spec)
    assert len(result.diverged_cells()) == 2  # both seeds at the huge eta
    assert result.best_eta["szoht"] == 0.02
    # every eta diverged: all score inf and the tie goes to the smallest
    spec = _tiny_spec(eta_grid=[1e9, 1e10], algorithms=["szoht", "vr-szht"], m=2)
    result = run_experiment(spec)
    assert len(result.diverged_cells()) == 8
    assert result.best_eta == {"szoht": 1e9, "vr-szht": 1e9}


def test_svg_valid_and_constant_curve_horizontal(tmp_path):
    spec = _tiny_spec(algorithms=["szoht"], eta_grid=[0.0], seeds=[6])
    result = run_experiment(spec)
    path = emit_svg(result, "izo", str(tmp_path))
    text = Path(path).read_text()
    assert validate_svg(text)
    # constant objective: the mean polyline is horizontal
    line = [ln for ln in text.splitlines() if "polyline" in ln][0]
    pts = line.split('points="')[1].split('"')[0].split()
    ys = {p.split(",")[1] for p in pts[1:]}  # skip the pre-threshold start
    assert len(ys) == 1


def test_svg_nht_axis_range(tmp_path):
    spec = _tiny_spec(algorithms=["szoht"], eta_grid=[0.01], seeds=[7])
    result = run_experiment(spec)
    path = emit_svg(result, "nht", str(tmp_path))
    assert validate_svg(Path(path).read_text())
    grid, _, _ = result.curves["nht"]["szoht"]
    trace = result.traces[("szoht", 0.01, 7)]
    assert grid[0] == 0 and grid[-1] == trace.nht


def test_svg_rejects_bad_axis(tmp_path):
    result = run_experiment(_tiny_spec(algorithms=["szoht"], eta_grid=[0.02], seeds=[1]))
    with pytest.raises(ValueError):
        emit_svg(result, "time", str(tmp_path))


def test_validate_svg_rejects_scripts():
    with pytest.raises(ValueError):
        validate_svg('<svg version="1.1"><script>x</script></svg>')
    with pytest.raises(ValueError):
        validate_svg('<svg version="1.0"/>')


def test_svg_floors_nonpositive_values_with_warning(tmp_path):
    spec = _tiny_spec(algorithms=["szoht"], eta_grid=[0.02], seeds=[8])
    result = run_experiment(spec)
    grid, mean, _ = result.curves["izo"]["szoht"]
    huge_std = mean + 1.0  # mean - std dips below zero everywhere
    result.curves["izo"]["szoht"] = (grid, mean, huge_std)
    path = emit_svg(result, "izo", str(tmp_path))
    text = Path(path).read_text()
    assert validate_svg(text)
    assert "floored" in text


_GRID_IMPORTS_SCRIPT = """
import sys, tempfile
from zoht.core import spawn_stream
from zoht.harness import ExperimentSpec, emit_csv, emit_svg, run_experiment
from zoht.problems import ridge_synthetic
from zoht.solvers import ALGORITHMS
from zoht.zo import ZoEstimatorConfig

spec = ExperimentSpec(
    problem=ridge_synthetic(5, 4, 0.3, spawn_stream(0, "data-gen")),
    algorithms=list(ALGORITHMS), k=2, zo=ZoEstimatorConfig(q=10, s2=4, mu=1e-4, d=4),
    eta_grid=[0.01, 0.05], seeds=[1], izo_budget=900, m=5, p=1, problem_name="tiny",
)
with tempfile.TemporaryDirectory() as out:
    before = set(sys.modules)
    result = run_experiment(spec, workers=1)
    emit_csv(result, out)
    emit_svg(result, "izo", out)
    emit_svg(result, "nht", out)
    print(",".join(sorted(set(sys.modules) - before)))
"""


def test_grid_imports_no_module():
    # A fresh interpreter, since other tests may have imported numpy.ma here:
    # on numpy 2.x, np.unique alone would import it in the middle of a grid.
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _GRID_IMPORTS_SCRIPT],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


# -- direction blocks shared by the cells of a seed ---------------------------

def _memo_spec(d, s2, seeds=(1, 2), shared=False):
    """Five solvers x three etas, the last of which diverges. With q = 20
    and s2 = 6 a direction block holds 136 estimates (261,120 bytes at
    s2 < d), so a cell of 300 estimates takes three blocks."""
    problem = ridge_synthetic(5, d, 0.3, spawn_stream(3, "data-gen"))
    return ExperimentSpec(
        problem=problem,
        algorithms=list(ALGORITHMS),
        k=3,
        zo=ZoEstimatorConfig(q=20, s2=s2, mu=1e-4, d=d, shared_directions=shared),
        eta_grid=[0.01, 0.05, 50.0],
        seeds=list(seeds),
        izo_budget=21 * 300,
        m=5,
        p=1,
        problem_name="memo",
    )


def _counting_sampler(monkeypatch):
    """Replace vr.sample_directions by a wrapper that records, per call,
    the generator state it drew from and the memo open at the time."""
    sampler, calls = vr.sample_directions, []

    def record(d, s2, rows, rng):
        calls.append((rng.bit_generator.state, vr._memo))
        return sampler(d, s2, rows, rng)

    monkeypatch.setattr(vr, "sample_directions", record)
    return calls


@pytest.mark.parametrize("d, s2, cap, workers, shared", [
    pytest.param(6, 6, None, 1, False, id="6-6-None-1"),
    pytest.param(40, 6, None, 1, False, id="40-6-None-1"),
    # the memo holds block 0 only; cells draw the rest
    pytest.param(40, 6, 261_120, 1, False, id="40-6-261120-1"),
    pytest.param(6, 6, 130_560, 1, False, id="6-6-130560-1"),
    pytest.param(40, 6, None, 2, False, id="40-6-None-2"),
    # coupled pairs take q rows instead of 2q
    pytest.param(40, 6, None, 1, True, id="40-6-None-1-shared"),
    pytest.param(40, 6, None, 2, True, id="40-6-None-2-shared"),
])
def test_grid_traces_equal_solo_runs(monkeypatch, tmp_path, d, s2, cap, workers, shared):
    if cap is not None:
        monkeypatch.setattr(vr, "_MEMO_BYTES", cap)
    spec = _memo_spec(d, s2, shared=shared)
    calls = _counting_sampler(monkeypatch)
    grid = run_experiment(spec, workers=workers)
    grid_calls = len(calls)
    assert vr._memo is None
    for (algo, eta, seed), tr in grid.traces.items():
        solo = run_solver(spec.problem, tr.config)
        assert (algo, eta, seed) == (tr.config.algorithm, tr.config.eta, tr.config.seed)
        assert tr.config.zo.shared_directions is shared
        assert tr.rows == solo.rows, (algo, eta, seed)
        assert tr.final_theta.tobytes() == solo.final_theta.tobytes()
        assert (tr.izo, tr.nht, tr.diverged, tr.epochs, tr.memory_updates) == (
            solo.izo, solo.nht, solo.diverged, solo.epochs, solo.memory_updates)
    assert all(memo is None for _, memo in calls[grid_calls:])
    diverged = {eta for _, eta, _ in grid.diverged_cells()}
    assert diverged == {50.0}
    meta = Path(emit_csv(grid, str(tmp_path))[-1]).read_text()
    assert ("\nshared_directions=1\n" in meta) is shared
    if workers == 1:
        # Solo runs draw every block they take. Under the cap the grid draws
        # a seed's three blocks once; at a cap of one block it draws block 0
        # once and every cell draws the blocks after it.
        solo_calls, seeds = len(calls) - grid_calls, len(spec.seeds)
        want = 3 * seeds if cap is None else solo_calls - len(grid.traces) + seeds
        assert grid_calls == want
        assert all(memo is not None for _, memo in calls[:grid_calls])


def test_grid_draws_each_block_index_once(monkeypatch):
    spec = _memo_spec(40, 6, seeds=[4])
    calls = _counting_sampler(monkeypatch)
    result = run_experiment(spec)
    memo, blocks = calls[0][1], len(calls)
    for tr in result.traces.values():
        run_solver(spec.problem, tr.config)
    # Every cell of the seed starts the same stream, and a solo run draws
    # every block it takes: the grid drew each block index the cells reach
    # once, from the state a solo run draws it from.
    grid = [repr(state) for state, _ in calls[:blocks]]
    solo = {repr(state) for state, _ in calls[blocks:]}
    assert len(set(grid)) == len(grid) == 3
    assert set(grid) == solo
    assert memo is not None and memo.blocks == [] and memo.states == []
    assert vr._memo is None
