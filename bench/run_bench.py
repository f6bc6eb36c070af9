"""zoht benchmark: solver grids end to end, and per layer from a traced run.

    python3 bench/run_bench.py --workload ridge-default --seed 0 \
        --seconds 15 --trace 0 [--save report.json]

One run builds the workload's problem from ``--seed`` and runs its grid
through ``zoht.harness.run_experiment``, ``emit_csv`` and ``emit_svg``
again and again (at least once) until ``--seconds`` have passed, with
``workers=1``. Each repeat ("pass") is checked: every cell must satisfy
the exact IZO identity and keep every recorded iterate k-sparse, and the
CSV bodies of every later pass, the traced one included, must match the
first pass byte for byte. End-to-end metrics
are medians over the untraced passes, in seconds at a reference speed
(see "speed calibration" below). Set-up time is the median of several
fresh interpreters that import zoht, build the problem and the spec.
With ``--trace 1`` one more pass runs with spans around each layer (see
tracer.py) and the per-layer metrics, in raw seconds, come from it.

zoht is imported from ``src/`` beside this directory and from nowhere
else. The last line of stdout is one JSON object: correct, attempted and
failed (counted in cells) and the metrics. Exit status 1 means zoht
could not be imported (no result is printed); 2 means bad arguments.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import HOOKS, PROBLEM_HOOKS, Tracer  # noqa: E402
from workloads import ALGORITHMS, WORKLOADS, make_problem, make_spec, solver_seeds  # noqa: E402

SETUP_PROBES = 9
VR_FULL_PASS = ("vr.take_snapshot", "vr.sarah_init", "vr.init_gradient_memory")
VR_INNER = ("vr.svrg_gradient", "vr.sarah_step", "vr.pm_gradient")


def import_zoht():
    """Import zoht from this checkout's src/, or exit with status 1."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import zoht
    except ImportError as exc:
        sys.exit("bench: cannot import zoht from %s: %s" % (src, exc))
    if Path(zoht.__file__).resolve().parent != src / "zoht":
        sys.exit("bench: zoht was imported from %s, not %s" % (zoht.__file__, src))
    return zoht


# -- speed calibration --------------------------------------------------------
# On a shared 2-vCPU Xeon VM the same code runs 1.3 to 2 times slower for
# stretches of seconds to minutes (other tenants on the host), and no
# number of repeats averages that away. So a fixed loop is timed before
# each cell and once after the last: small numpy calls from a Python loop
# (20 of 1000 drawn without replacement), like the solvers' inner loops,
# and no zoht code. Of the loops tried, this one's slowdown tracked the
# cells' slowdown most closely on all three workloads. Each cell's time is
# divided by that slowdown against CAL_REF_S, so the end-to-end times are
# seconds at the reference speed; the saved report keeps the raw seconds.
CAL_ROUNDS = 800
CAL_REF_S = 0.009


def calibrate():
    """Seconds the calibration loop takes, its set-up included, so that
    subtracting it leaves no trace of it in any other time."""
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(CAL_ROUNDS):
        rng.choice(1000, size=20, replace=False)
    return time.perf_counter() - t0


# -- one pass -----------------------------------------------------------------

def run_pass(zoht, wl, seed, out_dir, tracer=None):
    """Problem generation through files written. Returns the pass record
    and the bytes of every emitted CSV/meta file. The calibration loop runs
    before each cell, outside the cell's own time and outside any span but
    that of run_experiment."""
    harness = zoht.harness
    solve = harness.run_solver
    cells = []  # (algorithm, calibration_s, cell_s, izo)

    def calibrated_run_solver(problem, cfg):
        cal = calibrate()
        start = time.perf_counter()
        trace = solve(problem, cfg)
        cells.append((cfg.algorithm, cal, time.perf_counter() - start, trace.izo))
        return trace

    harness.run_solver = calibrated_run_solver
    try:
        t0 = time.perf_counter()
        problem = make_problem(zoht, wl, seed)
        if tracer is not None:
            tracer.attach_problem(problem)
        spec = make_spec(zoht, wl, problem, seed)
        result = harness.run_experiment(spec, workers=1)
        closing_cal = calibrate()
        paths = harness.emit_csv(result, out_dir)
        harness.emit_svg(result, "izo", out_dir)
        harness.emit_svg(result, "nht", out_dir)
        t1 = time.perf_counter()
    finally:
        harness.run_solver = solve

    bodies = {os.path.basename(p): Path(p).read_bytes() for p in paths}
    check_errors, failed_cells = [], set()
    for key, tr in result.traces.items():
        expected = zoht.solvers.expected_izo(problem.n, tr)
        if tr.izo != expected:
            check_errors.append("%s: izo %d != expected %d" % (key, tr.izo, expected))
            failed_cells.add(key)
        if any(row[3] > wl.k for row in tr.rows):
            check_errors.append("%s: a recorded iterate has nnz > k=%d" % (key, wl.k))
            failed_cells.add(key)
    izo = sum(tr.izo for tr in result.traces.values())
    record = {
        "cells": len(result.traces),
        "raw_wall_s": t1 - t0 - closing_cal - sum(c[1] for c in cells),
        "izo": izo,
        "nht": sum(tr.nht for tr in result.traces.values()),
        "fval_best": min(
            statistics.fmean(result.traces[(token, result.best_eta[token], s)].rows[-1][2]
                             for s in spec.seeds)
            for token in ALGORITHMS),
        "diverged": len(result.diverged_cells()),
        "failed_cells": len(failed_cells),
        "check_errors": check_errors,
        "csv_bytes": sum(len(body) for body in bodies.values()),
        "cells_s": cells,
    }
    # A cell's speed is read from the calibrations just before and just
    # after it.
    cals = [c[1] for c in cells] + [closing_cal]
    scaled = [c[2] * 2.0 * CAL_REF_S / (cals[i] + cals[i + 1])
              for i, c in enumerate(cells)]
    raw = sum(c[2] for c in cells)
    record["raw_us_per_izo"] = 1e6 * raw / izo
    record["us_per_izo"] = 1e6 * sum(scaled) / izo
    record["wall_s"] = record["raw_wall_s"] * sum(scaled) / raw
    record["us_per_izo_by_solver"] = {
        algo: 1e6 * sum(t for t, c in zip(scaled, cells) if c[0] == algo)
        / sum(c[3] for c in cells if c[0] == algo)
        for algo in ALGORITHMS
    }
    return record, bodies


class Runner:
    """Runs passes of one workload and tallies attempted/failed cells."""

    def __init__(self, zoht, wl, seed, out_root):
        self.zoht, self.wl, self.seed = zoht, wl, seed
        self.out_root = out_root
        self.reference = None
        self.attempted = self.failed = 0
        self.errors = []

    def run(self, tracer=None):
        wl = self.wl
        cells = len(ALGORITHMS) * len(wl.eta_grid) * len(solver_seeds(self.seed))
        out_dir = self.out_root / ("pass%d" % (self.attempted // cells))
        self.attempted += cells
        try:
            record, bodies = run_pass(self.zoht, wl, self.seed, out_dir, tracer)
        except Exception as exc:  # a failing grid fails every cell in it
            self.failed += cells
            self.errors.append("pass raised %s: %s" % (type(exc).__name__, exc))
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        failed = record["failed_cells"]
        self.errors.extend(record["check_errors"])
        if self.reference is None:
            self.reference = bodies
        elif bodies != self.reference:
            # A body that differs between repeats fails every cell of the pass.
            diff = sorted(set(bodies) ^ set(self.reference)
                          | {k for k in bodies.keys() & self.reference.keys()
                             if bodies[k] != self.reference[k]})
            self.errors.append("CSV bodies differ from the first pass: %s" % diff[:5])
            failed = cells
        self.failed += failed
        return record


# -- set-up -------------------------------------------------------------------

def setup_probe(wl, seed):
    """Time import, problem generation and spec construction in this
    (fresh) interpreter."""
    t0 = time.perf_counter()
    zoht = import_zoht()
    make_spec(zoht, wl, make_problem(zoht, wl, seed), seed)
    print(repr(time.perf_counter() - t0))


def measure_setup(wl, seed):
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", wl.name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout))
    return times


# -- metrics ------------------------------------------------------------------

def median_of(records, key):
    return statistics.median(r[key] for r in records)


def end_to_end(records, setup_times):
    metrics = {
        "wall_s": (median_of(records, "wall_s"), "s"),
        # Set-up is too short to calibrate on its own; it takes the run's
        # speed, the median calibration over every cell of every pass.
        "setup_s": (statistics.median(setup_times) * CAL_REF_S
                    / statistics.median(c[1] for r in records for c in r["cells_s"]), "s"),
        "us_per_izo": (median_of(records, "us_per_izo"), "us"),
    }
    for token in ALGORITHMS:
        metrics["us_per_izo." + token] = (
            statistics.median(r["us_per_izo_by_solver"][token] for r in records), "us")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(tr, rec, untraced_wall, runner):
    izo, nht = rec["izo"], rec["nht"]
    comp_calls = tr.stat("problems.component", "calls")
    guard_calls = tr.stat("problems.component", "calls", {"problems.mean_value"})
    sample_calls = tr.stat("zo.sample_directions", "calls")
    zo_calls = tr.stat("zo.zo_gradient", "calls")
    ht_calls = tr.stat("ht.hard_threshold", "calls")
    vr_spans = {span for _, _, span in HOOKS if span.startswith("vr.")}

    def group(spans, field):
        return sum(tr.stat(s, field) for s in spans)

    return {
        "problems.component.izo_calls": (
            tr.stat("problems.component", "calls", {"zo.zo_gradient"}), "count"),
        "problems.component.guard_calls": (guard_calls, "count"),
        "problems.component.self_s": (tr.stat("problems.component", "self_s"), "s"),
        "problems.component.us_per_call": (
            1e6 * tr.stat("problems.component", "total_s") / comp_calls, "us"),
        "problems.guard_calls_per_izo": (guard_calls / izo, "1/izo"),
        "problems.mean_value.calls": (tr.stat("problems.mean_value", "calls"), "count"),
        "problems.mean_value.total_s": (tr.stat("problems.mean_value", "total_s"), "s"),
        "zo.sample_directions.calls": (sample_calls, "count"),
        "zo.sample_directions.self_s": (tr.stat("zo.sample_directions", "self_s"), "s"),
        "zo.sample_directions.us_per_direction": (
            1e6 * tr.stat("zo.sample_directions", "total_s")
            / tr.stat("zo.sample_directions", "units"), "us"),
        "zo.zo_gradient.calls": (zo_calls, "count"),
        "zo.zo_gradient.self_s": (tr.stat("zo.zo_gradient", "self_s"), "s"),
        "zo.zo_gradient.us_per_call": (
            1e6 * tr.stat("zo.zo_gradient", "total_s") / zo_calls, "us"),
        "vr.full_pass.calls": (group(VR_FULL_PASS, "calls"), "count"),
        "vr.full_pass.total_s": (group(VR_FULL_PASS, "total_s"), "s"),
        "vr.inner.calls": (group(VR_INNER, "calls"), "count"),
        "vr.inner.total_s": (group(VR_INNER, "total_s"), "s"),
        "vr.memory_update.calls": (tr.stat("vr.memory_update", "calls"), "count"),
        "vr.memory_update.total_s": (tr.stat("vr.memory_update", "total_s"), "s"),
        "vr.self_s": (group(vr_spans, "self_s"), "s"),
        "ht.hard_threshold.calls": (ht_calls, "count"),
        "ht.hard_threshold.self_s": (tr.stat("ht.hard_threshold", "self_s"), "s"),
        "ht.hard_threshold.us_per_call": (
            1e6 * tr.stat("ht.hard_threshold", "total_s") / ht_calls, "us"),
        "solvers.run_solver.calls": (tr.stat("solvers.run_solver", "calls"), "count"),
        "solvers.run_solver.self_s": (tr.stat("solvers.run_solver", "self_s"), "s"),
        "solvers.izo": (izo, "count"),
        "solvers.nht": (nht, "count"),
        "solvers.fval_best": (rec["fval_best"], "f"),
        "solvers.diverged_frac": (rec["diverged"] / rec["cells"], "frac"),
        "harness.run_experiment.self_s": (
            tr.stat("harness.run_experiment", "self_s") - sum(c[1] for c in rec["cells_s"]),
            "s"),
        "harness.emit_csv.s": (tr.stat("harness.emit_csv", "total_s"), "s"),
        "harness.emit_csv.bytes": (rec["csv_bytes"], "bytes"),
        "harness.emit_svg.s": (tr.stat("harness.emit_svg", "total_s"), "s"),
        "trace.overhead_frac": (rec["wall_s"] / untraced_wall - 1.0, "frac"),
        "harness.failed_frac": (runner.failed / runner.attempted, "frac"),
    }


def self_checks(tr, wl, rec):
    """The traced run must have hooked every layer and seen its work;
    a hook left on a renamed attribute would otherwise report zeros."""
    problems = ["no attribute to hook: %s" % label for label in tr.missing]
    spans = {span for _, _, span in HOOKS} | {span for _, span in PROBLEM_HOOKS}
    for span in sorted(spans):
        if tr.stat(span, "calls") == 0:
            problems.append("span %s recorded no calls" % span)
    izo_calls = tr.stat("problems.component", "calls", {"zo.zo_gradient"})
    if izo_calls != rec["izo"]:
        problems.append("component calls under zo_gradient %d != sum of trace.izo %d"
                        % (izo_calls, rec["izo"]))
    if tr.stat("ht.hard_threshold", "calls") != rec["nht"]:
        problems.append("hard_threshold calls %d != sum of trace.nht %d"
                        % (tr.stat("ht.hard_threshold", "calls"), rec["nht"]))
    if tr.stat("solvers.run_solver", "calls") != rec["cells"]:
        problems.append("run_solver calls %d != cells %d"
                        % (tr.stat("solvers.run_solver", "calls"), rec["cells"]))
    guard = tr.stat("problems.component", "calls", {"problems.mean_value"})
    if wl.guard_through_component and guard == 0:
        problems.append("no component calls under mean_value on %s" % wl.name)
    return problems


# -- environment --------------------------------------------------------------

def environment(np):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit or "unknown",
    }


# -- main ---------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="also write the full report to this JSON file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(wl, args.seed)
        return 0

    zoht = import_zoht()
    import numpy as np

    setup_times = measure_setup(wl, args.seed)
    out_root = ROOT / ".bench_out" / ("%s-%d" % (wl.name, os.getpid()))
    runner = Runner(zoht, wl, args.seed, out_root)
    records = []
    try:
        start = time.perf_counter()
        while not records or time.perf_counter() - start < args.seconds:
            rec = runner.run()
            if rec is None:
                break
            records.append(rec)
        traced = None
        if args.trace and records:
            tracer = Tracer()
            tracer.install(sys.modules)
            try:
                traced = runner.run(tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            out_root.parent.rmdir()
        except OSError:
            pass

    errors = list(runner.errors)
    metrics = {}
    if records and not args.trace:
        metrics = end_to_end(records, setup_times)
    elif traced is not None:
        problems = self_checks(tracer, wl, traced)
        errors += ["self-check: " + p for p in problems]
        if not problems:
            metrics = per_layer(tracer, traced, median_of(records, "wall_s"), runner)
    for msg in errors:
        print("bench: FAILED %s" % msg, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("%-40s %16.6g %s" % (name, value, unit))

    correct = not errors and bool(metrics)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(np),
        "setup_s": setup_times, "passes": records, "errors": errors,
        "spans": tracer.spans() if traced is not None else [], "result": result,
    }
    if args.save:
        Path(args.save).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": report["environment"],
                      "passes": len(records), "errors": len(errors)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
