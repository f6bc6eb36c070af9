"""Experiment front-end: grid-searched, multi-seed solver runs with CSV
trace emission and self-contained SVG convergence charts.

Cells (algorithm, eta, seed) are independent and deterministic per cell,
so results do not depend on scheduling or worker count. CSV bodies carry
no timestamps and print floats with repr precision, so re-running a spec
reproduces them byte for byte.
"""

import os
from dataclasses import dataclass, field, fields

import numpy as np

from .core import RNG_DESCRIPTION, require_numbers
from .solvers import RunSettings, SolverConfig, check_budget, run_solver
from .theory import EPS_IC_TYPO_NOTE
from .vr import BlockMemo, ZoComponentEstimator

SVG_FLOOR = 1e-16


@dataclass(kw_only=True)
class ExperimentSpec(RunSettings):
    problem: object                 # a FunctionOracle instance
    algorithms: list
    eta_grid: list
    seeds: list
    p: int = 1                      # a grid runs pm-szht at p = 1 unless told
    problem_name: str = "problem"

    def __post_init__(self):
        super().__post_init__()
        if not self.algorithms or not self.eta_grid or not self.seeds:
            raise ValueError("need at least one algorithm, one eta, one seed")
        for name in ("algorithms", "eta_grid", "seeds"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError("%s repeats an entry: %s" % (name, values))
        ZoComponentEstimator(self.problem, self.zo, None)  # refuses zo.d != problem.d, as a run would
        self.cells()

    def cells(self):
        """{(algorithm, eta, seed): SolverConfig}, seed by seed, each config
        built from the spec's run settings and budget-checked on its problem."""
        shared = {f.name: getattr(self, f.name) for f in fields(RunSettings)}
        cells = {(algo, eta, seed): SolverConfig(algorithm=algo, eta=eta, seed=seed, **shared)
                 for seed in self.seeds for algo in self.algorithms for eta in self.eta_grid}
        for cfg in cells.values():
            check_budget(self.problem.n, cfg)
        return cells


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    traces: dict                    # (algo, eta, seed) -> RunTrace
    best_eta: dict                  # algo -> eta
    curves: dict = field(default_factory=dict)  # axis -> algo -> (grid, mean, std)

    def diverged_cells(self):
        return sorted(key for key, tr in self.traces.items() if tr.diverged)


# The problem a pool worker runs its cells on, set once per worker by
# _init_worker so that each job sends only its SolverConfig.
_worker_problem = None


def _init_worker(problem):
    """Set the worker's problem and open the BlockMemo its cells share
    for as long as the worker lives."""
    global _worker_problem
    _worker_problem = problem
    BlockMemo().open()


def _run_cell(cfg):
    return run_solver(_worker_problem, cfg)


def step_resample(x_points, y_points, grid):
    """Previous-value (step) interpolation onto a common grid; grid
    points before the first sample clamp to the first value."""
    idx = np.searchsorted(x_points, grid, side="right") - 1
    return np.asarray(y_points)[np.clip(idx, 0, len(y_points) - 1)]


def _aggregate(traces, axis):
    """(grid, mean, std) across seeds on the union of recorded axis
    values."""
    grids = [tr.column(axis) for tr in traces]
    # np.unique by hand: on numpy 2.x np.unique imports numpy.ma (~1.2 MB).
    grid = np.sort(np.concatenate(grids))
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    resampled = np.stack(
        [step_resample(g, tr.column("fval"), grid) for g, tr in zip(grids, traces)]
    )
    return grid, resampled.mean(axis=0), resampled.std(axis=0)


def _eta_score(traces):
    """Grid-search metric: the mean final fval over the seeds, or inf when
    every seed diverged, so such an eta wins only if every eta diverged and
    the tie rule then picks the smallest."""
    if all(tr.diverged for tr in traces):
        return np.inf
    return float(np.mean([tr.columns["fval"][-1] for tr in traces]))


def select_best_eta(scores):
    """Pure selection rule: lowest score wins, ties break toward the
    smaller eta. ``scores`` maps eta -> mean objective."""
    if not scores:
        raise ValueError("no candidate etas")
    best = min(scores.values())
    return min(eta for eta, s in scores.items() if s == best)


def run_experiment(spec, workers=1):
    """Execute every (algorithm, eta, seed) cell, pick each algorithm's
    best eta by ``_eta_score`` and ``select_best_eta``, and aggregate
    mean +- std curves on common IZO and NHT grids. Divergent cells are
    kept and flagged. Only workers is checked here (it must be an integer
    >= 1); ``spec.cells()`` checked the cells when the spec was built.

    Cells run seed by seed (every algorithm and eta of one seed, then the
    next seed), since the cells of one seed draw the same direction
    stream and share its first blocks through a ``vr.BlockMemo``. Every
    output is keyed by cell or sorted, so the order changes none."""
    require_numbers(workers=workers, integer=True, least=1)
    cells = spec.cells()
    if workers > 1:
        # Imported here: a serial run needs no multiprocessing. Fork
        # starts all max_workers processes at the first submit, so ask
        # for no more than there are cells. Each worker opens its own memo.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(
            max_workers=min(workers, len(cells)),
            initializer=_init_worker,
            initargs=(spec.problem,),
        ) as pool:
            outs = list(pool.map(_run_cell, cells.values()))
    else:
        with BlockMemo():
            outs = [run_solver(spec.problem, cfg) for cfg in cells.values()]
    traces = dict(zip(cells, outs))

    best_eta = {}
    for algo in spec.algorithms:
        scores = {eta: _eta_score([traces[(algo, eta, seed)] for seed in spec.seeds])
                  for eta in spec.eta_grid}
        best_eta[algo] = select_best_eta(scores)

    curves = {"izo": {}, "nht": {}}
    for algo in spec.algorithms:
        group = [traces[(algo, best_eta[algo], seed)] for seed in spec.seeds]
        for axis in ("izo", "nht"):
            curves[axis][algo] = _aggregate(group, axis)
    return ExperimentResult(spec=spec, traces=traces, best_eta=best_eta, curves=curves)


# -- CSV emission -------------------------------------------------------------

def _fmt(x):
    return repr(float(x))


def emit_csv(result, out_dir):
    """Write per-cell raw traces, per-algorithm aggregate curves at the
    best eta, and a key=value meta file. Returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    spec = result.spec
    paths = []
    for (algo, eta, seed), tr in sorted(result.traces.items()):
        name = "raw_%s_eta%s_seed%d.csv" % (algo, _fmt(eta), seed)
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("izo,nht,fval,nnz\n")
            for izo, nht, fval, nz in tr.rows:
                fh.write("%d,%d,%s,%d\n" % (izo, nht, _fmt(fval), nz))
        paths.append(path)
    for algo in spec.algorithms:
        grid, mean, std = result.curves["izo"][algo]
        path = os.path.join(out_dir, "agg_%s.csv" % algo)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("izo,mean_fval,std_fval\n")
            for x, m_, s_ in zip(grid, mean, std):
                fh.write("%d,%s,%s\n" % (x, _fmt(m_), _fmt(s_)))
        paths.append(path)
    meta_path = os.path.join(out_dir, "meta.txt")
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write("problem=%s\n" % spec.problem_name)
        fh.write("n=%d\nd=%d\n" % (spec.problem.n, spec.zo.d))
        fh.write("algorithms=%s\n" % ",".join(spec.algorithms))
        fh.write("eta_grid=%s\n" % ",".join(_fmt(e) for e in spec.eta_grid))
        fh.write("seeds=%s\n" % ",".join(str(s) for s in spec.seeds))
        fh.write("izo_budget=%d\n" % spec.izo_budget)
        fh.write("k=%d\nq=%d\nmu=%s\ns2=%d\n"
                 % (spec.k, spec.zo.q, _fmt(spec.zo.mu), spec.zo.s2))
        if spec.zo.shared_directions:
            fh.write("shared_directions=1\n")
        if spec.m is not None:
            fh.write("m=%d\n" % spec.m)
        if spec.p is not None:
            fh.write("p=%d\n" % spec.p)
        fh.write("law=%s\n" % spec.law)
        fh.write("rng=%s\n" % RNG_DESCRIPTION)
        fh.write("note=%s\n" % EPS_IC_TYPO_NOTE)
        for algo in spec.algorithms:
            fh.write("best_eta_%s=%s\n" % (algo, _fmt(result.best_eta[algo])))
        fh.write("diverged_cells=%s\n" % ";".join(
            "%s,eta%s,seed%d" % (algo, _fmt(eta), seed)
            for algo, eta, seed in result.diverged_cells()))
    paths.append(meta_path)
    return paths


# -- SVG emission -------------------------------------------------------------

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H, _PAD = 720, 480, 64


def _log_floor(values):
    clipped = np.maximum(np.asarray(values, dtype=float), SVG_FLOOR)
    return clipped, bool(np.any(np.asarray(values) < SVG_FLOOR))


def emit_svg(result, axis, out_dir):
    """One static SVG 1.1 chart for the given axis ("izo" or "nht"):
    log-scaled objective, one mean polyline per algorithm with a
    translucent +-1 std band. Returns the written path."""
    if axis not in ("izo", "nht"):
        raise ValueError("axis must be 'izo' or 'nht'")
    os.makedirs(out_dir, exist_ok=True)
    curves = result.curves[axis]
    floored_any = False

    x_max = max(float(grid[-1]) for grid, _, _ in curves.values()) or 1.0
    y_lo, y_hi = np.inf, -np.inf
    prepared = {}
    for algo, (grid, mean, std) in curves.items():
        lo, fl1 = _log_floor(mean - std)
        hi, fl2 = _log_floor(mean + std)
        mid, fl3 = _log_floor(mean)
        floored_any = floored_any or fl1 or fl2 or fl3
        prepared[algo] = (np.asarray(grid, float), mid, lo, hi)
        y_lo = min(y_lo, float(np.min(lo)))
        y_hi = max(y_hi, float(np.max(hi)))
    ly_lo, ly_hi = np.log10(y_lo), np.log10(y_hi)
    if ly_hi - ly_lo < 1e-9:
        ly_lo, ly_hi = ly_lo - 0.5, ly_hi + 0.5

    def px(x):
        return _PAD + (x / x_max) * (_W - 2 * _PAD)

    def py(v):
        frac = (np.log10(v) - ly_lo) / (ly_hi - ly_lo)
        return _H - _PAD - frac * (_H - 2 * _PAD)

    def polyline(xs, ys):
        return " ".join("%.2f,%.2f" % (px(x), py(y)) for x, y in zip(xs, ys))

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%d" height="%d">' % (_W, _H),
        '<rect width="100%" height="100%" fill="white"/>',
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (_PAD, _H - _PAD, _W - _PAD, _H - _PAD),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (_PAD, _PAD, _PAD, _H - _PAD),
        '<text x="%d" y="%d" font-size="13" text-anchor="middle">%s</text>'
        % (_W // 2, _H - _PAD // 3, axis.upper()),
        '<text x="%d" y="%d" font-size="13" text-anchor="middle" '
        'transform="rotate(-90 16 %d)">objective (log)</text>'
        % (16, _H // 2, _H // 2),
    ]
    # y tick labels at decade marks
    for exp in range(int(np.floor(ly_lo)), int(np.ceil(ly_hi)) + 1):
        v = 10.0 ** exp
        if not (y_lo <= v <= y_hi):
            continue
        parts.append(
            '<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" stroke="#ddd"/>'
            % (_PAD, py(v), _W - _PAD, py(v))
        )
        parts.append(
            '<text x="%d" y="%.2f" font-size="11" text-anchor="end">1e%d</text>'
            % (_PAD - 6, py(v) + 4, exp)
        )
    for x in np.linspace(0, x_max, 5):
        parts.append(
            '<text x="%.2f" y="%d" font-size="11" text-anchor="middle">%d</text>'
            % (px(x), _H - _PAD + 16, int(x))
        )

    for idx, (algo, (grid, mid, lo, hi)) in enumerate(sorted(prepared.items())):
        color = PALETTE[idx % len(PALETTE)]
        band = (
            polyline(grid, hi)
            + " "
            + polyline(grid[::-1], lo[::-1])
        )
        parts.append(
            '<polygon points="%s" fill="%s" fill-opacity="0.15" stroke="none"/>'
            % (band, color)
        )
        parts.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"/>'
            % (polyline(grid, mid), color)
        )
        parts.append(
            '<rect x="%d" y="%d" width="12" height="12" fill="%s"/>'
            % (_W - _PAD - 130, _PAD + 18 * idx, color)
        )
        parts.append(
            '<text x="%d" y="%d" font-size="12">%s</text>'
            % (_W - _PAD - 112, _PAD + 18 * idx + 10, algo)
        )
    if floored_any:
        parts.append(
            '<text x="%d" y="%d" font-size="11" fill="#a00">'
            "warning: values floored at %g for log scale</text>"
            % (_PAD, _PAD - 8, SVG_FLOOR)
        )
    parts.append("</svg>")
    path = os.path.join(out_dir, "fval_vs_%s.svg" % axis)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
    return path

