"""End-to-end optimizers over a black-box finite-sum oracle, all of the
form: estimate a gradient from function values only, take a descent step,
keep the k largest-magnitude coordinates. Five estimators are wired in:

  szoht       one random component per step, one zeroth-order estimate
  fgzoht      full (all-component) zeroth-order estimate per step
  pm-szht     memory table with probabilistic refresh (SAGA family)
  vr-szht     snapshot anchor refreshed every m inner steps (SVRG family)
  sarah-szht  snapshot anchor moved to every new iterate (SARAH family;
              recursive, so biased after the first step)

Every run starts at theta = 0, and every step thresholds (1 NHT). A
single estimate costs q+1 IZO (q probes plus one shared base value), a
full estimate n(q+1), a coupled pair 2(q+1). Every run ends by checking
that identity (``expected_izo``) and that every recorded iterate is
k-sparse. Trace function values are measured through the uncounted oracle
handle (no IZO charge).

The budget is a ceiling: a unit of work starts only if its whole IZO cost
fits in what is left. A unit is one step (a pm-szht step with the refresh
set it drew), except that a vr-szht epoch starts only if its snapshot and
one inner pair fit, and a sarah-szht epoch if its full pass does (its first
step reuses it). ``check_budget`` refuses, before any query, a pm-szht p
outside [1, n] and a budget below the least one: n(q+1), plus 2(q+1) for
vr-szht or (J_max+1)(q+1) for pm-szht (J_max = p under p-saga, n under
svrg-variant), so every run takes a step.
"""

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .core import nnz, require_numbers, spawn_stream
from .ht import hard_threshold
from .vr import (
    LAW_P_SAGA,
    UPDATE_LAWS,
    ZoComponentEstimator,
    draw_update_set,
    init_gradient_memory,
    memory_update,
    pm_gradient,
    take_snapshot as sarah_init,  # sarah-szht's own span in bench/tracer.py
    sarah_step,
    svrg_gradient,
    take_snapshot,
)
from .zo import ZoEstimatorConfig, zo_gradient  # zo_gradient: hooked by bench/tracer.py

ALGORITHMS = ("fgzoht", "szoht", "pm-szht", "vr-szht", "sarah-szht")

# Abort when the objective exceeds DIVERGENCE_FACTOR * (1 + F(0)).
DIVERGENCE_FACTOR = 1e12


@dataclass(kw_only=True)
class RunSettings:
    """The settings every run of a grid shares, declared once for
    ``SolverConfig`` and ``harness.ExperimentSpec``, with their checks."""

    k: int
    zo: ZoEstimatorConfig
    izo_budget: int
    m: int = None                  # inner-loop length (vr / sarah)
    p: int = None                  # memory update rate (pm)
    law: str = LAW_P_SAGA          # memory update-set law (pm)

    def __post_init__(self):
        require_numbers(k=self.k, izo_budget=self.izo_budget, integer=True)
        require_numbers(m=self.m, p=self.p, integer=True, optional=True)
        if not 0 <= self.k <= self.zo.d:
            raise ValueError("need 0 <= k <= d, got k=%s d=%s" % (self.k, self.zo.d))
        if self.law not in UPDATE_LAWS:
            raise ValueError("unknown update law %r" % self.law)


@dataclass(kw_only=True)
class SolverConfig(RunSettings):
    algorithm: str
    eta: float
    seed: int

    def __post_init__(self):
        super().__post_init__()
        require_numbers(seed=self.seed, integer=True, least=0)
        require_numbers(eta=self.eta, least=0)
        if self.algorithm not in ALGORITHMS:
            raise ValueError("unknown algorithm %r (known: %s)"
                             % (self.algorithm, ",".join(ALGORITHMS)))
        if self.algorithm in ("vr-szht", "sarah-szht") and (self.m is None or self.m < 1):
            raise ValueError("%s needs m >= 1, got m=%s" % (self.algorithm, self.m))
        if self.algorithm == "pm-szht" and self.p is None:
            raise ValueError("pm-szht needs the memory update rate p")


@dataclass
class RunTrace:
    """Per-run time series and exact accounting metadata: the run's only
    ledger, written in place while the solver runs.

    columns: the rows at theta = 0 and after each step that passes the
    divergence guard, as four typed arrays keyed in row order ``izo``,
    ``nht``, ``fval`` (doubles) and ``nnz`` (theta's nonzeros; int64 like
    izo and nht), 32 bytes a row. izo strictly increases, and the last row
    is final_theta's unless it tripped the guard. A sarah-szht epoch ends on
    its picked iterate's row. nht counts the steps; with the epoch and
    memory-refresh tallies it closes each solver's IZO identity exactly.
    """

    final_theta: np.ndarray
    config: SolverConfig
    izo: int
    nht: int
    diverged: bool = False
    epochs: int = 0
    memory_updates: int = 0
    columns: dict = field(init=False, default_factory=lambda: {
        "izo": array("q"), "nht": array("q"), "fval": array("d"), "nnz": array("q")})

    @property
    def rows(self):
        """A new list of the rows as (izo, nht, fval, nnz) Python scalars."""
        return list(zip(*self.columns.values()))

    def column(self, name):
        """One column as an int64 (izo, nht, nnz) or float64 (fval) array."""
        return np.array(self.columns[name])


def check_budget(oracle_n, cfg):
    """Raise ValueError if pm-szht's p is outside [1, n], or if
    cfg.izo_budget is below the solver's least budget (module docstring),
    which pays for its first step."""
    unit = cfg.zo.izo_per_estimate
    least = oracle_n * unit
    if cfg.algorithm == "vr-szht":
        least += 2 * unit
    elif cfg.algorithm == "pm-szht":
        if not 1 <= cfg.p <= oracle_n:
            raise ValueError("pm-szht needs 1 <= p <= n, got p=%s n=%d" % (cfg.p, oracle_n))
        j_max = cfg.p if cfg.law == LAW_P_SAGA else oracle_n
        least += (j_max + 1) * unit
    if cfg.izo_budget < least:
        raise ValueError(
            "izo_budget %d below %s's least budget, %d IZO"
            % (cfg.izo_budget, cfg.algorithm, least)
        )


class _Run:
    """One solver run: streams, the component estimator (it tallies IZO),
    theta and its held fval = F(theta), budget gate, and the RunTrace that
    receives rows (all written by _record), NHT and step tallies as they
    happen. Algorithm bodies are in _RUNNERS."""

    def __init__(self, oracle, cfg):
        check_budget(oracle.n, cfg)
        self.oracle = oracle
        self.cfg = cfg
        self.idx_rng = spawn_stream(cfg.seed, "indices")
        self.mem_rng = spawn_stream(cfg.seed, "memory-sets")
        self.est = ZoComponentEstimator(oracle, cfg.zo, spawn_stream(cfg.seed, "directions"))
        self.theta = np.zeros(cfg.zo.d)
        self.trace = RunTrace(final_theta=None, config=cfg, izo=0, nht=0)
        self.fval = oracle.mean_value(self.theta)
        if not math.isfinite(self.fval):
            raise ValueError(
                "objective is non-finite at the initial point: %r" % float(self.fval)
            )
        self.guard_level = DIVERGENCE_FACTOR * (1.0 + abs(self.fval))
        self._record()

    def _record(self):
        """Unless fval trips the divergence guard, write the held iterate's
        (izo, nht, fval, nnz) over any row at this izo; return whether it did."""
        if not (math.isfinite(self.fval) and self.fval <= self.guard_level):
            return False
        cols, izo = self.trace.columns, self.est.izo
        if cols["izo"] and cols["izo"][-1] == izo:
            for col in cols.values():
                col.pop()
        cols["izo"].append(izo)
        cols["nht"].append(self.trace.nht)
        cols["fval"].append(self.fval)
        cols["nnz"].append(nnz(self.theta))
        return True

    def fits(self, cost):
        """Whether a unit of work costing ``cost`` IZO may start: the run
        has not diverged and the unit fits in what is left of the budget."""
        return not self.trace.diverged and self.est.izo + cost <= self.cfg.izo_budget

    def sample_index(self):
        return int(self.idx_rng.integers(self.oracle.n))

    def descend(self, grad):
        """Step, threshold (1 NHT), record F or trip the guard. F is taken once
        per distinct iterate: a bytewise repeat keeps the held fval, since F
        is a function of theta (see FunctionOracle)."""
        theta = hard_threshold(self.theta - self.cfg.eta * grad, self.cfg.k)
        self.trace.nht += 1
        if theta.tobytes() != self.theta.tobytes():
            self.theta = theta
            self.fval = self.oracle.mean_value(theta)
        self.trace.diverged = not self._record()

    def _szoht(self):
        """One uniformly random component estimate per iteration (q+1 IZO,
        1 NHT)."""
        while self.fits(self.cfg.zo.izo_per_estimate):
            i = self.sample_index()
            self.descend(self.est.estimate(i, self.theta))

    def _fgzoht(self):
        """Full zeroth-order gradient per iteration (n(q+1) IZO, 1 NHT)."""
        while self.fits(self.oracle.n * self.cfg.zo.izo_per_estimate):
            self.descend(self.est.full(self.theta).mean(axis=0))

    def _pm_szht(self):
        """Memory-table solver: refresh a random row set, then take one
        three-term step. Init fills the table with a full pass (n(q+1) IZO);
        each iteration costs (|J|+1)(q+1) IZO and 1 NHT, and the run ends at
        the first drawn J whose iteration does not fit."""
        unit = self.cfg.zo.izo_per_estimate
        mem = init_gradient_memory(self.est, self.theta, self.cfg.p, self.cfg.law)
        while True:
            chosen = draw_update_set(mem, self.mem_rng)
            if not self.fits((len(chosen) + 1) * unit):
                break
            memory_update(mem, self.theta, self.est, chosen)
            self.trace.memory_updates += len(chosen)
            i = self.sample_index()
            self.descend(pm_gradient(mem, self.theta, i, self.est))

    def _vr_szht(self):
        """Snapshot solver: refresh the anchor full gradient each epoch
        (n(q+1) IZO), then m inner steps of 2(q+1) IZO and 1 NHT each. The
        next anchor is the last inner iterate. An epoch starts only if its
        snapshot and one inner step fit."""
        pair = 2 * self.cfg.zo.izo_per_estimate
        while self.fits(self.oracle.n * self.cfg.zo.izo_per_estimate + pair):
            snap = take_snapshot(self.est, self.theta)
            self.trace.epochs += 1
            for _ in range(self.cfg.m):
                if not self.fits(pair):
                    break
                i = self.sample_index()
                self.descend(svrg_gradient(snap, self.theta, i, self.est))

    def _sarah_szht(self):
        """Recursive-difference solver. Each epoch: full estimate (n(q+1)
        IZO), a first step reusing it, then m-1 recursion steps of 2(q+1)
        IZO. The epoch output is the iterate at a uniformly random inner
        index, and the row at the epoch's end izo shows it."""
        pair = 2 * self.cfg.zo.izo_per_estimate
        while self.fits(self.oracle.n * self.cfg.zo.izo_per_estimate):
            snap = sarah_init(self.est, self.theta)
            self.trace.epochs += 1
            epoch_iterates = [(self.theta, self.fval)]
            self.descend(snap.anchor_grad)
            epoch_iterates.append((self.theta, self.fval))
            for _ in range(1, self.cfg.m):
                if not self.fits(pair):
                    break
                i = self.sample_index()
                grad, snap = sarah_step(snap, self.theta, i, self.est)
                self.descend(grad)
                epoch_iterates.append((self.theta, self.fval))
            pick = int(self.idx_rng.integers(len(epoch_iterates)))
            self.theta, self.fval = epoch_iterates[pick]
            self._record()


_RUNNERS = {
    "szoht": _Run._szoht,
    "fgzoht": _Run._fgzoht,
    "pm-szht": _Run._pm_szht,
    "vr-szht": _Run._vr_szht,
    "sarah-szht": _Run._sarah_szht,
}


def run_solver(oracle, cfg):
    """Run cfg.algorithm on the oracle until the IZO budget is spent or
    the divergence guard trips; the only solver entry point. Raises
    RuntimeError unless trace.izo equals ``expected_izo`` and every
    recorded iterate and the final one are k-sparse."""
    run = _Run(oracle, cfg)
    _RUNNERS[cfg.algorithm](run)
    trace = run.trace
    trace.final_theta, trace.izo = run.theta, run.est.izo
    want = expected_izo(oracle.n, trace)
    if trace.izo != want:
        raise RuntimeError(
            "%s: trace.izo %d != expected_izo %d" % (cfg.algorithm, trace.izo, want)
        )
    worst = max(max(trace.columns["nnz"]), nnz(trace.final_theta))
    if worst > cfg.k:
        raise RuntimeError("%s: nnz %d exceeds k = %d" % (cfg.algorithm, worst, cfg.k))
    return trace


def expected_izo(oracle_n, trace):
    """Closed-form IZO count implied by the per-iteration rules, nht and
    the trace's tallies; equals trace.izo exactly for every solver."""
    cfg = trace.config
    unit = cfg.zo.q + 1
    algo = cfg.algorithm
    if algo == "szoht":
        return trace.nht * unit
    if algo == "fgzoht":
        return trace.nht * oracle_n * unit
    if algo == "pm-szht":
        return (oracle_n + trace.nht + trace.memory_updates) * unit
    if algo == "vr-szht":
        return trace.epochs * oracle_n * unit + trace.nht * 2 * unit
    if algo == "sarah-szht":
        return trace.epochs * oracle_n * unit + (trace.nht - trace.epochs) * 2 * unit
    raise ValueError(algo)


def gradient_squared_decomposition(source, theta, samples, seed, estimator="szoht"):
    """Monte Carlo split of a gradient estimator's second moment at theta
    into (variance, squared-mean) parts: E||g||^2 = Var + ||E g||^2 with
    both terms estimated from ``samples`` independent realizations.

    ``estimator`` is one of ``ALGORITHMS``; ``source`` is the per-component
    gradient source its draws use, as given: a ``vr.ZoComponentEstimator``
    (its config, coupling included, and its direction stream) or the exact twin
    ``vr.ExactComponentEstimator``. ``seed`` drives only the component
    indices; only a fresh source on ``spawn_stream(seed, "directions")``
    reproduces the draws of a run with that seed. Snapshot and memory
    states are built once at theta, then held fixed across samples. At a
    fixed theta a recursion step is the snapshot estimator anchored at
    theta, so sarah-szht draws exactly as vr-szht does. Refused below 100
    samples.
    """
    require_numbers(samples=samples, integer=True, least=100)
    theta = np.asarray(theta, dtype=np.float64)
    oracle = source.oracle
    idx_rng = spawn_stream(seed, "indices")

    snapshot = memory = None
    if estimator in ("vr-szht", "sarah-szht"):
        snapshot = take_snapshot(source, theta)
    if estimator == "pm-szht":
        memory = init_gradient_memory(source, theta, p=1, law=LAW_P_SAGA)

    def draw():
        if estimator == "fgzoht":
            return source.full(theta).mean(axis=0)
        i = int(idx_rng.integers(oracle.n))
        if estimator == "szoht":
            return source.estimate(i, theta)
        if estimator in ("vr-szht", "sarah-szht"):
            return svrg_gradient(snapshot, theta, i, source)
        if estimator == "pm-szht":
            return pm_gradient(memory, theta, i, source)
        raise ValueError("unknown estimator %r (known: %s)" % (estimator, ",".join(ALGORITHMS)))

    draws = np.stack([draw() for _ in range(samples)])
    mean_g = draws.mean(axis=0)
    # Two passes: E||g - E g||^2, not E||g||^2 - ||E g||^2, which cancels
    # to rounding residue when the draws barely vary.
    variance = float(np.mean(np.sum((draws - mean_g) ** 2, axis=1)))
    grad_norm_sq = float(mean_g @ mean_g)
    return variance, grad_norm_sq
