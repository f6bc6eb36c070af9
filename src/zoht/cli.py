"""Command-line front-end.

Subcommands:
  ridge-synthetic   grid-searched solver comparison on generated ridge data
  ridge-csv         same on a headered numeric CSV dataset
  attack-surrogate  universal sparse perturbation against the shipped
                    linear-softmax black box
  check-theory      print the closed-form constants for a parameter set

Exit codes: 0 success, 1 usage error, 2 runtime/numeric error.
"""

import argparse
import sys

from .core import spawn_stream
from .harness import ExperimentSpec, emit_csv, emit_svg, run_experiment
from .problems import attack_surrogate_problem, ridge_from_csv, ridge_synthetic
from .solvers import ALGORITHMS
from .theory import (
    TheoryParams,
    alpha,
    complexity_estimate,
    epsilon_constants,
    pm_eta_interval,
    sarah_eta_interval,
    szoht_conditions,
    vrszht_eta_interval,
)
from .vr import LAW_P_SAGA, UPDATE_LAWS
from .zo import ZoEstimatorConfig

DEFAULT_ALGOS = "fgzoht,szoht,vr-szht,pm-szht,sarah-szht"
DEFAULT_ETA_GRID = "0.005,0.01,0.05,0.1,0.5"
CSV_ETA_GRID = ",".join("1e-%d" % i for i in range(1, 8))
ATTACK_ETA_GRID = "0.001,0.005,0.01,0.05"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _int_at_least(least, name):
    """argparse type of an integer flag that refuses values below ``least``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError as exc:  # int() names the token
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value < least:
            raise argparse.ArgumentTypeError("%s must be >= %d, got %d" % (name, least, value))
        return value
    return parse


def _algo(name):
    if name not in ALGORITHMS:
        raise argparse.ArgumentTypeError(
            "unknown algorithm %r (known: %s)" % (name, ",".join(ALGORITHMS)))
    return name


def _comma_list(convert):
    """argparse type of a list flag: comma-separated, no value twice."""
    def parse(text):
        values, seen = [], {}
        for token in filter(None, map(str.strip, text.split(","))):
            try:
                value = convert(token)
            except ValueError as exc:  # float() names the token
                raise argparse.ArgumentTypeError(str(exc)) from None
            if value in seen:
                raise argparse.ArgumentTypeError(
                    "entries %r and %r both name %s" % (seen[value], token, value))
            seen[value] = token
            values.append(value)
        return values
    return parse


def _add_run_options(sub, k, q, mu, m, budget, eta_grid):
    """The options shared by the run subcommands, with their defaults."""
    sub.add_argument("--k", type=int, default=k)
    sub.add_argument("--q", type=int, default=q)
    sub.add_argument("--mu", type=float, default=mu)
    sub.add_argument("--s2", type=int, default=None, help="default: d")
    sub.add_argument("--m", type=int, default=m,
                     help="default: floor(n/2)" if m is None else None)
    sub.add_argument("--budget", type=int, default=budget)
    sub.add_argument("--seeds", type=_comma_list(_int_at_least(0, "seed")), default=[1, 2, 3])
    sub.add_argument("--eta-grid", type=_comma_list(float), default=eta_grid)
    sub.add_argument("--algos", type=_comma_list(_algo), default=DEFAULT_ALGOS)
    sub.add_argument("--p", type=int, default=1, help="memory update rate")
    sub.add_argument("--law", choices=UPDATE_LAWS, default=LAW_P_SAGA)
    sub.add_argument("--workers", type=_int_at_least(1, "workers"), default=1)
    sub.add_argument("--svg", action="store_true", help="also emit SVG charts")
    sub.add_argument("--out", required=True, help="output directory")


def build_parser():
    parser = _Parser(prog="zoht", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    rs = subs.add_parser("ridge-synthetic", help="synthetic ridge benchmark")
    rs.add_argument("--n", type=int, default=10)
    rs.add_argument("--d", type=int, default=5)
    rs.add_argument("--lambda", dest="lam", type=float, default=0.5)
    rs.add_argument("--data-seed", type=_int_at_least(0, "seed"), default=0)
    _add_run_options(rs, 3, 200, 1e-4, 10, 80_000, DEFAULT_ETA_GRID)

    rc = subs.add_parser("ridge-csv", help="ridge benchmark on a CSV dataset")
    rc.add_argument("--file", required=True)
    rc.add_argument("--target", required=True, help="target column name")
    rc.add_argument("--lambda", dest="lam", type=float, default=0.5)
    _add_run_options(rc, 3, 200, 1e-4, None, 100_000, CSV_ETA_GRID)

    at = subs.add_parser("attack-surrogate", help="sparse black-box attack")
    at.add_argument("--n", type=int, default=4)
    at.add_argument("--d", type=int, default=48)
    at.add_argument("--classes", type=int, default=10)
    at.add_argument("--data-seed", type=_int_at_least(0, "seed"), default=0)
    _add_run_options(at, 6, 10, 1e-3, 10, 600, ATTACK_ETA_GRID)

    ct = subs.add_parser("check-theory", help="print closed-form constants")
    for flag, typ in [
        ("--d", int), ("--n", int), ("--q", int), ("--s2", int),
        ("--k", int), ("--kstar", int),
        ("--rho-plus", float), ("--rho-minus", float),
    ]:
        ct.add_argument(flag, type=typ, required=True)
    ct.add_argument("--p", type=int, default=None)
    return parser


def _problem(args):
    """The (problem, problem_name) a run subcommand's arguments describe."""
    if args.command == "ridge-csv":
        return (ridge_from_csv(args.file, args.target, args.lam),
                "ridge-csv:%s" % args.file)
    rng = spawn_stream(args.data_seed, "data-gen")
    if args.command == "attack-surrogate":
        return (attack_surrogate_problem(args.n, args.d, args.classes, rng),
                "attack-surrogate")
    return ridge_synthetic(args.n, args.d, args.lam, rng), "ridge-synthetic"


def _cmd_run(args):
    problem, problem_name = _problem(args)
    s2 = problem.d if args.s2 is None else args.s2
    m = max(problem.n // 2, 1) if args.m is None else args.m
    spec = ExperimentSpec(
        problem=problem,
        algorithms=args.algos,
        k=args.k,
        zo=ZoEstimatorConfig(q=args.q, s2=s2, mu=args.mu, d=problem.d),
        eta_grid=args.eta_grid,
        seeds=args.seeds,
        izo_budget=args.budget,
        m=m,
        p=args.p,
        law=args.law,
        problem_name=problem_name,
    )
    result = run_experiment(spec, workers=args.workers)
    paths = emit_csv(result, args.out)
    if args.svg:
        paths.append(emit_svg(result, "izo", args.out))
        paths.append(emit_svg(result, "nht", args.out))
    for algo in spec.algorithms:
        print("%s: best eta %g" % (algo, result.best_eta[algo]))
    diverged = result.diverged_cells()
    if diverged:
        print("diverged cells: %d" % len(diverged))
    print("wrote %d files to %s" % (len(paths), args.out))
    return 0


def _cmd_check_theory(args):
    tp = TheoryParams(
        d=args.d, n=args.n, q=args.q, s2=args.s2, k=args.k, kstar=args.kstar,
        rho_minus=args.rho_minus, rho_plus=args.rho_plus, p=args.p,
    )
    eps = epsilon_constants(tp)
    print("s = 2k + kstar          : %d" % tp.s)
    print("kappa                   : %.9g" % tp.kappa)
    if tp.k > tp.kstar:
        print("alpha                   : %.9g" % alpha(tp.k, tp.kstar))
    else:
        print("alpha                   : undefined (k <= kstar)")
    print("eps_mu                  : %.9g" % eps.eps_mu)
    print("eps_I                   : %.9g" % eps.eps_I)
    print("eps_Ic                  : %.9g   (%s)" % (eps.eps_Ic, "(d-1) denominator"))
    print("eps_abs                 : %.9g" % eps.eps_abs)
    k_lo, k_hi, q_lo = szoht_conditions(tp)
    print("szoht k interval        : [%.9g, %.9g]%s"
          % (k_lo, k_hi, "  (EMPTY)" if k_lo > k_hi else ""))
    print("szoht q lower bound     : %.9g" % q_lo)
    if tp.k > tp.kstar:
        if tp.p is not None:
            iv = pm_eta_interval(tp)
            print("pm-szht eta interval    : %s  (discriminant %.9g)"
                  % (_fmt_interval(iv), iv.discriminant))
        vr_iv, vr_eta = vrszht_eta_interval(tp)
        print("vr-szht eta interval    : %s  (discriminant %.9g)"
              % (_fmt_interval(vr_iv), vr_iv.discriminant))
        print("vr-szht recommended eta : %.9g" % vr_eta)
        sa_iv = sarah_eta_interval(tp)
        print("sarah-szht eta interval : %s  (discriminant %.9g)"
              % (_fmt_interval(sa_iv), sa_iv.discriminant))
    zo_q, ht_q = complexity_estimate(tp, 1e-3)
    print("complexity @1e-3        : %.9g zo queries, %.9g ht ops" % (zo_q, ht_q))
    return 0


def _fmt_interval(iv):
    if not iv.nonempty:
        return "EMPTY"
    return "[%.9g, %.9g]" % (iv.lo, iv.hi)


_COMMANDS = {
    "ridge-synthetic": _cmd_run,
    "ridge-csv": _cmd_run,
    "attack-surrogate": _cmd_run,
    "check-theory": _cmd_check_theory,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError, OSError, RuntimeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
