import os
import subprocess
import sys

import numpy as np
import pytest

from zoht.cli import main
from zoht.core import spawn_stream
from zoht.problems import RidgeProblem, ridge_synthetic
from zoht.solvers import SolverConfig
from zoht.theory import (
    TheoryParams,
    alpha,
    epsilon_constants,
    pm_eta_interval,
    vrszht_eta_interval,
)
from zoht.zo import ZoEstimatorConfig

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ridge-synthetic", "--frobnicate", "1", "--out", "x"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["make-coffee"])
    assert exc.value.code == 1


@pytest.mark.parametrize("command", ["ridge-synthetic", "attack-surrogate"])
def test_negative_data_seed_is_a_usage_error(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--data-seed", "-1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error: argument --data-seed: seed must be >= 0, got -1\n" in err
    assert not (tmp_path / "out").exists()


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ridge-synthetic", "--seeds", "1,-1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error: argument --seeds: seed must be >= 0, got -1\n" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--seeds", "1,1", "entries '1' and '1' both name 1"),
    ("--algos", "vr-szht,vr-szht", "entries 'vr-szht' and 'vr-szht' both name vr-szht"),
    ("--algos", "vr", "unknown algorithm 'vr' (known: fgzoht,szoht,pm-szht,vr-szht,sarah-szht)"),
    ("--eta-grid", "0.1,0.1", "entries '0.1' and '0.1' both name 0.1"),
    ("--eta-grid", "0.1,x", "could not convert string to float: 'x'"),
    ("--seeds", "1,x", "invalid literal for int() with base 10: 'x'"),
    ("--data-seed", "x", "invalid literal for int() with base 10: 'x'"),
    ("--workers", "-2", "workers must be >= 1, got -2"),
    ("--workers", "0", "workers must be >= 1, got 0"),
])
def test_bad_list_entry_is_a_usage_error(tmp_path, capsys, flag, value, message):
    with pytest.raises(SystemExit) as exc:
        main(["ridge-synthetic", flag, value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error: argument %s: %s\n" % (flag, message) in err
    assert not (tmp_path / "out").exists()


_THEORY_ARGV = ["check-theory", "--d", "5", "--n", "10", "--q", "200", "--s2", "5",
                "--rho-plus", "2.0", "--rho-minus", "0.5"]


def _solver_config(algorithm="szoht", eta=0.01, k=3, m=10):
    zo = ZoEstimatorConfig(q=200, s2=5, mu=1e-4, d=5)
    return SolverConfig(algorithm=algorithm, eta=eta, k=k, zo=zo, izo_budget=3000,
                        seed=1, m=m)


@pytest.mark.parametrize("argv, refuse, message", [
    (["ridge-synthetic", "--k", "9"], lambda: _solver_config(k=9),
     "need 0 <= k <= d, got k=9 d=5"),
    (["ridge-synthetic", "--eta-grid", "nan"], lambda: _solver_config(eta=float("nan")),
     "eta must be finite and >= 0, got eta=nan"),
    (["ridge-synthetic", "--eta-grid", "0.01,inf"], lambda: _solver_config(eta=float("inf")),
     "eta must be finite and >= 0, got eta=inf"),
    (["ridge-synthetic", "--algos", "vr-szht", "--m", "0"],
     lambda: _solver_config(algorithm="vr-szht", m=0), "vr-szht needs m >= 1, got m=0"),
    (["ridge-synthetic", "--n", "0"],
     lambda: ridge_synthetic(0, 5, 0.5, spawn_stream(0, "data-gen")),
     "need n, d >= 1, got n=0 d=5"),
    (["ridge-synthetic", "--lambda", "-1"], lambda: RidgeProblem(np.eye(2), np.ones(2), -1.0),
     "lambda must be >= 0, got lambda=-1.0"),
    (["ridge-synthetic", "--lambda", "nan"],
     lambda: RidgeProblem(np.eye(2), np.ones(2), float("nan")),
     "lambda must be finite, got lambda=nan"),
    (["ridge-synthetic", "--mu", "inf"],
     lambda: ZoEstimatorConfig(q=200, s2=5, mu=float("inf"), d=5), "mu must be finite, got inf"),
    (_THEORY_ARGV + ["--kstar", "4", "--k", "3"],
     lambda: TheoryParams(d=5, n=10, q=200, s2=5, k=3, kstar=4, rho_minus=0.5,
                          rho_plus=2.0),
     "need k >= kstar >= 0, got k=3 kstar=4"),
    (_THEORY_ARGV + ["--q", "0", "--k", "3", "--kstar", "1"],
     lambda: TheoryParams(d=5, n=10, q=0, s2=5, k=3, kstar=1, rho_minus=0.5, rho_plus=2.0),
     "q and n must be >= 1, got q=0 n=10"),
    (_THEORY_ARGV + ["--n", "0", "--k", "3", "--kstar", "1"],
     lambda: TheoryParams(d=5, n=0, q=200, s2=5, k=3, kstar=1, rho_minus=0.5, rho_plus=2.0),
     "q and n must be >= 1, got q=200 n=0"),
    (_THEORY_ARGV + ["--rho-plus", "inf", "--k", "3", "--kstar", "1"],
     lambda: TheoryParams(d=5, n=10, q=200, s2=5, k=3, kstar=1, rho_minus=0.5,
                          rho_plus=float("inf")),
     "rho_plus must be finite, got inf"),
    (_THEORY_ARGV + ["--rho-plus", "inf", "--rho-minus", "inf", "--k", "3", "--kstar", "1"],
     lambda: TheoryParams(d=5, n=10, q=200, s2=5, k=3, kstar=1, rho_minus=float("inf"),
                          rho_plus=float("inf")),
     "rho_minus must be finite, got inf"),
], ids=["k", "eta", "eta-inf", "m", "n", "lambda", "lambda-nan", "mu-inf", "kstar",
        "theory-q", "theory-n", "theory-rho-plus-inf", "theory-rho-inf"])
def test_refusal_names_the_value_it_got(tmp_path, capsys, argv, refuse, message):
    with pytest.raises(ValueError) as exc:
        refuse()
    assert str(exc.value) == message
    if argv[0] != "check-theory":
        argv = argv + ["--budget", "3000", "--seeds", "1", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_missing_file_exits_2(tmp_path, capsys):
    code = main([
        "ridge-csv", "--file", str(tmp_path / "nope.csv"), "--target", "y",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_failed_run_check_exits_2(tmp_path, capsys, monkeypatch):
    from zoht.vr import ZoComponentEstimator

    estimate = ZoComponentEstimator.estimate

    def overcharging(self, i, theta, directions=None):
        self.izo += 1
        return estimate(self, i, theta, directions)

    monkeypatch.setattr(ZoComponentEstimator, "estimate", overcharging)
    code = main([
        "attack-surrogate", "--budget", "300", "--seeds", "1", "--eta-grid", "0.01",
        "--algos", "szoht", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: szoht: trace.izo 300 != expected_izo 275\n"


def test_check_theory_matches_module(capsys):
    tp = TheoryParams(d=5, n=10, q=200, s2=5, k=3, kstar=1,
                      rho_minus=0.5, rho_plus=2.0, p=1)
    code = main([
        "check-theory", "--d", "5", "--n", "10", "--q", "200", "--s2", "5",
        "--k", "3", "--kstar", "1", "--rho-plus", "2.0", "--rho-minus", "0.5",
        "--p", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        if ":" in line:
            key, _, rest = line.partition(":")
            values[key.strip()] = rest.strip()
    assert float(values["alpha"]) == pytest.approx(alpha(3, 1), rel=1e-8)
    eps = epsilon_constants(tp)
    assert float(values["eps_I"]) == pytest.approx(eps.eps_I, rel=1e-8)
    assert float(values["eps_mu"]) == pytest.approx(eps.eps_mu, rel=1e-8)
    _, rec = vrszht_eta_interval(tp)
    assert float(values["vr-szht recommended eta"]) == pytest.approx(rec, rel=1e-8)


def test_check_theory_without_alpha_prints_no_eta_interval(capsys):
    assert main(_THEORY_ARGV + ["--k", "1", "--kstar", "1", "--p", "1"]) == 0
    out = capsys.readouterr().out
    assert "alpha                   : undefined (k <= kstar)\n" in out
    assert "eta interval" not in out and "recommended eta" not in out


def test_check_theory_prints_an_open_pm_interval(capsys):
    # tests/test_theory.py's instance where the pm interval opens
    tp = TheoryParams(d=30_100, n=10, q=1_000_000, s2=5, k=10_001, kstar=10_000,
                      rho_minus=1.0, rho_plus=1.0, p=10)
    assert main(["check-theory", "--d", "30100", "--n", "10", "--q", "1000000",
                 "--s2", "5", "--k", "10001", "--kstar", "10000", "--rho-plus", "1.0",
                 "--rho-minus", "1.0", "--p", "10"]) == 0
    iv = pm_eta_interval(tp)
    assert iv.nonempty
    assert ("pm-szht eta interval    : [%.9g, %.9g]  (discriminant %.9g)\n"
            % (iv.lo, iv.hi, iv.discriminant)) in capsys.readouterr().out


def test_check_theory_has_no_mu_or_m(capsys):
    # No formula reads a smoothing radius or an inner-loop length, so the
    # report takes neither; the run subcommands keep their own --mu and --m.
    with pytest.raises(SystemExit) as exc:
        main(_THEORY_ARGV + ["--k", "3", "--kstar", "1",
                             "--mu", "1e-4", "--p", "1", "--m", "10"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --mu 1e-4 --m 10\n" in captured.err


def test_run_has_no_select(tmp_path, capsys):
    # One best-eta rule (mean final fval over the seeds), so no option
    # chooses another.
    with pytest.raises(SystemExit) as exc:
        main(["ridge-synthetic", "--budget", "3000", "--seeds", "1",
              "--eta-grid", "0.01", "--algos", "szoht", "--select", "min",
              "--out", str(tmp_path / "run")])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --select min\n" in captured.err


def test_single_run_writes_three_files(tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "ridge-synthetic", "--n", "5", "--d", "4", "--k", "2", "--q", "10",
        "--s2", "4", "--budget", "400", "--seeds", "1",
        "--eta-grid", "0.01", "--algos", "szoht", "--out", str(out),
    ])
    assert code == 0
    names = sorted(os.listdir(out))
    assert len(names) == 3
    assert names == ["agg_szoht.csv", "meta.txt", "raw_szoht_eta0.01_seed1.csv"]


def test_svg_flag_adds_charts(tmp_path):
    out = tmp_path / "run"
    code = main([
        "ridge-synthetic", "--n", "5", "--d", "4", "--k", "2", "--q", "10",
        "--s2", "4", "--budget", "400", "--seeds", "1",
        "--eta-grid", "0.01", "--algos", "szoht", "--svg", "--out", str(out),
    ])
    assert code == 0
    names = set(os.listdir(out))
    assert {"fval_vs_izo.svg", "fval_vs_nht.svg"} <= names


def test_ridge_csv_runs_on_toy_data(tmp_path, capsys):
    out = tmp_path / "csvrun"
    code = main([
        "ridge-csv", "--file", os.path.join(DATA, "toy_linear.csv"),
        "--target", "y", "--k", "1", "--q", "5", "--s2", "2",
        "--budget", "200", "--seeds", "2", "--eta-grid", "0.01,0.05",
        "--algos", "szoht,vr-szht", "--out", str(out),
    ])
    assert code == 0
    assert "best eta" in capsys.readouterr().out
    assert any(n.startswith("raw_vr-szht_") for n in os.listdir(out))


def test_attack_surrogate_smoke(tmp_path, capsys):
    out = tmp_path / "attack"
    code = main([
        "attack-surrogate", "--n", "2", "--d", "12", "--classes", "3",
        "--k", "3", "--q", "5", "--budget", "200", "--seeds", "1",
        "--eta-grid", "0.01", "--algos", "szoht", "--out", str(out),
    ])
    assert code == 0
    assert (out / "meta.txt").exists()


def test_defaults_match_benchmark_protocol():
    from zoht.cli import build_parser

    args = build_parser().parse_args(["ridge-synthetic", "--out", "x"])
    assert (args.n, args.d, args.lam) == (10, 5, 0.5)
    assert (args.k, args.q, args.mu, args.s2, args.m) == (3, 200, 1e-4, None, 10)
    assert args.budget == 80_000
    assert args.seeds == [1, 2, 3]
    assert args.eta_grid == [0.005, 0.01, 0.05, 0.1, 0.5]
    assert args.algos == ["fgzoht", "szoht", "vr-szht", "pm-szht", "sarah-szht"]

    args = build_parser().parse_args(
        ["ridge-csv", "--file", "f", "--target", "t", "--out", "x"]
    )
    assert args.eta_grid == [10.0 ** -i for i in range(1, 8)]
    assert (args.k, args.q, args.mu, args.s2, args.m) == (3, 200, 1e-4, None, None)
    assert args.budget == 100_000

    args = build_parser().parse_args(["attack-surrogate", "--out", "x"])
    assert (args.n, args.d, args.classes, args.k, args.q) == (4, 48, 10, 6, 10)
    assert args.budget == 600 and args.mu == 1e-3
    assert (args.m, args.s2) == (10, None)


def test_ridge_synthetic_s2_defaults_to_d(tmp_path):
    out = tmp_path / "run"
    code = main([
        "ridge-synthetic", "--n", "3", "--d", "12", "--q", "2", "--budget", "100",
        "--seeds", "1", "--eta-grid", "0.01", "--algos", "szoht", "--out", str(out),
    ])
    assert code == 0
    assert "s2=12" in (out / "meta.txt").read_text().splitlines()


@pytest.mark.parametrize("argv, code", [
    (["check-theory", "--d", "5", "--n", "10", "--q", "200", "--s2", "5", "--k", "3",
      "--kstar", "1", "--rho-plus", "2.0", "--rho-minus", "0.5"], 0),
    (["make-coffee"], 1),
    (["check-theory", "--d", "1", "--n", "10", "--q", "200", "--s2", "1", "--k", "1",
      "--kstar", "1", "--rho-plus", "2.0", "--rho-minus", "0.5"], 2),
])
def test_module_entry_point_exit_codes(argv, code):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "zoht.cli"] + argv,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
