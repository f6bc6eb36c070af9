"""Regenerate the golden outputs that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/golden/make_golden.py

writes, next to this file:

  cli/<run>/     raw and aggregate CSVs and meta.txt from cut-down versions
                 of the four standard CLI invocations (run from the repo
                 root, so meta.txt names the dataset by its relative path)
  library.json   rows, final_theta bytes, izo, nht, diverged and the epoch
                 and memory-refresh tallies of run_solver over five solvers
                 x {ridge, attack} x shared_directions {off, on}
  platform.json  numpy's version and platform.machine(); the bytes are
                 pinned on that platform only

Between them the goldens hold an s2 < d run (cli/ridge-sparse-svrg), a
svrg-variant memory law (same run) and diverging cells (eta 0.5 in both
ridge-synthetic runs). Regenerate only when a change alters output bits on
purpose, and say why in CHANGES.md.
"""

import contextlib
import io
import json
import os
import platform
import shutil
from dataclasses import replace

import numpy as np

from zoht.cli import main
from zoht.core import spawn_stream
from zoht.problems import attack_surrogate_problem, ridge_synthetic
from zoht.solvers import ALGORITHMS, SolverConfig, run_solver
from zoht.zo import ZoEstimatorConfig

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))

CLI_RUNS = {
    "ridge-synthetic": [
        "ridge-synthetic", "--q", "20", "--budget", "3000", "--seeds", "1,2",
        "--eta-grid", "0.01,0.05,0.5",
    ],
    "attack-surrogate": [
        "attack-surrogate", "--budget", "300", "--seeds", "1",
        "--eta-grid", "0.01,0.05",
    ],
    "ridge-csv": [
        "ridge-csv", "--file", "data/toy_bodyfat.csv", "--target", "class",
        "--q", "10", "--budget", "1500", "--seeds", "1", "--eta-grid", "1e-1,1e-3",
    ],
    "ridge-sparse-svrg": [
        "ridge-synthetic", "--n", "6", "--d", "30", "--s2", "4", "--q", "20",
        "--budget", "1500", "--seeds", "1,2", "--eta-grid", "0.05,0.5", "--p", "2",
        "--law", "svrg-variant",
    ],
}


def _library_cases():
    ridge = ridge_synthetic(6, 5, 0.5, spawn_stream(0, "data-gen"))
    attack = attack_surrogate_problem(3, 12, 4, spawn_stream(0, "data-gen"))
    problems = {
        "ridge": (ridge, ZoEstimatorConfig(q=10, s2=5, mu=1e-4, d=5), 3, 0.05, 1500),
        "attack": (attack, ZoEstimatorConfig(q=8, s2=12, mu=1e-3, d=12), 4, 0.01, 600),
    }
    for name, (problem, zo, k, eta, budget) in problems.items():
        for algorithm in ALGORITHMS:
            for shared in (False, True):
                cfg = SolverConfig(
                    algorithm=algorithm, eta=eta, k=k, zo=replace(zo, shared_directions=shared),
                    izo_budget=budget, seed=7, m=3, p=2,
                )
                yield "%s/%s/shared=%d" % (name, algorithm, shared), problem, cfg


def library_digest():
    out = {}
    for key, problem, cfg in _library_cases():
        tr = run_solver(problem, cfg)
        out[key] = {
            "rows": [list(row) for row in tr.rows],
            "final_theta": tr.final_theta.tobytes().hex(),
            "izo": tr.izo,
            "nht": tr.nht,
            "diverged": tr.diverged,
            "epochs": tr.epochs,
            "memory_updates": tr.memory_updates,
        }
    return out


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def generate(out_dir):
    """Write cli/, library.json and platform.json under out_dir."""
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        for name, argv in CLI_RUNS.items():
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--out", os.path.join(out_dir, "cli", name)])
            if code != 0:
                raise RuntimeError("%s exited %d" % (name, code))
    finally:
        os.chdir(cwd)
    _write_json(os.path.join(out_dir, "library.json"), library_digest())
    _write_json(os.path.join(out_dir, "platform.json"),
                {"numpy": np.__version__, "machine": platform.machine()})


if __name__ == "__main__":
    shutil.rmtree(os.path.join(HERE, "cli"), ignore_errors=True)
    generate(HERE)
