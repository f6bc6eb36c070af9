"""Run the benchmark untraced over several seeds and report each
end-to-end metric's median and quartile spread, as BENCHMARK.json's bounds
are judged:

    python3 bench/spread.py --workload ridge-wide --seeds 1-10 [--save runs.json]

For each metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), and (q3 - q1) / median beside the
metric's bound. Runs are sequential, each of BENCHMARK.json's run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--save", help="write every run's result line to this file")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if out.returncode != 0:
            sys.exit("seed %d exited %d:\n%s" % (seed, out.returncode, out.stderr))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)
        runs.append({"seed": seed, **result})
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")

    print("%-24s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, bound in bounds.items():
        values = [run["metrics"][name]["value"] for run in runs if run["metrics"]]
        if len(values) < 2:
            continue
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print("%-24s %12.6g %12.6g %12.6g %8.4f %6s" % (
            name, med, q1, q3, (q3 - q1) / med, bound))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
