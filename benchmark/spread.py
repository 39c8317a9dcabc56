#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs the benchmark command of BENCHMARK.json once per seed on each
workload, and prints for every end-to-end metric the median of the runs
and the distance between their first and third quartile as a share of
that median, beside the metric's bound. A spread above a third of the
bound is flagged `wide`, above the bound `OVER` (the driver rejects it,
except for setup_s).

    python3 benchmark/spread.py [--seeds 10] [--first-seed 1] [--seconds N]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    over = False
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: not correct: {result}")
            runs.append(result["metrics"])
        print(f"{workload}  ({args.seeds} seeds from {args.first_seed}, {seconds} s each)")
        for metric in spec["end_to_end"]:
            values = [run[metric["name"]]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if spread > metric["bound"]:
                flag = "OVER"
                over |= metric["name"] != "setup_s"
            elif spread > metric["bound"] / 3:
                flag = "wide"
            print(f"  {metric['name']:<20} median {median:>12.4f} {metric['unit']:<3} "
                  f"spread {spread:>7.2%}  bound {metric['bound']:.0%}  {flag}")
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
