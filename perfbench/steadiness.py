#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports how steady it is.

Usage, from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [workload ...]

For every workload (default: all of BENCHMARK.json) it runs the untraced
benchmark once per seed, then prints, per end-to-end metric, the median,
the quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median. A spread of a third of
the metric's bound or more is flagged. The last line is one JSON object
holding every figure, in the shape of a trajectory entry of
perfbench/design.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()

    entry = {"host_cores": os.cpu_count(), "run_seconds": bench["run_seconds"],
             "runs": args.runs, "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, bench["run_seconds"]))
            print(f"{workload} seed {seed}: {json.dumps(results[-1]['metrics'])}",
                  file=sys.stderr)
        figures = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            figures[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if spread < metric["bound"] / 3 else "  <-- not below a third of the bound"
            print(f"{workload:<12} {name:<14} median {median:<12.6g} spread {spread:.4f}"
                  f" (bound {metric['bound']}){flag}")
        entry["workloads"][workload] = figures
    print(json.dumps(entry))


if __name__ == "__main__":
    main()
