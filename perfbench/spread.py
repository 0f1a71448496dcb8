#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--trace 0|1]
                                [--json OUT]

For every metric: the median of the runs and the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the bound BENCHMARK.json fixes for it. Seeds are 1..runs.
--json also writes the per-metric median, quartiles and values. Exits
non-zero if any run failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])

    values = {}
    units = {}
    for seed in range(1, args.runs + 1):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds,
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect\n{out.stdout}")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            file=sys.stderr)

    print(f"{'metric':34} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": units[name], "median": med, "q1": q1,
                         "q3": q3, "iqr_over_median": spread, "values": vals}
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  above bound/3"
        print(f"{name:34} {med:14.6g} {spread:11.4f} "
              f"{'' if bound is None else bound:>6}{flag}  {units[name]}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "seconds": bench["run_seconds"],
                       "seeds": [1, args.runs],
                       "metrics": summary}, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
