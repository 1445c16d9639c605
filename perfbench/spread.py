#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds S]
                                [workload ...]

Runs each workload once per seed (first-seed, first-seed+1, ...) through
run.py and prints, per end-to-end metric, the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.  A
spread above a third of its bound is flagged (setup_s is reported but not
held to it).  Exit 1 if a run failed or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, Q1, Q3, (Q3 - Q1) / median) of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("workloads", nargs="*",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()

    status = 0
    for w in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or res is None or not res["correct"]:
                print(f"{w} seed {seed}: FAILED (exit {proc.returncode})")
                sys.stdout.write(proc.stdout[-1500:] + proc.stderr[-1500:])
                status = 1
                continue
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={res['metrics'][n]['value']:.6g}" for n in values), flush=True)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            med, q1, q3, share = spread(v)
            flag = ""
            if m["name"] != "setup_s":
                if share > m["bound"]:
                    flag, status = "  OVER BOUND", 1
                elif share > m["bound"] / 3:
                    flag = "  over a third of the bound"
            print(f"  {w:8s} {m['name']:12s} median {med:.6g} {m['unit']} "
                  f"Q1 {q1:.6g} Q3 {q3:.6g} spread {share:.4f} "
                  f"(bound {m['bound']}){flag}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
