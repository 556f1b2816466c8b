#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

usage: python3 perfbench/steady.py WORKLOAD [WORKLOAD...]

Runs `perfbench/run.py --trace 0` with each of the seeds 1-10 for
each workload, from the root of the checkout, and prints per metric
the median, the quartile spread (Q3 - Q1 over the median, quartiles
as statistics.quantiles(values, n=4) gives them) and the metric's
bound from BENCHMARK.json. Exits 1 when a run fails or a spread
exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics as M  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for wl in args.workloads:
        values = {}
        for seed in SEEDS:
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", wl, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if p.returncode != 0 or not res["correct"]:
                print("%s seed %d: run failed" % (wl, seed))
                ok = False
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print("%s seed %d: %s" % (wl, seed, " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in res["metrics"].items())), flush=True)
        for k, vs in values.items():
            spread = M.quartile_spread(vs)
            bound = bounds.get(k)
            over = bound is not None and spread > bound
            ok = ok and not over
            print("%-16s %-20s median %-14.6g spread %6.2f%%  bound %s%s"
                  % (wl, k, statistics.median(vs), 100 * spread,
                     "%g%%" % (100 * bound) if bound is not None else "-",
                     "  OVER" if over else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
