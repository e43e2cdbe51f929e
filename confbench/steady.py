#!/usr/bin/env python3
"""Steadiness check for the confbench benchmark.

Runs each workload with several seeds and prints, per end-to-end metric,
the median, the first and third quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median next to the bound BENCHMARK.json fixes. With
--sets 2 it runs a second set of seeds after the first and also prints,
per metric, how much worse the second set's median is than the first's,
as a share of the first: the regression a bound must absorb between two
sets of runs of the same build. The bounds in BENCHMARK.json are set from
this output. Run from the checkout root:

    python3 confbench/steady.py --runs 10 --sets 2
    python3 confbench/steady.py --workloads dag-churn --runs 5 --first-seed 100
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_set(bench, wl, seeds, seconds):
    """Runs wl once per seed and returns the result objects."""
    results = []
    for seed in seeds:
        cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"{wl} seed {seed}: exit {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        print(f"{wl} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr, flush=True)
    return results


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    # sets[k][wl] is the list of results of set k on workload wl; set k
    # uses the seeds first_seed + k*runs onwards.
    sets = []
    for k in range(args.sets):
        first = args.first_seed + k * args.runs
        seeds = range(first, first + args.runs)
        sets.append({wl: run_set(bench, wl, seeds, args.seconds) for wl in args.workloads})

    worst = 0.0
    for k, by_wl in enumerate(sets):
        for wl, results in by_wl.items():
            print(f"\nset {k + 1}, {wl}: {args.runs} runs of {args.seconds} s")
            shares = sorted({r["failed"] / r["attempted"] for r in results})
            print(f"  correct in every run: {all(r['correct'] for r in results)}; failed shares: {shares}")
            print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
            for name in sorted(results[0]["metrics"]):
                vals = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                bound = metrics[name]["bound"]
                worst = max(worst, spread / bound)
                flag = "  > bound/3" if spread > bound / 3 else ""
                print(f"  {name:<20} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {bound:>6}{flag}")
    print(f"\nlargest spread as a share of its bound: {worst:.2f}")

    if args.sets == 2:
        worst = 0.0
        print("\nsecond set's median against the first's: regression share (negative = better)")
        for wl in args.workloads:
            a, b = sets[0][wl], sets[1][wl]
            fa = {r["failed"] / r["attempted"] for r in a}
            fb = {r["failed"] / r["attempted"] for r in b}
            print(f"  {wl}: failed shares {sorted(fa)} and {sorted(fb)}")
            for name in sorted(a[0]["metrics"]):
                m1 = statistics.median(r["metrics"][name]["value"] for r in a)
                m2 = statistics.median(r["metrics"][name]["value"] for r in b)
                worse = (m2 - m1) / m1 if metrics[name]["better"] == "lower" else (m1 - m2) / m1
                bound = metrics[name]["bound"]
                worst = max(worst, worse / bound)
                flag = "  > bound" if worse > bound else ""
                print(f"    {name:<20} {m1:>12.4f} {m2:>12.4f} {worse:>+8.3f} {bound:>6}{flag}")
        print(f"\nlargest regression as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
