#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

Runs each workload repeatedly, each run with another seed, and prints for
every end-to-end metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread, (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json. A spread within a third
of its bound is marked ok; setup_s is listed but its spread is not
judged. With --sets 2 the runs are repeated on fresh seeds and the second
median is compared with the first: "worse" is measured in the metric's
direction, as a share of the first median, against the same bound.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10]
                                    [--sets 1] [--seed-base 100]
                                    [--seconds S] [--json out.json]

Run from the root of a checkout; each run goes through perfbench/run.py.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_one(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correctness failure")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def worse_share(first, second, better):
    """How much worse the second median is, as a share of the first."""
    if not first:
        return float("inf")
    delta = (first - second) if better == "higher" else (second - first)
    return delta / abs(first)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--json", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]

    record = {}
    all_ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for r in range(args.runs):
                seed = args.seed_base + 1000 * s + r
                runs.append(run_one(workload, seed, seconds))
                print(f"  {workload} set {s + 1} run {r + 1}/{args.runs} "
                      f"(seed {seed}) done", file=sys.stderr, flush=True)
            sets.append(runs)
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), "
              f"{seconds:g} s each")
        print(f"{'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6} {'verdict':>8}"
              + ("  2nd-median  worse" if args.sets == 2 else ""))
        record[workload] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [run[name] for run in sets[0]]
            med, q1, q3, spread = summarize(values)
            if name == "setup_s":
                verdict = "n/a"
            elif spread <= bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "wide"
            else:
                verdict = "FAIL"
            line = (f"{name:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                    f"{spread:>8.4f} {bound:>6.3f} {verdict:>8}")
            entry = {"values": values, "median": med, "q1": q1, "q3": q3,
                     "spread": spread, "bound": bound, "verdict": verdict}
            if args.sets == 2:
                values2 = [run[name] for run in sets[1]]
                med2 = statistics.median(values2)
                worse = worse_share(med, med2, m["better"])
                line += f"  {med2:>10.6g} {worse:>6.3f}"
                entry.update({"values2": values2, "median2": med2,
                              "worse": worse})
                if worse > bound:
                    line += " FAIL"
                    all_ok = False
            if verdict == "FAIL":
                all_ok = False
            print(line)
            record[workload][name] = entry
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=2)
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
