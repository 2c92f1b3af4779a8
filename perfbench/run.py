#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <paper_sweep|serve_mixed|delta_session>
                             --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (the mussti library from
src/ plus the benchmark binary) into .bench_build/perfbench; later calls
only re-check the build. Each workload runs in its own process.

--trace 0 prints the end-to-end metrics of one untraced run. --trace 1
splits the seconds between an untraced and a traced run of the same seed
and prints the traced run's per-layer metrics, including
trace.overhead_pct (traced vs untraced median latency); its spans are
written to .bench_build/traces/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when the
run completed and every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("paper_sweep", "serve_mixed", "delta_session")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the benchmark; build output to stderr."""
    if not os.path.isfile(os.path.join("src", "core", "compile_service.h")):
        fail("run from the root of a mussti checkout (no src/ here)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_once(workload, seed, seconds, trace, work_dir, extra=()):
    """One benchmark process; returns (notes, result dict, exit code)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work_dir, *extra]
    # Fixed malloc thresholds turn off glibc's dynamic ones, which
    # otherwise make peak RSS depend on the order of past frees. The heap
    # is never trimmed and large blocks do not go to mmap, so memory a
    # compile freed is reused by the next one instead of being faulted
    # in again: page faults cost a VM guest a varying amount of time.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_=str(1 << 30),
               MALLOC_TRIM_THRESHOLD_=str((1 << 32) - 1))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, env=env)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"{workload} printed no result (exit {proc.returncode})")
    notes = [line for line in lines[:-1] if line.startswith("#")]
    return notes, json.loads(lines[-1]), proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as exc:
        fail(f"build failed: {exc}")

    work_dir = os.path.join(".bench_build", "work",
                            f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        if not args.trace:
            notes, result, code = run_once(args.workload, args.seed,
                                           args.seconds, False, work_dir)
        else:
            half = args.seconds / 2.0
            _, untraced, code0 = run_once(args.workload, args.seed, half,
                                          False, work_dir)
            trace_dir = os.path.join(".bench_build", "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_file = os.path.join(
                trace_dir, f"{args.workload}-seed{args.seed}.json")
            p50 = untraced["metrics"]["latency_p50_ms"]["value"]
            notes, result, code = run_once(
                args.workload, args.seed, half, True, work_dir,
                ("--trace-file", trace_file, "--untraced-p50-ms", repr(p50)))
            notes.append(f"# spans written to {trace_file}")
            result["correct"] = result["correct"] and untraced["correct"]
            result["attempted"] += untraced["attempted"]
            result["failed"] += untraced["failed"]
            code = code or code0
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for note in notes:
        print(note)
    print(json.dumps(result))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
