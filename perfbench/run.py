#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the benchmark (perfbench/CMakeLists.txt, Release, into .bench_build/
at the root of the checkout) and runs one workload in one process. Build
output goes to stderr; stdout carries the run's report and ends with one
JSON line {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only when the build succeeded and every correctness gate passed.

Everything the run writes stays under .bench_build/ in the checkout; the
run's work directory is removed when it ends. --seconds defaults to
BENCHMARK.json's run_seconds, the window the metric bounds were set on.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
WORKLOADS = ("serving_broadcast", "campaign_real")
# A run measures for --seconds and checks its outputs around that window;
# anything this far past it is a hang.
RUN_SLACK_S = 120


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configures once, then lets CMake bring the binaries up to date."""
    if not os.path.exists(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs()],
        cwd=ROOT, stdout=sys.stderr, check=True)


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run(cmd, timeout):
    """Runs cmd from the checkout root; returns its exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return 1


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return float(json.load(f)["run_seconds"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    if args.selftest:
        return run([os.path.join(BUILD, "gcbench_selftest")], RUN_SLACK_S)

    # One run at a time per checkout: whatever an interrupted run left in
    # the work area goes first.
    work_root = os.path.join(BUILD, "work")
    shutil.rmtree(os.path.join(ROOT, work_root), ignore_errors=True)
    work_dir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    return run([os.path.join(BUILD, "gcbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--trace", str(args.trace),
                "--work-dir", work_dir,
                "--git-rev", git_rev()], args.seconds + RUN_SLACK_S)


if __name__ == "__main__":
    sys.exit(main())
