#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from anywhere; the benchmark builds the simulator from ../src into
.bench_build/ at the repository root (incrementally after the first run).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
run passed its oracles and every fingerprint check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# Set-up is timed in this many extra launches plus the measured run;
# setup_s is their median.
SETUP_LAUNCHES = 16
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


def run_build_step(cmd):
    result = subprocess.run(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        print(result.stdout, file=sys.stderr)
        fail("build step failed: " + " ".join(cmd))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found at " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    return os.path.join(BUILD, target)


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() or "unknown"


def launch(cmd, timeout_s):
    """Runs cmd; returns (seconds from spawn to its "ready" line or None,
    the other stdout lines, exit code). Kills it after timeout_s."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    ready_s = None
    lines = []
    try:
        for line in proc.stdout:
            if ready_s is None and line.strip() == "ready":
                ready_s = time.perf_counter() - start
            else:
                lines.append(line.rstrip("\n"))
    finally:
        proc.stdout.close()
        code = proc.wait()
        timer.cancel()
    return ready_s, lines, code


def expected_metrics(trace):
    """The metric names BENCHMARK.json lists for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helper unit tests")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_test")]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--revision", git_revision()]

    setup_s = []

    def time_setups(count):
        for _ in range(count):
            ready_s, lines, code = launch(cmd + ["--setup-only"],
                                          SETUP_TIMEOUT_S)
            if code != 0 or ready_s is None:
                print("\n".join(lines))
                fail(f"set-up launch exited with {code}")
            setup_s.append(ready_s)

    # Half the set-up launches before the measured run and half after, so
    # the median does not rest on one moment of a noisy host.
    if args.trace == 0:
        time_setups(SETUP_LAUNCHES // 2)
    ready_s, lines, code = launch(cmd, RUN_TIMEOUT_S)
    if ready_s is None or not lines:
        print("\n".join(lines))
        fail(f"benchmark exited with {code} before reporting")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("\n".join(lines))
        fail(f"benchmark exited with {code} without a result line")
    for line in lines[:-1]:
        print(line)

    if args.trace == 0:
        setup_s.append(ready_s)
        time_setups(SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_s),
                                        "unit": "s"}
        print(f"  setup_s: median of {len(setup_s)} launches, "
              f"{min(setup_s):.4f}..{max(setup_s):.4f} s")

    expected = expected_metrics(args.trace)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        missing = sorted(set(expected) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(expected))
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"missing {missing}, extra {extra}", file=sys.stderr)
        result["correct"] = False
        code = code or 1

    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
