#!/usr/bin/env python3
"""Builds and runs the p3gm repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload serve_bulk --seed 1 --seconds 45 --trace 0
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/CMakeLists.txt (the p3gm
libraries plus the benchmark driver) into .bench_build/; later calls only
re-check the build. Build output goes to stderr. The driver's last stdout
line, a JSON object with "correct", "attempted", "failed" and "metrics",
is passed through as this script's last line.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BUILD_DIR, "out")
BINARY = os.path.join(BUILD_DIR, "p3gm_perfbench")
WORKLOADS = ("train_image", "serve_bulk")
# One run must end within 180 s; the driver process gets a little less.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; False when impossible."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no p3gm sources next to perfbench/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "p3gm_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run_driver(args):
    """Runs the driver; returns (exit code, stdout text)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        proc = subprocess.run([BINARY, "--out-dir", OUT_DIR] + args,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def selftest():
    """Runs every workload once at tiny size, untraced and traced, checks
    each result against BENCHMARK.json's metric lists, then runs the
    negative controls of the output checks."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, out = run_driver(["--workload", workload, "--seed", "1",
                                    "--seconds", "1", "--trace", str(trace),
                                    "--tiny"])
            case = "%s trace=%d" % (workload, trace)
            if code != 0 or not out.strip():
                problems.append(case + ": driver failed")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            metrics = result["metrics"]
            if list(metrics) != expected[trace]:
                problems.append(case + ": metrics differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                problems.append(case + ": output checks failed")
            if trace == 0 and any(m["value"] <= 0 for m in metrics.values()):
                problems.append(case + ": an end-to-end metric is not > 0")
            print("%-24s correct=%s attempted=%d failed=%d" % (
                case, result["correct"], result["attempted"],
                result["failed"]))
    code, out = run_driver(["--negative-controls"])
    print(out.strip())
    if code != 0:
        problems.append("negative controls did not fail as they must")
    for p in problems:
        print("FAIL: " + p)
    print("selftest: " + ("FAIL" if problems else "pass"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="tiny run of every workload plus negative "
                             "controls of the output checks")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 2
    if args.selftest:
        return selftest()
    code, out = run_driver(["--workload", args.workload,
                            "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)])
    lines = out.strip().splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        print("perfbench: driver produced no result", file=sys.stderr)
        return code or 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
