#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload <oltp_point|bulk_rollup|prepare_chain>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The driver and libauxview are built in Release
mode under $CARGO_TARGET_DIR (default .bench_build); the first run builds,
later runs only check that the build is current. Build output goes to
stderr; stdout carries the driver's report, whose last line is the JSON
result. Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oltp_point", "bulk_rollup", "prepare_chain")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds the driver; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", "4"])
        # Keep the compilers' temporary files inside the checkout too.
        tmp = os.path.join(out, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, env=env).returncode != 0:
                if step[1] == "-S":
                    shutil.rmtree(out, ignore_errors=True)
                return None
    return os.path.join(out, "perfbench_driver")


def run_driver(driver, workload, seed, seconds, trace, scale=1.0):
    """Runs one workload; returns (stdout, result dict) or (stdout, None)."""
    work = os.path.join(os.path.dirname(build_dir()), "work",
                        "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--scale", str(scale)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as e:
        return (e.stdout or ""), None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.stdout, None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return proc.stdout, None
    return proc.stdout, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    driver = build()
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    stdout, result = run_driver(driver, args.workload, args.seed,
                                args.seconds, args.trace)
    if result is None:
        sys.stderr.write(stdout)
        print("perfbench: run failed", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
