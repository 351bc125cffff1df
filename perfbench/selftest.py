#!/usr/bin/env python3
"""Repeatability self-test for the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tenth of its table sizes for one second per run,
and checks that
  * every run passes the correctness oracle with zero failed operations;
  * two runs with the same seed report identical deterministic counts:
    space_ratio, charged page I/O and WAL bytes per write, rows scanned per
    read and track costings;
  * a different seed issues a different statement stream.
Exits 0 when every check passes.
"""

import re
import sys

import run

SCALE = 0.1
SECONDS = 1
SEED, OTHER_SEED = 7, 8
# Counts that depend only on the seed, per workload and run kind.
DETERMINISTIC = {
    0: ["space_ratio"],
    1: ["storage.page_reads", "storage.page_writes", "wal.bytes",
        "wal.fsyncs", "exec.read_scan_rows", "exec.kernel_rows",
        "optimizer.tracks_costed", "memo.groups", "wal.recovered_txns"],
}


def fingerprint(stdout):
    m = re.search(r"stream_fingerprint ([0-9a-f]+)", stdout)
    return m.group(1) if m else None


def main():
    driver = run.build()
    if driver is None:
        print("selftest: build failed")
        return 1
    failures = []

    def once(workload, seed, trace):
        stdout, result = run.run_driver(driver, workload, seed, SECONDS, trace,
                                        scale=SCALE)
        if result is None:
            failures.append("%s seed %d trace %d: run failed" %
                            (workload, seed, trace))
            return None, None
        if not result["correct"] or result["failed"] != 0:
            failures.append("%s seed %d trace %d: %d of %d checks failed" %
                            (workload, seed, trace, result["failed"],
                             result["attempted"]))
        return fingerprint(stdout), result["metrics"]

    for workload in run.WORKLOADS:
        for trace, names in DETERMINISTIC.items():
            fp_a, a = once(workload, SEED, trace)
            fp_b, b = once(workload, SEED, trace)
            if a is None or b is None:
                continue
            if fp_a != fp_b:
                failures.append("%s: same seed, different streams" % workload)
            for name in names:
                if a[name]["value"] != b[name]["value"]:
                    failures.append("%s: %s differs across same-seed runs "
                                    "(%r vs %r)" % (workload, name,
                                                    a[name]["value"],
                                                    b[name]["value"]))
                else:
                    print("ok  %-14s %-26s %r" % (workload, name,
                                                  a[name]["value"]))
        fp_other, _ = once(workload, OTHER_SEED, 0)
        if fp_other is not None and fp_other == fp_a:
            failures.append("%s: seeds %d and %d gave the same stream" %
                            (workload, SEED, OTHER_SEED))
        else:
            print("ok  %-14s seed %d and %d streams differ" %
                  (workload, SEED, OTHER_SEED))

    for f in failures:
        print("FAIL " + f)
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
