#!/usr/bin/env python3
"""Self-check of the benchmark's traced run.

Usage, from the root of a checkout:
  python3 e2ebench/selftest.py [--seed N]

For every workload it makes two traced runs with the same seed and one with
the next seed, and checks that:
  * the counts below, which depend only on the seeded peel stream, repeat
    exactly between the two same-seed runs;
  * the same seed gives the same request stream (its digest), and the next
    seed a different one.
Exits 0 when every check holds.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["parity_serve", "reach_u_serve", "parity_durable"]
EXACT = [
    "journal.fsyncs_per_write",
    "journal.bytes_per_write",
    "journal.checkpoints_per_kwrite",
    "engine.tuples_written_per_write",
    "engine.delta_rule_ratio",
    "fo.planner_runs_per_write",
]


def traced_run(workload, seed):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", "1"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit("selftest: %s seed %d failed:\n%s" %
                 (workload, seed, done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    digest = re.search(r"stream digest ([0-9a-f]+)", done.stdout)
    if digest is None:
        sys.exit("selftest: %s printed no stream digest" % workload)
    metrics = json.loads(lines[-1])["metrics"]
    return digest.group(1), {name: metrics[name]["value"] for name in EXACT}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    seed = parser.parse_args().seed
    failures = []
    for workload in WORKLOADS:
        digest_a, counts_a = traced_run(workload, seed)
        digest_b, counts_b = traced_run(workload, seed)
        digest_c, _ = traced_run(workload, seed + 1)
        for name in EXACT:
            if counts_a[name] != counts_b[name]:
                failures.append("%s %s: %r then %r" % (
                    workload, name, counts_a[name], counts_b[name]))
        if digest_a != digest_b:
            failures.append("%s: seed %d gave two streams" % (workload, seed))
        if digest_a == digest_c:
            failures.append("%s: seeds %d and %d gave one stream" %
                            (workload, seed, seed + 1))
        print("%-15s digest %s / %s  %s" % (
            workload, digest_a, digest_c,
            " ".join("%s=%.6g" % (n, counts_a[n]) for n in EXACT)))
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
