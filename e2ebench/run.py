#!/usr/bin/env python3
"""Builds and runs the end-to-end served benchmark.

Usage, from the root of a checkout:
  python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

The first run configures and builds the dynfo library and the e2ebench
binary under $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench);
later runs reuse the build. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Exits non-zero, printing no
result, when the build or any correctness check fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("e2ebench: no dynfo sources next to the benchmark directory")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2ebench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "e2ebench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2ebench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit("e2ebench: build failed: %s" % error)
    command = [binary] + sys.argv[1:] + [
        "--work-dir", os.path.join(build_dir, "work")]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
