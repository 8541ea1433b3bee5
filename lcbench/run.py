#!/usr/bin/env python3
"""Builds the LC-Rec benchmark from source and runs one workload.

    python3 lcbench/run.py --workload serve_unique|offline_eval \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds
lcbench/ (and the library sources under src/) into $CARGO_TARGET_DIR
(default .bench_build); later calls only re-check the build. Build output
goes to stderr; the last line of stdout is the benchmark's JSON result.
Exits non-zero, printing no result, when the build or the run fails.
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build():
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "lcbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_root, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "lcbench")


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"lcbench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("lcbench: run timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
