#!/usr/bin/env python3
"""Builds the engine benchmark from source and runs one workload.

    python3 perfbench/run.py --workload point_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --check-test

Run from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default .bench_build); its output goes to stderr, so the last line of
standard output is the benchmark's JSON result. --check-test builds and runs
the test that feeds every correctness check a wrong answer.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, target):
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, target)


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    target = "perfbench_check_test" if argv == ["--check-test"] else "perfbench"
    try:
        binary = build(build_dir, target)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    args = [] if target == "perfbench_check_test" else argv
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
