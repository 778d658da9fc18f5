#!/usr/bin/env python3
"""Builds the benchmark runner from source, then runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload grr-wire --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ (CARGO_TARGET_DIR, when set, names the
directory instead). Build output goes to stderr; the runner's report goes
to stdout, and its last line is the JSON result. The exit code is the
runner's: non-zero when an output check failed or nothing could be built.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "perfbench_runner"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no shuffledp sources next to perfbench/",
              file=sys.stderr)
        return False
    def configure():
        return subprocess.call(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr) == 0

    def compile_target():
        return subprocess.call(
            ["cmake", "--build", build_dir, "--target", TARGET, "-j", "4"],
            stdout=sys.stderr, stderr=sys.stderr) == 0

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        return configure() and compile_target()
    # A build directory configured from older build files may not know the
    # target yet: configure again once before giving up.
    return compile_target() or (configure() and compile_target())


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    args = [os.path.join(build_dir, TARGET), "--work-dir", work_dir]
    args += sys.argv[1:]
    # The runner runs in the foreground; its exit code is ours.
    return subprocess.call(args)


if __name__ == "__main__":
    sys.exit(main())
