#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout's sources, then runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the current directory); build output goes to stderr so that the
binary's JSON result stays the last line of stdout. Any build failure exits
non-zero without printing a result.
"""
import os
import shutil
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(build_root, "perfbench"))
    jobs = str(os.cpu_count() or 1)

    configure = ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build, "Makefile")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", build, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return 3

    binary = os.path.join(build, "dtucker_perfbench")
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
