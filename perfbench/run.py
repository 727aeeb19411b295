#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <full_8q|large_64q|service_mix>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
the QUEST libraries and the benchmark program (perfbench/CMakeLists.txt,
Release) under $CARGO_TARGET_DIR/perfbench, defaulting to
.bench_build/perfbench; later calls only rebuild what changed. Build
output goes to standard error, so the last line of standard output is
the program's JSON result. A traced run (--trace 1) also writes its
spans as a Chrome trace to trace_<workload>_<seed>.json in the build
directory. The exit code is the program's: 0 only when every output
check passed.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure (once) and build the program; return its path."""
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "quest_perfbench",
         "--parallel", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "quest_perfbench")


def option(argv, name):
    """The value following @p name in @p argv, or None."""
    if name in argv[:-1]:
        return argv[argv.index(name) + 1]
    return None


def main(argv):
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3

    extra = ["--workdir", build_dir]
    if option(argv, "--trace") not in (None, "0"):
        trace = "trace_{}_{}.json".format(option(argv, "--workload"),
                                          option(argv, "--seed"))
        extra += ["--trace-out", os.path.join(build_dir, trace)]
    return subprocess.run([binary] + argv + extra).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
