#!/usr/bin/env python3
"""Build provbench from source, then run one benchmark invocation.

Run from the repository root:

    python3 bench/provbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The first call configures and builds the libraries and the benchmark
(Release) under $CARGO_TARGET_DIR, default .bench_build; later calls rebuild
only what changed. Build output goes to stderr. The benchmark's stdout
passes through unchanged and ends with its result line; its exit code is
this script's. With --trace 1 the Chrome traces land in <build dir>/trace.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configure once, then build the provbench target; exit on failure."""
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "provbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            sys.exit("provbench: build step failed: %s" % err)
        if done.returncode != 0:
            sys.exit("provbench: build step failed: %s" % " ".join(step))


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "provbench")
    build(build_dir)
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        args += ["--trace-dir", os.path.join(build_dir, "trace")]
    try:
        done = subprocess.run([os.path.join(build_dir, "provbench")] + args,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("provbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
