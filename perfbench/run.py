#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list        # workloads, why, layers
    python3 perfbench/run.py --selftest    # tests of the benchmark's logic

Run from the repository root. The build (Release, into .bench_build/) is
incremental, so only the first run in a checkout compiles. Build output
goes to .bench_build/build.log and is shown only when the build fails, so
the last line of standard output is always the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
LOG = os.path.join(ROOT, ".bench_build", "build.log")


def build(targets):
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    with open(LOG, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(LOG) as failed:
                    sys.stderr.write(failed.read()[-8000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(step))
                sys.exit(1)


def main(argv):
    if argv[:1] == ["--selftest"]:
        build(["perfbench_selftest"])
        return subprocess.call([os.path.join(BUILD, "perfbench_selftest")], cwd=ROOT)
    build(["perfbench", "nnr_cached"])
    return subprocess.call([os.path.join(BUILD, "perfbench")] + argv, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
