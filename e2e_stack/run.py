#!/usr/bin/env python3
"""Build and run the end-to-end stack benchmark (e2e_stack.cpp).

Run from the repository root:

    python3 e2e_stack/run.py --workload steady_prefix --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds a Release binary under
.bench_build/e2e_stack from the repository's sources; later calls only
rebuild what changed. Build output goes to stderr. Every argument is
passed to the binary, whose last stdout line is the JSON result. With
--trace 1 the run also writes a Chrome trace-event file under
.bench_build/e2e_stack/traces/. The exit status is the binary's, or 1
when the sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e_stack")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("e2e_stack: repository sources not found in " + ROOT,
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    return subprocess.call(["cmake", "--build", BUILD, "--target",
                            "e2e_stack", "-j", jobs],
                           stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--trace")
    parser.add_argument("--chrome-trace")
    known, _ = parser.parse_known_args()
    if not build():
        return 1
    args = sys.argv[1:]
    if known.trace == "1" and known.chrome_trace is None:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--chrome-trace", os.path.join(
            traces, "%s-seed%s.json" % (known.workload, known.seed))]
    return subprocess.call([os.path.join(BUILD, "e2e_stack")] + args)


if __name__ == "__main__":
    sys.exit(main())
