#!/usr/bin/env python3
"""Build and run the perfbench driver from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which pulls in the library from the repository root)
into .bench_build/perfbench on first use, then runs one measurement. The
last stdout line is the driver's JSON result; this script checks that it
names exactly the metrics BENCHMARK.json lists and exits nonzero if not.
Traced runs write their spans under .bench_build/traces.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD, "perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step, sending its output to stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-6000:])
    return proc.returncode == 0


def configure():
    return run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"perfbench: {needed} not found at the repository root; "
                "the benchmark builds the library from source")
            return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not configure():
            # A cache from another checkout path cannot be reused.
            shutil.rmtree(BUILD, ignore_errors=True)
            if not configure():
                return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    if "--trace" not in argv:
        log("perfbench: --trace 0|1 is required")
        return 2
    trace = argv[argv.index("--trace") + 1] == "1"
    if not build():
        log("perfbench: build failed")
        return 2
    os.makedirs(TRACES, exist_ok=True)
    proc = subprocess.run([BINARY, *argv, "--trace-dir", TRACES], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    out = proc.stdout
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: the driver printed no result line")
        return 1
    got = set(result.get("metrics", {}))
    want = expected_metrics(trace)
    if got != want:
        log(f"perfbench: metric names differ from BENCHMARK.json: "
            f"missing {sorted(want - got)}, extra {sorted(got - want)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
