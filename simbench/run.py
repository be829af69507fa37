#!/usr/bin/env python3
"""Builds and runs the simulator benchmark.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 simbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark (simbench/CMakeLists.txt, Release) into .bench_build/simbench;
later calls rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Scratch files (the fleet
manifest, results stores, span dumps) go to .bench_out/.

--selftest builds and runs the benchmark's unit tests, runs wc-lint and
wc-analyze over the benchmark sources, and runs every workload of
BENCHMARK.json in both modes for one second, checking that each prints
exactly the metrics BENCHMARK.json names, with their units.
"""

import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
OUT = os.path.join(ROOT, ".bench_out")


def build(targets):
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
                       stdout=sys.stderr, check=True)


def bench(args):
    return subprocess.run([os.path.join(BUILD, "simbench")] + args +
                          ["--work-dir", OUT], cwd=ROOT)


def selftest():
    build(["simbench", "simbench_test", "wc-lint", "wc-analyze"])
    subprocess.run([os.path.join(BUILD, "simbench_test")], check=True)
    tools = os.path.join(BUILD, "wc_src", "tools")
    subprocess.run([os.path.join(tools, "wc-lint"), "--root=" + ROOT, "simbench"],
                   cwd=ROOT, check=True)
    subprocess.run([os.path.join(tools, "wc-analyze"), "--root=" + ROOT, "src",
                    "simbench"], cwd=ROOT, check=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            print("ok %s trace=%d: %d metrics" % (w["name"], trace, len(got)))
    print("selftest passed")
    return 0


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    try:
        build(["simbench"])
    except (subprocess.CalledProcessError, OSError) as e:
        print("simbench: build failed: %s" % e, file=sys.stderr)
        return 1
    return bench(argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
