#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload fine|coarse|serve --seed N \\
        --seconds S --trace 0|1

Builds the repository's libraries (Release, tests/benches/examples off) and
the benchmark program in perfbench/ under .bench_build/, runs it, checks that
it printed exactly the metrics BENCHMARK.json lists for this mode
(end_to_end for --trace 0, per_layer for --trace 1), attaches their units,
and prints the result as the last line of standard output. Build output
goes to standard error. Exits non-zero, printing no result, when the build
or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LIB_DIR = os.path.join(BUILD, "rdp")
BENCH_DIR = os.path.join(BUILD, "perfbench")
PROGRAM = os.path.join(BENCH_DIR, "perfbench")
JOBS = "3"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write("perfbench: " + msg + "\n")
    sys.exit(1)


def step(cmd, env):
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, env=env,
                           timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(cmd))
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build step failed: " + " ".join(cmd))


def build():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler temporaries here
    release = "-DCMAKE_BUILD_TYPE=Release"
    if not os.path.exists(os.path.join(LIB_DIR, "CMakeCache.txt")):
        step(["cmake", "-S", ROOT, "-B", LIB_DIR, release,
              "-DRDP_BUILD_TESTS=OFF", "-DRDP_BUILD_BENCHES=OFF",
              "-DRDP_BUILD_EXAMPLES=OFF"], env)
    step(["cmake", "--build", LIB_DIR, "-j", JOBS], env)
    if not os.path.exists(os.path.join(BENCH_DIR, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BENCH_DIR, release,
              "-DRDP_SOURCE_DIR=" + ROOT, "-DRDP_BUILD_DIR=" + LIB_DIR], env)
    step(["cmake", "--build", BENCH_DIR, "-j", JOBS], env)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fine", "coarse", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer" if a.trace else "end_to_end"]

    build()
    cmd = [PROGRAM, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark program timed out after %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.decode(errors="replace").strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("benchmark program exited with code %d" % r.returncode)
    got = json.loads(lines[-1])

    names = [m["name"] for m in wanted]
    missing = sorted(set(names) - set(got["metrics"]))
    extra = sorted(set(got["metrics"]) - set(names))
    if missing or extra:
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))
    out = {
        "correct": bool(got["correct"]) and got["failed"] == 0,
        "attempted": int(got["attempted"]),
        "failed": int(got["failed"]),
        "metrics": {m["name"]: {"value": got["metrics"][m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
