#!/usr/bin/env python3
"""Build and run one workload of the IM query benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload wv-ic-exact --seed 42 --seconds 20 --trace 0

Builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench, then runs the imbench binary with the workload's fixed
inputs from perfbench/workloads.json. The binary's stdout passes through
unchanged; its last line is the JSON result. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "imbench")
# Compiler temporaries and anything else that honours TMPDIR stay inside the
# checkout.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP_DIR)
QUERY_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(TMP_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "imbench", "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, stdout=sys.stderr, env=ENV).returncode != 0:
            fail("build failed: " + " ".join(step))


def workload_spec(name):
    with open(os.path.join(HERE, "workloads.json")) as f:
        for w in json.load(f)["workloads"]:
            if w["name"] == name:
                return w
    fail("unknown workload " + name)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Overrides for the benchmark's own tests (tiny configurations).
    p.add_argument("--k", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--expected-file")
    args = p.parse_args()

    w = workload_spec(args.workload)
    build()
    inputs = dict(w["inputs"])
    overridden = args.k is not None or args.eps is not None
    if args.k is not None:
        inputs["k"] = args.k
    if args.eps is not None:
        inputs["eps"] = args.eps
    expected = args.expected_file
    if expected is None and not overridden and w.get("expected", {}).get("seed") == args.seed:
        expected = os.path.join(HERE, w["expected"]["file"])

    work_dir = os.path.join(ROOT, ".bench_build", "work", "%s-%d" % (w["name"], args.seed))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [BINARY,
           "--workload", w["name"], "--seed", str(args.seed),
           "--graph-seed", str(inputs["graph_seed"]),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dataset", inputs["dataset"], "--model", inputs["model"],
           "--draw", inputs["draw"], "--devices", str(inputs["devices"]),
           "--k", str(inputs["k"]), "--eps", repr(inputs["eps"]),
           "--spill-budget", str(inputs["spill_budget_bytes"]),
           "--work-dir", work_dir]
    if expected:
        cmd += ["--expected-file", expected]
    if args.trace:
        cmd += ["--spans-out", os.path.join(work_dir, "spans.json")]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=QUERY_TIMEOUT_S, env=ENV).returncode
    except subprocess.TimeoutExpired:
        fail("imbench exceeded %d s" % QUERY_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
