#!/usr/bin/env python3
"""Run the Visualinux repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Builds the libraries and the perfbench program from source into
.bench_build/perfbench (once per checkout), runs one workload, and prints the
program's report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, and the spans of the traced run are
written to .bench_out/ beside the program's full report. `--workload all`
runs every workload of BENCHMARK.json in turn and prints one table (a
convenience for people; it prints no JSON line). fleet_open runs the same way
but is not in BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Runnable but not in BENCHMARK.json: its open-loop latencies swing with the
# host's scheduling noise too much to gate on (perfbench/design.json).
UNGATED_WORKLOADS = ("fleet_open",)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Visualinux sources next to the benchmark (expected src/CMakeLists.txt)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step failed: %s" % err)
        if done.returncode != 0:
            fail("build step failed: %s" % " ".join(cmd))


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)


def run_program(workload, seed, seconds, trace):
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", OUT_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail("perfbench did not finish: %s" % err)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        fail("perfbench exited with %d and no report" % done.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1])
    except ValueError as err:
        fail("unparseable perfbench report: %s" % err)
    # The full report keeps every metric perfbench measured, including those
    # BENCHMARK.json does not list.
    path = os.path.join(OUT_DIR, "report-%s-%d-trace%d.json" % (workload, seed, int(trace)))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print("full report: %s" % os.path.relpath(path, ROOT))
    return report


def to_result(report, spec, trace):
    """Maps the program's report onto the benchmark contract, checking it."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = report["layers"] if trace else report["e2e"]
    correct = bool(report.get("correct")) and report.get("attempted", 0) >= 1
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        value = values.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            print("perfbench: metric %s missing from the report" % name)
            correct = False
            value = 0.0
        elif not trace and value <= 0:
            print("perfbench: end-to-end metric %s read %r" % (name, value))
            correct = False
        metrics[name] = {"value": value, "unit": metric["unit"]}
    for problem in report.get("problems", []):
        print("perfbench: problem: %s" % problem)
    return {
        "correct": correct,
        "attempted": int(report.get("attempted", 0)),
        "failed": int(report.get("failed", 0)),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    known = names + list(UNGATED_WORKLOADS)
    if args.workload != "all" and args.workload not in known:
        fail("unknown workload %r (one of: %s, all)" % (args.workload, ", ".join(known)))
    build()

    if args.workload != "all":
        report = run_program(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(to_result(report, spec, bool(args.trace))))
        return

    rows = {}
    for name in names:
        report = run_program(name, args.seed, args.seconds, bool(args.trace))
        rows[name] = to_result(report, spec, bool(args.trace))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    width = max(len(m["name"]) for m in wanted) + 8
    print("%-*s" % (width, "metric [unit]") + "".join("%18s" % n for n in names))
    for metric in wanted:
        label = "%s [%s]" % (metric["name"], metric["unit"])
        cells = "".join("%18.6g" % rows[n]["metrics"][metric["name"]]["value"] for n in names)
        print("%-*s" % (width, label) + cells)
    for n in names:
        r = rows[n]
        rate = r["failed"] / r["attempted"] if r["attempted"] else 1.0
        print("%s: correct=%s attempted=%d failed=%d error_rate=%.6f"
              % (n, r["correct"], r["attempted"], r["failed"], rate))


if __name__ == "__main__":
    main()
