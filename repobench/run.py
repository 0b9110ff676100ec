#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 repobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
benchmark binary (and the simulator library from src/) in Release mode under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only let
CMake confirm the build is current. Build output goes to stderr, so the last
line of standard output is the benchmark's JSON result. Traced runs write
their span files to <build dir>/traces/.

BENCHMARK.json is the one list of metric names and units: the result holds
its end-to-end metrics (--trace 0) or its per-layer metrics (--trace 1), in
that order. A missing end-to-end metric, a unit that disagrees and a metric
the file does not name make the result incorrect; a per-layer metric the
workload did not produce (its layer is not exercised) reads 0.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")


def build(build_dir):
    if not os.path.isdir(os.path.join(HERE, "..", "src")):
        sys.exit("repobench: no src/ directory next to the benchmark; run from a full checkout")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # stdout of the build is redirected so only the benchmark writes there
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("repobench: build step failed: " + " ".join(cmd))


def conform(result, specs, required):
    """Order `result`'s metrics as `specs` lists them and check their units."""
    got = result["metrics"]
    problems = ["metric %s is not in BENCHMARK.json" % n for n in got if n not in {s["name"] for s in specs}]
    metrics = {}
    for spec in specs:
        m = got.get(spec["name"])
        if m is None:
            if required:
                problems.append("metric %s is missing" % spec["name"])
            m = {"value": 0, "unit": spec["unit"]}
        elif m["unit"] != spec["unit"]:
            problems.append("metric %s has unit %s, BENCHMARK.json says %s" % (spec["name"], m["unit"], spec["unit"]))
        metrics[spec["name"]] = {"value": m["value"], "unit": spec["unit"]}
    for p in problems:
        print("repobench: " + p, file=sys.stderr)
    return {"correct": result["correct"] and not problems, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    binary = os.path.join(build_dir, "repobench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(build_dir, "traces")]
    sys.stdout.flush()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, end="")
        return proc.returncode or 1
    if len(lines) > 1:
        print("\n".join(lines[:-1]))
    traced = args.trace == "1"
    result = conform(json.loads(lines[-1]), spec["per_layer" if traced else "end_to_end"], not traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
