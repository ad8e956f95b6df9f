#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark and the instant3d library
it measures are built from source into .bench_build/ (CMake, Release),
then the workload runs once. Its metric table goes to stdout, followed
by the result line, the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

which holds the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) named in BENCHMARK.json. The full report, and for traced
runs a Chrome trace of the bench-side spans (loadable in Perfetto), are
written to .bench_build/results/. Exits non-zero, without a result line,
when the build fails or the result is incomplete, and with the result
line when a correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("train_lego", "serve_orbit", "serve_tiles", "accel_trace")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def expected_metrics(traced):
    """{name: unit} from BENCHMARK.json, or None when it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if traced else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def valid_result(line, traced):
    """Return the parsed result line, or None when it breaks the contract."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(result["correct"], bool):
        return None
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and result["failed"] >= 0):
        return None
    metrics = result["metrics"]
    expected = expected_metrics(traced)
    if expected is not None:
        got = {k: v.get("unit") for k, v in metrics.items()}
        if got != expected:
            return None
    for m in metrics.values():
        if not isinstance(m.get("value"), (int, float)):
            return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    result = valid_result(lines[-1], args.trace == 1) if lines else None
    if result is None:
        sys.stdout.write(proc.stdout)
        print("perfbench: no valid result line", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
