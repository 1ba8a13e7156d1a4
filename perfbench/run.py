#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload udp_overlay --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (which compiles ../src) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
prismbench driver, checks that it printed every metric BENCHMARK.json
names for the mode (end_to_end with --trace 0, per_layer with --trace 1)
exactly once with its unit and a finite value, and prints the driver's
output with the JSON result as the last line. Exits non-zero, without a
result line, when the build or any check fails; exits non-zero after the
result line when the driver reported an incorrect run.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("udp_overlay", "tcp_web_vanilla", "cluster_lanes")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures and builds the driver; returns its path."""
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        generator = []  # keep whatever generator the cache was made with
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, *generator,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", bdir, "-j", jobs, "--target", "prismbench"],
    ]
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (log: {log_path})")
    return os.path.join(bdir, "prismbench")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def no_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError(f"duplicate keys {sorted(dup)}")
    return dict(pairs)


def validate(lines, expected):
    """Returns the parsed result, or exits when the output breaks the
    contract: every expected metric once, with its unit, finite."""
    if not lines:
        fail("driver printed nothing", 1)
    try:
        result = json.loads(lines[-1], object_pairs_hook=no_duplicate_keys)
    except ValueError as e:
        fail(f"last line is not a JSON result: {e}", 1)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)}", 1)
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(f"metrics missing {missing}, unexpected {extra}", 1)
    printed = [ln.split()[1] for ln in lines[:-1] if ln.startswith("metric ")]
    for name, unit in expected.items():
        m = metrics[name]
        value = m.get("value")
        if m.get("unit") != unit:
            fail(f"{name}: unit {m.get('unit')!r}, expected {unit!r}", 1)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: value {value!r} is not a finite number", 1)
        if printed.count(name) != 1:
            fail(f"{name}: printed {printed.count(name)} times", 1)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test only: corrupts one repetition's determinism fingerprint.
    ap.add_argument("--inject-fingerprint-mismatch", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}")
    expected = expected_metrics(args.trace)
    bdir = build_dir()
    binary = build(bdir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(bdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    if args.inject_fingerprint_mismatch:
        cmd.append("--inject-fingerprint-mismatch")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout)
        fail(f"driver exited with {proc.returncode}", 1)
    result = validate(lines, expected)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
