#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Usage (from the repository root):  python3 perfbench/selftest.py

For every workload, at a short length, it asserts that:
  * an untraced and a traced run each exit 0 and print every metric
    BENCHMARK.json names for the mode exactly once, with its unit and a
    finite value (run.py enforces the contract; this re-checks it);
  * a second seed passes every check and yields a different determinism
    fingerprint;
  * a forced fingerprint mismatch is reported as a failure (non-zero exit,
    "FINGERPRINT MISMATCH" in the output, "correct": false).
Exits non-zero on the first failed assertion.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
           str(trace), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, cwd=ROOT,
                          timeout=600)
    return proc.returncode, proc.stdout


def check(ok, what, out=""):
    if not ok:
        print(out[-4000:])
        print(f"SELFTEST FAIL: {what}")
        sys.exit(1)


def fingerprint(out):
    m = re.search(r"^fingerprint=([0-9a-f]{16})", out, re.M)
    return m.group(1) if m else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, out = run(wl, 1, trace)
            check(rc == 0, f"{wl} trace={trace} exits 0", out)
            result = json.loads(out.strip().splitlines()[-1])
            check(result["correct"], f"{wl} trace={trace} is correct")
            printed = re.findall(r"^metric (\S+)\s+(\S+)\s+(\S+)", out, re.M)
            names = [p[0] for p in printed]
            for m in spec[key]:
                name = m["name"]
                check(names.count(name) == 1,
                      f"{wl} prints {name} exactly once")
                value = result["metrics"][name]["value"]
                check(result["metrics"][name]["unit"] == m["unit"] and
                      math.isfinite(value),
                      f"{wl} {name} has unit {m['unit']} and a finite value")
            if trace == 0:
                first = fingerprint(out)
            print(f"ok: {wl} trace={trace}: {len(spec[key])} metrics")

        rc, out = run(wl, 2, 0)
        check(rc == 0, f"{wl} seed 2 passes every check", out)
        check(fingerprint(out) not in (None, first),
              f"{wl} seed 2 has a different fingerprint")
        print(f"ok: {wl} seed 2 passes with a different fingerprint")

        rc, out = run(wl, 1, 0, "--inject-fingerprint-mismatch")
        result = json.loads(out.strip().splitlines()[-1])
        check(rc != 0 and "FINGERPRINT MISMATCH" in out and
              not result["correct"],
              f"{wl} reports a forced fingerprint mismatch as a failure")
        print(f"ok: {wl} forced fingerprint mismatch fails the run")
    print("selftest passed")


if __name__ == "__main__":
    main()
