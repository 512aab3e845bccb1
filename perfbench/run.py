#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/bench.cc).

    python3 perfbench/run.py --workload mem_read --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to .bench_build/perfbench and
run files (the disk workload's index file, span logs, recorded counters) to
.bench_build/run. The last line of standard output is the result JSON.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "run"
WORKLOADS = ("mem_read", "mem_write", "disk_mixed", "server_open")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; compiler output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", "2"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def fingerprint():
    """Hash of every source file in the checkout: the exact-counter gate
    compares recorded counters only between runs of the same sources."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and not d.startswith("build"))
        for name in sorted(filenames):
            path = Path(dirpath) / name
            if path.suffix in (".h", ".cc", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    knobs = sorted(k for k in os.environ if k.startswith("FITREE_"))
    if knobs:
        fail("refusing to run with engine knobs set: " + ", ".join(knobs))
    build()
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT),
           "--fingerprint", fingerprint()]
    try:
        proc = subprocess.run(cmd, timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
