#!/usr/bin/env python3
"""Builds and runs the layer-by-layer benchmark (see README.md).

    python3 perfbench/run.py --workload collect-full --seed 1 --seconds 40 --trace 0

Run from the root of the repository. The benchmark is built from source
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
build output goes to stderr. Standard output ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only if every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("collect-full", "collect-compressed", "site-monitor")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no library sources in %s/src" % ROOT)
    out = build_dir()
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def run(binary, extra_args):
    """Runs the binary; returns (exit code, info dict, result dict)."""
    proc = subprocess.run([binary] + extra_args, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit("perfbench: no result (exit %d)" % proc.returncode)
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    extra = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(),
                             "spans-%s-%d.tsv" % (args.workload, args.seed))
        extra += ["--spans", spans]
    code, info, result = run(binary, extra)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if code == 0 and result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
