#!/usr/bin/env python3
"""Build and run the performance-ledger benchmark.

    python3 perfledger/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Builds the `perfledger` binary from the repository's sources (Release,
into .bench_build/perfledger at the repository root), then runs the
workload in its own process. Build output goes to stderr; the last
line of stdout is the result object. With `--workload all` the four
workloads run one after another, each in its own process, and the last
line combines them with metric names prefixed by the workload.

Exits non-zero, without a result line, when the build or a run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfledger")
BINARY = os.path.join(BUILD, "perfledger")
WORKLOADS = ["micro-thrash", "micro-resident", "kv-sweep", "crash-fuzz-2ch"]


def build():
    """Configure (once) and build the benchmark binary; False on failure."""
    out = sys.stderr
    # Keep the compiler's temporary files inside the build tree.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    # A build system file exists only once a configure step completed.
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, env=env, stdout=out, stderr=out).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "perfledger", "-j", jobs]
    return subprocess.run(cmd, env=env, stdout=out, stderr=out).returncode == 0


def run_one(workload, seed, seconds, trace):
    """Run one workload; return (stdout lines, result) or None on failure."""
    # The simulator reads THYNVM_* knobs from the environment; run with
    # none of them so every run measures the same configuration.
    env = {k: v for k, v in os.environ.items() if not k.startswith("THYNVM_")}
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in [1, 3600]")

    if not build():
        print("perfledger: build failed", file=sys.stderr)
        return 1

    names = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        got = run_one(name, args.seed, args.seconds, args.trace)
        if got is None:
            print("perfledger: %s run failed" % name, file=sys.stderr)
            return 1
        lines, result = got
        if len(names) == 1:
            print("\n".join(lines))
            return 0
        print("\n".join("%s: %s" % (name, line) for line in lines[:-1]))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = value
        sys.stdout.flush()
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
