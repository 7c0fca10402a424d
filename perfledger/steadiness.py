#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfledger/steadiness.py [--workloads a,b] [--seeds 10]
        [--sets 2] [--json out.json]

Runs `perfledger/run.py` once per (set, workload, seed), untraced, each
set over seeds 1..N. For each set, workload and metric it reports
the median, the quartiles (statistics.quantiles(n=4)), and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json. With
two sets it also reports how far the second median moved from the
first, and checks that the deterministic metrics (sim_ms, write_amp)
repeat exactly for each seed. Every run's host fingerprint and host
readings (wall and CPU seconds, involuntary context switches) are kept
in the JSON output, so a run disturbed by the host can be told apart.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ("sim_ms", "write_amp")


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True)
    lines = proc.stdout.splitlines()
    context = json.loads(lines[-2])["context"]
    return json.loads(lines[-1]), context


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (q3 - q1) / med}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--json")
    args = ap.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))
    workloads = args.workloads.split(",")
    runs = []
    for s in range(args.sets):
        for w in workloads:
            for seed in seeds:
                result, context = run(w, seed, bench["run_seconds"])
                runs.append({"set": s, "workload": w, "seed": seed,
                             "result": result, "context": context})
                print("set %d %-15s seed %3d correct=%s %s" % (
                    s, w, seed, result["correct"],
                    " ".join("%s=%.6g" % (k, v["value"])
                             for k, v in result["metrics"].items())),
                    file=sys.stderr, flush=True)

    rows = []
    ok = True
    for w in workloads:
        for name, m in metrics.items():
            per_set = []
            for s in range(args.sets):
                vals = [r["result"]["metrics"][name]["value"] for r in runs
                        if r["set"] == s and r["workload"] == w]
                per_set.append(summarize(vals))
            drift = None
            if len(per_set) > 1:
                a, b = per_set[0]["median"], per_set[-1]["median"]
                worse = (a - b) if m["better"] == "higher" else (b - a)
                drift = worse / a
            row = {"workload": w, "metric": name, "unit": m["unit"],
                   "bound": m["bound"], "sets": per_set, "drift": drift}
            if name in DETERMINISTIC and args.sets > 1:
                row["repeats_exactly"] = all(
                    len({r["result"]["metrics"][name]["value"] for r in runs
                         if r["workload"] == w and r["seed"] == seed}) == 1
                    for seed in seeds)
            spreads_ok = all(p["spread"] <= m["bound"] for p in per_set)
            row["within_bound"] = spreads_ok and (
                drift is None or drift <= m["bound"])
            ok = ok and row["within_bound"] and row.get("repeats_exactly",
                                                        True)
            rows.append(row)
    all_correct = all(r["result"]["correct"] for r in runs)

    lines = ["| workload | metric | bound | "
             + " | ".join("set %d: median [Q1, Q3] | spread" % (i + 1)
                          for i in range(args.sets))
             + (" | drift (worse +)" if args.sets > 1 else "") + " |",
             "|---|---|---|" + "---|---|" * args.sets
             + ("---|" if args.sets > 1 else "")]
    for row in rows:
        cells = ["%.4g [%.4g, %.4g] | %.1f%%" % (
            p["median"], p["q1"], p["q3"], 100 * p["spread"])
            for p in row["sets"]]
        if row["drift"] is not None:
            cells.append("%+.1f%%" % (100 * row["drift"]))
        lines.append("| %s | %s (%s) | %.2f | %s |" % (
            row["workload"], row["metric"], row["unit"], row["bound"],
            " | ".join(cells)))
    print("\n".join(lines))
    print("all runs correct: %s; every spread and drift within bound: %s"
          % (all_correct, ok))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seeds": seeds, "seconds": bench["run_seconds"],
                       "rows": rows, "runs": runs}, f, indent=1)
    return 0 if ok and all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
