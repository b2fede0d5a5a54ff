#!/usr/bin/env python3
"""Runs the benchmark on several seeds and summarises each metric.

    python3 perfbench/baseline.py [--first-seed 1] [--out perfbench/baseline.json]

Run from the checkout root. For every workload it runs run.py untraced on
RUNS seeds from --first-seed on (and traced on the first TRACE_RUNS of them),
then records per metric the median, the quartiles as
statistics.quantiles(values, n=4) gives them, the spread (Q3 - Q1) / median,
and for end-to-end metrics whether the spread is within a third of the
metric's bound in BENCHMARK.json. The spread of setup_s is recorded the same
way but does not decide whether the set is steady: set-up time is compared
between sets by its median only. The output also holds the host and build
metadata the runs printed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUNS = 10
TRACE_RUNS = 3
# Metrics whose spread is reported but not required to be within a third of
# the bound: only set-up time, whose medians are compared instead.
SPREAD_EXEMPT = {"setup_s"}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (" ".join(cmd), proc.stderr[-4000:]))
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(next(l for l in lines if l.startswith("# perfbench "))[len("# perfbench "):])
    return meta, json.loads(lines[-1]), time.time() - t0


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]

    out = {"benchmark": "perfbench", "runs": RUNS, "trace_runs": TRACE_RUNS,
           "run_seconds": bench["run_seconds"], "spread_exempt": sorted(SPREAD_EXEMPT),
           "host": None, "workloads": {}}
    steady = True
    for name in names:
        e2e, layer, attempted, failed, walls = {}, {}, 0, 0, []
        seeds = range(args.first_seed, args.first_seed + RUNS)
        for seed in seeds:
            meta, result, wall = run_once(name, seed, bench["run_seconds"], 0)
            out["host"] = {k: meta[k] for k in ("nproc", "threads", "build_type", "compiler",
                                                "source")}
            attempted += result["attempted"]
            failed += result["failed"]
            walls.append(wall)
            if not result["correct"]:
                raise RuntimeError("%s seed %d: incorrect result" % (name, seed))
            for metric, m in result["metrics"].items():
                e2e.setdefault(metric, []).append(m["value"])
            print("%s seed %d (%.0f s): %s" % (name, seed, wall, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        for seed in range(args.first_seed, args.first_seed + TRACE_RUNS):
            _, result, wall = run_once(name, seed, bench["run_seconds"], 1)
            walls.append(wall)
            for metric, m in result["metrics"].items():
                layer.setdefault(metric, []).append(m["value"])
        entry = {"seeds": list(seeds), "attempted": attempted, "failed": failed,
                 "run_wall_s": summarise(walls) if len(walls) > 1 else walls,
                 "end_to_end": {}, "per_layer": {}}
        for metric, values in e2e.items():
            s = summarise(values)
            s["within_third_of_bound"] = s["spread"] < bounds[metric] / 3
            steady = steady and (s["within_third_of_bound"] or metric in SPREAD_EXEMPT)
            entry["end_to_end"][metric] = s
            print("  %-12s median %-10.5g q1 %-10.5g q3 %-10.5g spread %.3f (bound %.2f)%s" % (
                metric, s["median"], s["q1"], s["q3"], s["spread"], bounds[metric],
                "" if s["within_third_of_bound"] else "  <-- not within bound/3"), flush=True)
        for metric, values in layer.items():
            entry["per_layer"][metric] = (summarise(values) if len(values) > 1
                                          else {"median": values[0], "values": values})
        out["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote %s" % args.out)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
