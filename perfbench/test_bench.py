#!/usr/bin/env python3
"""The benchmark's own tests, on smoke sizes of every workload.

    python3 perfbench/test_bench.py --binary .bench_build/perfbench/perfbench

Run from the checkout root (ctest does; see perfbench/CMakeLists.txt). Checks
that an untraced run prints exactly the end-to-end metrics of BENCHMARK.json
and a traced run exactly its per-layer metrics, each with its unit; that
every smoke operation passes its output check; that the exact counts repeat
between two traced runs on one seed; and that run.py fails, without a result
line, in a directory holding only BENCHMARK.json and perfbench/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

EXACT_COUNTS = ["core.iterations", "core.outer_iterations", "ssta.incr_cone_gates",
                "nlp.lbfgs.evals_per_iter", "nlp.auglag.inner_iterations"]


def run(binary, workload, trace, seed=7):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
           "--trace", str(trace), "--smoke", "--work-dir", ".bench_build/perfbench-test"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d: %s" % (" ".join(cmd), proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    meta = [line for line in lines if line.startswith("# perfbench ")]
    if not meta:
        raise AssertionError("%s printed no metadata line" % workload)
    info = json.loads(meta[0][len("# perfbench "):])
    for key in ("nproc", "threads", "build_type", "compiler", "source", "seed"):
        if key not in info:
            raise AssertionError("metadata lacks %s" % key)
    return json.loads(lines[-1])


def check_result(result, specs, workload, trace):
    where = "%s --trace %d" % (workload, trace)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError("%s: result keys %s" % (where, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError("%s: correct=%s attempted=%s failed=%s" % (
            where, result["correct"], result["attempted"], result["failed"]))
    expected = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise AssertionError("%s: metrics %s, expected %s" % (where, got, expected))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError("%s: %s is not a number" % (where, name))


def check_isolated_failure(root):
    """run.py must fail, printing no result, without the repository's src/."""
    iso = os.path.join(root, ".bench_build", "perfbench-isolated")
    shutil.rmtree(iso, ignore_errors=True)
    os.makedirs(iso)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), iso)
    shutil.copytree(os.path.join(root, "perfbench"), os.path.join(iso, "perfbench"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eco_k2", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=iso,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
    shutil.rmtree(iso, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError("run.py without src/ exited %d with output %r" % (
            proc.returncode, proc.stdout))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    args = parser.parse_args()
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for w in bench["workloads"]:
        name = w["name"]
        check_result(run(args.binary, name, 0), bench["end_to_end"], name, 0)
        first = run(args.binary, name, 1)
        check_result(first, bench["per_layer"], name, 1)
        if name in ("size_full_apex2", "eco_k2"):
            second = run(args.binary, name, 1)
            for count in EXACT_COUNTS:
                a, b = first["metrics"][count]["value"], second["metrics"][count]["value"]
                if a != b:
                    raise AssertionError("%s: %s is %r then %r" % (name, count, a, b))
        print("ok  %s" % name, flush=True)

    check_isolated_failure(root)
    print("ok  run.py fails without src/")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print("FAIL %s" % e)
        sys.exit(1)
