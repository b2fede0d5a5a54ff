#!/usr/bin/env python3
"""Entry point of the statsize benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the library from src/ and the binary
in perfbench/ into .bench_build/perfbench (Release), then runs one workload
and passes its output through; the last line is the run's JSON result.
Extra flags: --smoke (tiny sizes, for the benchmark's own tests) and --test
(build, then run the benchmark's own tests with ctest).
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    # Write back what the build left dirty, so the run's own writes (the serve
    # journal) do not queue behind it.
    os.sync()


def source_id():
    """The git commit when the checkout is a repository, else a digest of src/."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return "git:" + proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: run from a checkout root (no src/ here)\n")
        return 1
    build()
    if "--test" in argv:
        return subprocess.run(["ctest", "--test-dir", BUILD_DIR, "--output-on-failure"]).returncode
    cmd = [BINARY] + argv + ["--work-dir", os.path.join(ROOT, ".bench_build", "perfbench-work"),
                             "--source-id", source_id()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
