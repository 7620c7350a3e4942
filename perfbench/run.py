#!/usr/bin/env python3
"""Benchmark entry point: train -> artifact -> serve, end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_smd|serve_fleet \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

It builds the repository's libraries, caee_serve and the perfbench binary
from source (Release) into .bench_build/, prints a record of the machine
and build, then runs one workload. The last stdout line is the binary's
result object; the exit code is non-zero when the build or any output
check fails. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TARGETS = ["perfbench", "caee_serve", "perfbench_stats_test"]
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally. Output goes to a log."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD.parent / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", "4",
                      "--target"] + TARGETS)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                # A failed configure must not be mistaken for a build tree.
                if cmd[1] == "-S":
                    shutil.rmtree(BUILD, ignore_errors=True)
                sys.stderr.write(f"perfbench: build failed, see {log_path}\n")
                with open(log_path) as tail:
                    sys.stderr.write("".join(tail.readlines()[-20:]))
                return False
    return True


def cache_value(key):
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return "unknown"


def source_identity():
    """The git commit when there is one, else a hash of the source tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "examples", "perfbench"]:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "tree-sha256:" + digest.hexdigest()


def machine_record():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": version,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "commit": source_identity(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["train_smd", "serve_fleet"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own unit tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 1
    if args.selftest:
        return subprocess.run([str(BUILD / "perfbench_stats_test")]).returncode

    print("record: " + json.dumps(machine_record(), sort_keys=True), flush=True)
    work = ROOT / ".bench_build" / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work),
           "--serve-bin", str(BUILD / "caee" / "caee_serve")]
    start = time.monotonic()
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: no result within {RUN_TIMEOUT_S} s\n")
        code = 1
    spans = work / "spans.jsonl"
    if spans.exists():
        spans.replace(ROOT / ".bench_build" / f"spans-{args.workload}.jsonl")
    shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(f"perfbench: {args.workload} took "
                     f"{time.monotonic() - start:.1f} s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
