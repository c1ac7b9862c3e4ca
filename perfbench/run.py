#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources, then runs one workload.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 60 --trace 0

Build outputs go to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; the run's inputs live in a work directory there and are
deleted when it ends. The last line of stdout is the result JSON; build
and progress logs go to stderr. With --trace 1 the spans are also written
to <build dir>/traces/<workload>-seed<N>.json.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("suite", "bigtrace")
BUILD_JOBS = "4"


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns its binaries."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no library sources under {root}/src")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", BUILD_JOBS,
                    "--target", "perfbench", "gen_bigtrace"],
                   check=True, stdout=sys.stderr)
    return (os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "gen_bigtrace"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    try:
        bench, gen = build(root, os.path.join(build_root, "perfbench"))
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    built_for = time.monotonic() - started
    # A run that had to compile may take longer than one that did not.
    budget = (880 if built_for > 60 else 175) - built_for

    work = os.path.join(build_root, "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work, "--gen-bigtrace", gen]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_root, "traces", f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(budget, 10))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("benchmark timed out")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with {proc.returncode}")
        return proc.returncode or 1
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
