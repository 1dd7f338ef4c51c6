#!/usr/bin/env python3
"""Builds and runs the hybridlsh serving benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload point --seed 1 --seconds 20 --trace 0

Steps: configure and build perfbench/CMakeLists.txt (the library from src/
plus the perfbench binary) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; then run one
measurement. The build log goes to stderr; stdout carries the binary's
output, whose last line is the result JSON:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 1 the metrics are the per-layer ledger and the recorded spans
are written to <build dir>/traces/<workload>-seed<N>.json.

Exits non-zero without printing a result when the sources are missing, the
build fails, the run fails, or the output is malformed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("point", "filtered", "fused", "churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
REQUIRED_SOURCES = (
    "perfbench/CMakeLists.txt",
    "perfbench/perfbench.cc",
    "src/engine/search_engine.h",
)


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, stdout, env=None):
    """Runs cmd in its own process group; returns (exit code, stdout text).

    On timeout the whole group (e.g. cmake and its compilers) is killed and
    reaped, and the exit code is None.
    """
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                            start_new_session=True, env=env)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return None, ""
    return proc.returncode, out or ""


def run_checked(cmd, timeout, env):
    """Runs cmd with its stdout sent to stderr; True on exit code 0."""
    code, _ = run_group(cmd, timeout, stdout=sys.stderr, env=env)
    return code == 0


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    source_dir = os.path.join(root, "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    # Compiler temporaries stay inside the build directory.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", source_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_checked(cmd, BUILD_TIMEOUT_S, env):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    remaining = max(1, int(deadline - time.monotonic()))
    if not run_checked(["cmake", "--build", build_dir, "-j", jobs], remaining,
                       env):
        return None
    return binary if os.path.isfile(binary) else None


def parse_result(stdout):
    """The last stdout line as the result object, or None if malformed."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    missing = [p for p in REQUIRED_SOURCES
               if not os.path.isfile(os.path.join(root, p))]
    if missing:
        log(f"run from the repository root; missing: {', '.join(missing)}")
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(root, target)),
                             "perfbench")
    binary = build(root, build_dir)
    if binary is None:
        log("build failed")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    if code != 0 or parse_result(out) is None:
        log(f"run failed (exit code {code})")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
