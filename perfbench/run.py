#!/usr/bin/env python3
"""Builds the perfbench driver from this checkout and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 0 --seconds 20 --trace 0

The driver (perfbench/driver/) links the simulator's src/ libraries and is
built as Release (NDEBUG) under .bench_build/perfbench-build/, or under
$CARGO_TARGET_DIR when that is set. The first run builds; later runs only
re-check the build. Build output goes to standard error, so the last line of
standard output is the driver's JSON result. The driver's scratch files live
in .bench_build/perfbench-work/ and are removed when it exits; traced runs
leave their spans in .bench_build/perfbench-work/spans/.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper", "policy_sweep", "checkpoint_trace")
# A run lasts --seconds plus set-up and one warm-up round; anything near this
# limit is a hang, and the driver is stopped.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True when it succeeded."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode == 0
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return False


def build(build_dir):
    """Configures once, then builds; returns the driver's path or None."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator,
                         BUILD_TIMEOUT_S):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", build_dir, "--parallel", jobs],
                     BUILD_TIMEOUT_S):
        return None
    return os.path.join(build_dir, "perfbench_driver")


def source_digest():
    """SHA-256 over src/ and perfbench/: names the code when git cannot."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_state():
    """(revision, dirty flag) of the checkout, or "none" outside git."""
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none", "none"
    def git(*args):
        try:
            out = subprocess.run(["git", "-C", ROOT] + list(args),
                                 capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None
    rev = git("rev-parse", "--short=12", "HEAD") or "none"
    status = git("status", "--porcelain", "--untracked-files=no")
    dirty = "unknown" if status is None else ("1" if status else "0")
    return rev, dirty


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "system_runner.hpp")):
        print(f"perfbench: no simulator sources under {ROOT}/src",
              file=sys.stderr)
        return 1
    base = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    driver = build(os.path.join(base, "perfbench-build"))
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    rev, dirty = git_state()
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(base, "perfbench-work"),
           "--git", rev, "--dirty", dirty, "--source", source_digest()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out and was stopped", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
