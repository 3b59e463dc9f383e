#!/usr/bin/env python3
"""Self-test of the benchmark.

Runs every workload of BENCHMARK.json briefly, at the default seed and at one
other seed, untraced and traced, through run.py. Checks that each result line
names exactly the metrics BENCHMARK.json lists for that mode, each with its
unit and a finite value; that every end-to-end metric is above zero; that the
human-readable lines print each metric with its unit; that no op failed
(fail_ratio 0); and that a traced run reports self time for every layer and
layer spans covering at least 95% of op wall time.

    python3 perfbench/selftest.py [--seconds 1]
"""
import argparse
import json
import math
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDS = (0, 7)  # the default seed, whose results EXPERIMENTS.md records, and one other
LAYERS = ("workload", "core", "metrics", "rundb", "snapshot", "obs")


def check_run(spec, workload, seed, trace, seconds):
    """Returns a list of problems with one run; empty when it passed."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900, check=False)
    if out.returncode != 0:
        return [f"exit code {out.returncode}: {out.stderr.strip()[-500:]}"]
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as err:
        return [f"last line is not JSON: {err}"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        problems.append("metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    text = "\n".join(lines[:-1])
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, want {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
            continue
        if not trace and value <= 0:
            problems.append(f"{m['name']}: end-to-end value {value} is not above 0")
        pattern = rf"^metric {re.escape(m['name'])} = \S+ {re.escape(m['unit'])} "
        if not re.search(pattern, text, re.M):
            problems.append(f"{m['name']}: not printed with its unit")
    if not re.search(r"^metric fail_ratio = 0 ratio ", text, re.M):
        problems.append("fail_ratio is not printed as 0")
    if trace:
        for layer in LAYERS:
            if f"trace.self_ms.{layer}" not in metrics:
                problems.append(f"no self time for layer {layer}")
        coverage = metrics.get("trace.coverage_pct", {}).get("value", 0)
        if not coverage >= 95:
            problems.append(f"layer spans cover {coverage}% of op wall time")
    return problems


def main():
    parser = argparse.ArgumentParser(description="perfbench self-test")
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                problems = check_run(spec, workload, seed, trace, args.seconds)
                verdict = "ok" if not problems else "FAIL"
                print(f"{verdict}: {workload} seed={seed} trace={trace}")
                for problem in problems:
                    print(f"  {problem}")
                failures += bool(problems)
    print(f"{failures} failing run(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
