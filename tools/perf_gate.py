#!/usr/bin/env python3
"""Compares a change with its base on the end-to-end benchmark.

    python3 tools/perf_gate.py BASE_CHECKOUT CHANGE_CHECKOUT

Each checkout runs its own perfbench/run.py and builds under its own
.bench_build/ (CARGO_TARGET_DIR is unset for both). Every workload of the
base's BENCHMARK.json runs as PAIRS pairs of untraced runs of RUN_SECONDS
each, one seed per pair, and the side that runs first alternates from pair to
pair. Every run is printed as it finishes. Then each end-to-end metric's two
medians are printed with the relative change.

Exit status:
  0  no change-side median is worse than the base's by more than the metric's
     bound in BENCHMARK.json, and every change-side run was correct with no
     failed op;
  1  otherwise;
  2  a run printed no usable result line; the message names the side, the
     workload and the seed.

Last, one traced run per side and workload prints any change in the counters
that repeat exactly at one commit. A changed counter does not fail the gate.
"""
import json
import math
import os
import statistics
import subprocess
import sys

PAIRS = 5
RUN_SECONDS = 10
SEEDS = tuple(range(PAIRS))
SIDES = ("base", "change")
# Work counts that repeat exactly from run to run of one commit. sim.events is
# a mean over the ops a run finished, and only `paper` repeats the same op.
# Per-op means carry the rounding of a product with 1/ops, so counters are
# compared as printed, to 10 significant digits.
COUNTERS = ("sim.peak_pending", "snapshot.bytes", "rundb.store_bytes",
            "obs.trace_events")


class NoResult(Exception):
    """A run printed no usable result line."""


def counters_of(workload):
    return COUNTERS + (("sim.events",) if workload == "paper" else ())


def read_result(stdout, names):
    """The JSON result on the last line of a run's output, reduced to whether
    the run was correct, its op counts and the values of `names`; None when
    that line is missing, truncated, not JSON or lacks one of `names`."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        return {"ok": result["correct"] is True and result["failed"] == 0,
                "failed": int(result["failed"]),
                "attempted": int(result["attempted"]),
                "values": {n: float(result["metrics"][n]["value"])
                           for n in names}}
    except (IndexError, KeyError, TypeError, ValueError):
        return None


def measure(run, side, workload, seed, trace, names):
    """One run through `run`, printed; raises NoResult when it has no result."""
    result = read_result(run(side, workload, seed, trace), names)
    # An end-to-end metric is never 0 (perfbench/README.md), and the gate
    # divides by the base's.
    if result is None or not all(trace or (math.isfinite(v) and v > 0)
                                 for v in result["values"].values()):
        raise NoResult(f"the {side} side printed no result line for "
                       f"{workload} at seed {seed}"
                       + (" (traced)" if trace else ""))
    values = ", ".join(f"{n} {v:.6g}" for n, v in result["values"].items())
    print(f"{side:6} {workload} seed {seed}{' traced' if trace else ''}: "
          f"{values}; {result['failed']} of {result['attempted']} ops failed",
          flush=True)
    return result


def decide(spec, runs, traced):
    """Prints the comparison of the two sides; True when the change fails.

    `runs` maps (side, workload) to the untraced results in seed order and
    `traced` maps (side, workload) to the traced result."""
    failed = False
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        change_runs = list(zip(SEEDS, runs["change", workload]))
        change_runs.append((f"{SEEDS[0]} (traced)", traced["change", workload]))
        for seed, result in change_runs:
            if not result["ok"]:
                print(f"FAIL {workload} seed {seed}: the change side failed "
                      f"{result['failed']} of {result['attempted']} ops")
                failed = True
    print(f"medians of {PAIRS} runs of {RUN_SECONDS} s per side:")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base, change = (
                statistics.median(r["values"][name] for r in runs[side, workload])
                for side in SIDES)
            rel = change / base - 1
            worse = rel if metric["better"] == "lower" else -rel
            verdict = "FAIL" if worse > metric["bound"] else "ok"
            failed = failed or verdict == "FAIL"
            print(f"{verdict:4} {workload:16} {name:11} base {base:<10.4g} "
                  f"change {change:<10.4g} {rel:+7.1%}  (bound "
                  f"{metric['bound']:.0%}, {metric['better']} is better)")
    changed = False
    for workload in workloads:
        for name in counters_of(workload):
            base, change = (f"{traced[side, workload]['values'][name]:.10g}"
                            for side in SIDES)
            if base != change:
                print(f"counter {workload} {name}: base {base} change {change}")
                changed = True
    if not changed:
        print("counters: no change")
    return failed


def gate(spec, run):
    """Runs both sides through `run(side, workload, seed, trace)`, which
    returns a run's standard output; prints the report, returns the exit
    status."""
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    runs, traced = {}, {}
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for pair, seed in enumerate(SEEDS):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    runs.setdefault((side, workload), []).append(
                        measure(run, side, workload, seed, 0, end_to_end))
            for side in SIDES:
                traced[side, workload] = measure(
                    run, side, workload, SEEDS[0], 1, counters_of(workload))
    except NoResult as err:
        print(f"perf_gate: {err}")
        return 2
    return 1 if decide(spec, runs, traced) else 0


def run_perfbench(checkout, workload, seed, trace):
    """Standard output of `checkout`'s perfbench/run.py for one run."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    out = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-2000:])
    return out.stdout


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    checkouts = dict(zip(SIDES, (os.path.abspath(a) for a in argv)))
    with open(os.path.join(checkouts["base"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    print(f"perf_gate: base {checkouts['base']}, change {checkouts['change']}: "
          f"{PAIRS} pairs of {RUN_SECONDS} s per workload", flush=True)
    return gate(spec, lambda side, *args: run_perfbench(checkouts[side], *args))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
