#!/usr/bin/env python3
"""Tests of tools/perf_gate.py's decision, on synthetic perfbench output.

    python3 tests/tools/perf_gate_test.py

Nothing is built or timed: each case hands the gate the standard output that
each run would print, with the bounds of the repository's BENCHMARK.json.
"""
import contextlib
import io
import json
import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "tools"))
import perf_gate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
END_TO_END = {"setup_s": 0.02, "ops_per_s": 30.0, "op_ms_p50": 34.0,
              "op_ms_p90": 40.0, "rss_peak_mb": 8.0}
COUNTERS = {"sim.events": 182254, "sim.peak_pending": 687,
            "snapshot.bytes": 0, "rundb.store_bytes": 0, "obs.trace_events": 0}


def output(trace, edits=None, failed=0):
    """A run's standard output: a line for people, then the result line."""
    metrics = dict(COUNTERS if trace else END_TO_END, **(edits or {}))
    return "provenance: synthetic\n" + json.dumps({
        "correct": failed == 0, "attempted": 12, "failed": failed,
        "metrics": {n: {"value": v, "unit": "u"} for n, v in metrics.items()}})


def same(workload, seed, trace):
    return output(trace)


def run_gate(change=same, base=same):
    """The gate's exit status, report and runs, in the order they ran."""
    runs = []

    def run(side, workload, seed, trace):
        runs.append((side, workload, seed, trace))
        return (change if side == "change" else base)(workload, seed, trace)

    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        status = perf_gate.gate(SPEC, run)
    return status, report.getvalue(), runs


def untraced(workload, edits):
    """Change-side output with `edits` on the untraced runs of `workload`."""
    return lambda w, seed, trace: output(trace, None if trace or w != workload else edits)


class PerfGateTest(unittest.TestCase):
    def test_identical_sides_pass_and_every_pair_is_reported(self):
        status, report, runs = run_gate()
        self.assertEqual(status, 0, report)
        verdicts = [line for line in report.splitlines() if line.startswith("ok ")]
        self.assertEqual(len(verdicts), 15, report)
        self.assertIn("counters: no change", report)
        paper = [r[0] for r in runs if r[1] == "paper" and not r[3]]
        self.assertEqual(paper[:4], ["base", "change", "change", "base"])
        self.assertEqual(len(runs), 3 * (2 * perf_gate.PAIRS + 2))

    def test_throughput_down_30_percent_fails_naming_workload_and_metric(self):
        status, report, _ = run_gate(untraced("policy_sweep", {"ops_per_s": 21.0}))
        self.assertEqual(status, 1, report)
        failed = [line for line in report.splitlines() if line.startswith("FAIL")]
        self.assertEqual(len(failed), 1, report)
        self.assertIn("policy_sweep", failed[0])
        self.assertIn("ops_per_s", failed[0])

    def test_throughput_down_20_percent_passes(self):
        status, report, _ = run_gate(untraced("paper", {"ops_per_s": 24.0}))
        self.assertEqual(status, 0, report)

    def test_rss_up_16_percent_fails(self):
        status, report, _ = run_gate(untraced("checkpoint_trace", {"rss_peak_mb": 9.28}))
        self.assertEqual(status, 1, report)
        self.assertRegex(report, r"FAIL checkpoint_trace +rss_peak_mb")

    def test_a_change_side_failed_op_fails(self):
        def change(workload, seed, trace):
            return output(trace, failed=int(workload == "paper" and seed == 2 and not trace))
        status, report, _ = run_gate(change)
        self.assertEqual(status, 1, report)
        self.assertIn("FAIL paper seed 2: the change side failed 1 of 12 ops", report)

    def test_an_unreadable_result_line_exits_2_naming_the_side(self):
        truncated = output(False)[:-20]
        for side, text in (("change", truncated), ("base", "Segmentation fault"),
                           ("change", "")):
            def broken(workload, seed, trace, text=text):
                if workload == "policy_sweep" and seed == 1:
                    return text
                return output(trace)
            status, report, _ = run_gate(**{side: broken})
            self.assertEqual(status, 2, report)
            self.assertIn(f"the {side} side printed no result line for "
                          "policy_sweep at seed 1", report)

    def test_a_changed_counter_prints_but_passes(self):
        # A per-op mean printed with 17 digits may differ in its last one.
        edits = {"sim.peak_pending": 700, "sim.events": 182254.00000000003}

        def change(workload, seed, trace):
            return output(trace, edits if trace and workload == "paper" else None)
        status, report, _ = run_gate(change)
        self.assertEqual(status, 0, report)
        counters = [line for line in report.splitlines() if line.startswith("counter")]
        self.assertEqual(counters, ["counter paper sim.peak_pending: base 687 change 700"])


if __name__ == "__main__":
    unittest.main()
