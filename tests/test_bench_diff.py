#!/usr/bin/env python3
"""CI-regression-gate tests for tools/bench_diff.py.

Runs the script as a subprocess against synthetic artifact directories
and checks the gating contract: hard aligns_per_sec regressions fail,
zero/missing baselines soft-pass (a previous run that crashed or
skipped a bench must not take CI down with a ZeroDivisionError), and
wall-clock metrics only ever produce notices.

Registered with CTest (stdlib unittest only — no pytest dependency).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "tools", "bench_diff.py")


def run_diff(old, new, threshold="10"):
    return subprocess.run(
        [sys.executable, SCRIPT, "--old", old, "--new", new,
         "--threshold", threshold],
        capture_output=True, text=True)


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.old = os.path.join(self._tmp.name, "old")
        self.new = os.path.join(self._tmp.name, "new")
        os.makedirs(self.old)
        os.makedirs(self.new)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, dirname, data, name="BENCH_t.json"):
        with open(os.path.join(dirname, name), "w") as handle:
            json.dump(data, handle)

    def test_zero_baseline_soft_passes(self):
        # A crashed/skipped previous bench leaves aligns_per_sec == 0;
        # that must be a notice, not a ZeroDivisionError or a failure.
        self.write(self.old, {"aligns_per_sec": 0})
        self.write(self.new, {"aligns_per_sec": 123.0})
        result = run_diff(self.old, self.new)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("no usable baseline", result.stdout)

    def test_missing_metric_in_baseline_is_skipped(self):
        self.write(self.old, {"other_metric": 5})
        self.write(self.new, {"aligns_per_sec": 123.0})
        result = run_diff(self.old, self.new)
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_missing_old_dir_soft_passes(self):
        self.write(self.new, {"aligns_per_sec": 123.0})
        result = run_diff(os.path.join(self._tmp.name, "nope"), self.new)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("soft pass", result.stdout)

    def test_missing_new_dir_fails(self):
        result = run_diff(self.old, os.path.join(self._tmp.name, "nope"))
        self.assertEqual(result.returncode, 1, result.stdout)

    def test_hard_regression_fails(self):
        self.write(self.old, {"aligns_per_sec": 100.0})
        self.write(self.new, {"aligns_per_sec": 80.0})
        result = run_diff(self.old, self.new)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("FAIL", result.stdout)

    def test_improvement_and_small_drop_pass(self):
        self.write(self.old, {"a": {"aligns_per_sec": 100.0},
                              "b": {"aligns_per_sec": 100.0}})
        self.write(self.new, {"a": {"aligns_per_sec": 200.0},
                              "b": {"aligns_per_sec": 95.0}})
        result = run_diff(self.old, self.new)
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_wall_clock_regression_is_notice_only(self):
        self.write(self.old, {"cells_per_sec": 100.0})
        self.write(self.new, {"cells_per_sec": 10.0})
        result = run_diff(self.old, self.new)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("notice", result.stdout)

    def test_new_gated_metric_soft_passes_with_notice(self):
        # First landing of a new section (e.g. BENCH_serve.json gaining
        # server.aligns_per_sec): nothing to diff against, so it must
        # soft-pass with a visible notice, not crash or silently vanish.
        self.write(self.old, {"aligns_per_sec": 100.0})
        self.write(self.new, {"aligns_per_sec": 100.0,
                              "server": {"aligns_per_sec": 321.0}})
        result = run_diff(self.old, self.new)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("new metric, no baseline", result.stdout)

    def test_disappeared_gated_metric_prints_notice(self):
        # A reshaped section that loses a hard- or soft-gated key must
        # say so instead of silently dropping the gate.
        self.write(self.old, {"stage": {"modeled_aligns_per_sec": 100.0,
                                        "overlap_speedup": 1.4,
                                        "p99_ms": 3.0}})
        self.write(self.new, {"stage": {"p99_ms": 3.0}})
        result = run_diff(self.old, self.new)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("stage.modeled_aligns_per_sec: 100 -> missing",
                      result.stdout)
        self.assertIn("stage.overlap_speedup: 1.4 -> missing",
                      result.stdout)
        self.assertNotIn("p99_ms", result.stdout)

    def test_new_ungated_metric_is_silent(self):
        self.write(self.old, {"aligns_per_sec": 100.0})
        self.write(self.new, {"aligns_per_sec": 100.0, "p99_ms": 3.0})
        result = run_diff(self.old, self.new)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertNotIn("new metric", result.stdout)

    def test_corrupt_old_artifact_skipped_with_notice(self):
        with open(os.path.join(self.old, "BENCH_t.json"), "w") as handle:
            handle.write("{\"aligns_per_sec\": 10")  # truncated upload
        self.write(self.new, {"aligns_per_sec": 123.0})
        result = run_diff(self.old, self.new)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("unreadable", result.stdout)

    def test_corrupt_new_artifact_fails(self):
        self.write(self.old, {"aligns_per_sec": 100.0})
        with open(os.path.join(self.new, "BENCH_t.json"), "w") as handle:
            handle.write("not json")
        result = run_diff(self.old, self.new)
        self.assertNotEqual(result.returncode, 0, result.stdout)

    def test_keyed_rows_survive_reordering(self):
        self.write(self.old, {"rows": [{"id": 1, "aligns_per_sec": 50.0},
                                       {"id": 2, "aligns_per_sec": 100.0}]})
        self.write(self.new, {"rows": [{"id": 2, "aligns_per_sec": 100.0},
                                       {"id": 1, "aligns_per_sec": 50.0}]})
        result = run_diff(self.old, self.new)
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_active_tier_lane_regression_fails_when_tier_matches(self):
        # Same active tier in both runs: the lane-engine throughput at
        # that tier is one pinned workload on one pinned ISA, so a big
        # drop is a lane-engine regression and must fail the gate.
        self.write(self.old, {"isa_tiers": {
            "active": "avx2", "active_lane_cells_per_sec": 100.0}})
        self.write(self.new, {"isa_tiers": {
            "active": "avx2", "active_lane_cells_per_sec": 80.0}})
        result = run_diff(self.old, self.new)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("FAIL", result.stdout)
        self.assertIn("active_lane_cells_per_sec", result.stdout)

    def test_active_tier_lane_drop_within_threshold_passes(self):
        self.write(self.old, {"isa_tiers": {
            "active": "avx2", "active_lane_cells_per_sec": 100.0}})
        self.write(self.new, {"isa_tiers": {
            "active": "avx2", "active_lane_cells_per_sec": 95.0}})
        result = run_diff(self.old, self.new)
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_tier_change_demotes_lane_gate_to_notice(self):
        # An avx512 runner replaced by an avx2 one legitimately halves
        # the lane throughput: must not fail, must say why.
        self.write(self.old, {"isa_tiers": {
            "active": "avx512", "active_lane_cells_per_sec": 200.0}})
        self.write(self.new, {"isa_tiers": {
            "active": "avx2", "active_lane_cells_per_sec": 100.0}})
        result = run_diff(self.old, self.new)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("active ISA tier changed", result.stdout)

    def test_per_tier_lane_rates_stay_notice_only(self):
        # The non-active per-tier sweep rates keep the plain wall-clock
        # (cells_per_sec) soft treatment even when the tier matches.
        self.write(self.old, {"isa_tiers": {
            "active": "avx2",
            "tiers": {"sse2": {"lane_cells_per_sec": 100.0}}}})
        self.write(self.new, {"isa_tiers": {
            "active": "avx2",
            "tiers": {"sse2": {"lane_cells_per_sec": 10.0}}}})
        result = run_diff(self.old, self.new)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("notice", result.stdout)

    def test_lane_kernel_rates_soft_pass(self):
        # The per-kernel lane_kernels section is wall-clock: its first
        # landing soft-passes, and a later drop (even at the same tier)
        # stays a notice keyed by the kernel's name.
        def section(rate):
            return {"isa_tiers": {"active": "avx2",
                                  "active_lane_cells_per_sec": 100.0},
                    "lane_kernels": {"tier": "avx2", "kernels": [
                        {"name": "Dynamic Time Warping",
                         "cells_per_sec": rate,
                         "device_cycles_identical": True}]}}

        self.write(self.old, {"isa_tiers": {
            "active": "avx2", "active_lane_cells_per_sec": 100.0}})
        self.write(self.new, section(100.0))
        result = run_diff(self.old, self.new)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("lane_kernels.kernels[name=Dynamic Time Warping]"
                      ".cells_per_sec: 100 (new metric, no baseline",
                      result.stdout)

        self.write(self.old, section(100.0))
        self.write(self.new, section(10.0))
        result = run_diff(self.old, self.new)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("notice: BENCH_t.json:lane_kernels.kernels"
                      "[name=Dynamic Time Warping].cells_per_sec",
                      result.stdout)


if __name__ == "__main__":
    unittest.main()
