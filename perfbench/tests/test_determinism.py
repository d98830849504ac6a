#!/usr/bin/env python3
"""Determinism of the benchmark's counts.

One small run of each workload, made twice with the same seed, must give
every count identically; a second seed must change them. Collects and
query rounds are scheduled by event count, so nothing here may depend on
wall-clock time or thread timing.

    python3 perfbench/tests/test_determinism.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402  (perfbench/run.py)

# Counts that must repeat exactly for a seed.
COUNTS = ("wire_bytes_per_event", "synopsis_bytes", "point_error_avg",
          "transport.messages", "transport.bytes", "merge.cells",
          "encode.full_images", "encode.delta_images", "encode.rlz_images",
          "keyed.admissions", "keyed.evictions", "keyed.capacity_refusals",
          "keyed.exact_hit_ratio", "keyed.memory_bytes")

# Small timed segments: two collects (one publication on site-monitor).
SMALL = {"collect-full": 20000, "collect-compressed": 5000,
         "site-monitor": 20000}


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def counts(self, workload, seed):
        # Two passes with --trace 1: one untraced, one traced. The binary
        # itself fails the run if the two passes' counts differ.
        code, _, result = run.run(self.binary, [
            "--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", "1", "--passes", "2", "--all-metrics", "1",
            "--timed-events", str(SMALL[workload])])
        self.assertEqual(code, 0, result)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        return {name: metrics[name]["value"] for name in COUNTS}

    def test_same_seed_same_counts_other_seed_other_counts(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.counts(workload, 11)
                self.assertEqual(first, self.counts(workload, 11))
                other = self.counts(workload, 12)
                self.assertNotEqual(first["wire_bytes_per_event"],
                                    other["wire_bytes_per_event"])
                self.assertNotEqual(first["point_error_avg"],
                                    other["point_error_avg"])


if __name__ == "__main__":
    unittest.main()
