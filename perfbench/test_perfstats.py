"""Tests for the benchmark's helper math.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perfstats  # noqa: E402


def span(start, end, parent=-1, layer="x"):
    return {"start": start, "end": end, "parent": parent, "layer": layer}


class TailPercentileTest(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        # 960 chaos runs: p98 leaves 19 beyond it, p99 only 9.
        self.assertEqual(perfstats.samples_beyond(960, 98.0), 19)
        self.assertEqual(perfstats.samples_beyond(960, 99.0), 9)
        self.assertEqual(perfstats.tail_percentile(960), 98.0)
        # 2000 windows: p99 leaves exactly 20, p99.5 exactly 10.
        self.assertEqual(perfstats.tail_percentile(2000), 99.5)
        self.assertEqual(perfstats.tail_percentile(1999), 99.0)

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(perfstats.tail_percentile(12))
        self.assertEqual(perfstats.tail_percentile(40), 75.0)

    def test_percentile_keeping_tail_refuses_a_thin_tail(self):
        values = list(range(1, 961))
        self.assertEqual(perfstats.percentile_keeping_tail(values, 98.0), 941)
        with self.assertRaises(ValueError):
            perfstats.percentile_keeping_tail(values, 99.0)

    def test_nearest_rank(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(perfstats.percentile(values, 50.0), 3)
        self.assertEqual(perfstats.percentile(values, 0.0), 1)
        self.assertEqual(perfstats.percentile(values, 100.0), 5)
        self.assertEqual(perfstats.percentile(values, 81.0), 5)
        with self.assertRaises(ValueError):
            perfstats.percentile([], 50.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            span(0, 10_000_000_000),                 # 0: root, 10 s
            span(1_000_000_000, 4_000_000_000, 0),   # 1: child 1-4 s
            span(3_000_000_000, 6_000_000_000, 0),   # 2: child 3-6 s, overlaps 1
            span(1_000_000_000, 2_000_000_000, 1),   # 3: grandchild of 0
        ]
        selfs = perfstats.self_times_s(spans)
        # The root's children cover 1-6 s once, not 3 + 3 s.
        self.assertAlmostEqual(selfs[0], 5.0)
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[3], 1.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, 2_000_000_000), span(1_500_000_000, 3_000_000_000, 0)]
        self.assertAlmostEqual(perfstats.self_times_s(spans)[0], 1.5)

    def test_aggregates_leave_the_parent_and_join_their_layer(self):
        spans = [span(0, 4_000_000_000, layer="app"), span(0, 1_000_000_000, layer="bench")]
        aggregates = [{"parent": 0, "layer": "ran", "total_s": 0.5},
                      {"parent": 0, "layer": "cc", "total_s": 0.25},
                      {"parent": 1, "layer": "ran", "total_s": 0.1}]
        self.assertAlmostEqual(perfstats.self_times_s(spans, aggregates)[0], 3.25)
        table = perfstats.self_time_by_layer(spans, aggregates, keep=lambda s: s["layer"] == "app")
        self.assertEqual(set(table), {"app", "ran", "cc"})
        self.assertAlmostEqual(table["app"], 3.25)
        self.assertAlmostEqual(table["ran"], 0.5)
        self.assertAlmostEqual(table["cc"], 0.25)


class FailedFracTest(unittest.TestCase):
    def test_counts_operations_of_check_groups(self):
        groups = [
            [1, 0, 0],      # a clean call or world
            [1, 1, 0],      # a world whose digest differed
            [960, 0, 3],    # a chaos matrix with 3 failed runs
            [960, 1, 5],    # a chaos matrix whose fleet JSON differed: all fail
            [960, 0, 999],  # more failures booked than runs: capped
        ]
        self.assertEqual(perfstats.count_operations(groups), (2882, 1 + 3 + 960 + 960))
        self.assertEqual(perfstats.count_operations([]), (0, 0))

    def test_counts_failures_against_attempts(self):
        self.assertEqual(perfstats.failed_frac(3841, 0), 0.0)
        self.assertAlmostEqual(perfstats.failed_frac(961, 64), 64 / 961)
        self.assertEqual(perfstats.failed_frac(4, 4), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            perfstats.failed_frac(0, 0)
        with self.assertRaises(ValueError):
            perfstats.failed_frac(5, 6)
        with self.assertRaises(ValueError):
            perfstats.failed_frac(5, -1)


if __name__ == "__main__":
    unittest.main()
