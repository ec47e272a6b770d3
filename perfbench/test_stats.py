"""Tests of the benchmark's own arithmetic and metric tables.

    python3 perfbench/test_stats.py
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402


def span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "name": name, "op": 0}


class PercentileTest(unittest.TestCase):
    def test_median_matches_statistics(self):
        for xs in ([3.0], [1.0, 2.0], [5.0, 1.0, 4.0], [2, 9, 4, 7, 1, 8]):
            self.assertAlmostEqual(stats.median(xs), statistics.median(xs))

    def test_interpolates_between_ranks(self):
        xs = [10.0, 20.0, 30.0, 40.0, 50.0]
        self.assertEqual(stats.percentile(xs, 0), 10.0)
        self.assertEqual(stats.percentile(xs, 100), 50.0)
        self.assertAlmostEqual(stats.percentile(xs, 90), 46.0)
        self.assertAlmostEqual(stats.percentile(xs, 12.5), 15.0)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50),
                         stats.percentile([1, 2, 3], 50))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class TailTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 98.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(50), 80.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(stats.tail_percentile(39))
        self.assertIsNone(stats.tail_percentile(0))

    def test_chosen_tail_leaves_ten_beyond(self):
        for n in range(40, 3000, 7):
            p = stats.tail_percentile(n)
            self.assertGreaterEqual(n * (100 - p) / 100, 10 - 1e-9)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_is_its_duration(self):
        self.assertEqual(stats.self_times([span(0, -1, 5, 12)]), {0: 7})

    def test_children_are_subtracted(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 90),
                 span(3, 1, 12, 20)]
        self.assertEqual(stats.self_times(spans), {0: 40, 1: 12, 2: 40, 3: 8})

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 60), span(2, 0, 40, 80)]
        self.assertEqual(stats.self_times(spans)[0], 30)

    def test_child_past_parent_end_is_clipped(self):
        spans = [span(0, -1, 0, 50), span(1, 0, 40, 70)]
        self.assertEqual(stats.self_times(spans)[0], 40)

    def test_self_times_sum_to_root_duration(self):
        spans = [span(0, -1, 0, 1000), span(1, 0, 100, 400),
                 span(2, 1, 150, 300), span(3, 0, 500, 900),
                 span(4, 3, 500, 600), span(5, 3, 700, 900)]
        self.assertEqual(sum(stats.self_times(spans).values()), 1000)

    def test_self_per_root_groups_by_root_span(self):
        spans = [span(0, -1, 0, 100, "fwd"), span(1, 0, 0, 40, "nn.A"),
                 span(2, 1, 0, 10, "nn.B"), span(3, 0, 50, 90, "nn.B"),
                 span(4, -1, 200, 300, "fwd"), span(5, 4, 210, 230, "nn.A"),
                 span(6, -1, 400, 500, "other"), span(7, 6, 400, 450, "nn.A")]
        selves = stats.self_times(spans)
        got = stats.self_per_root(spans, selves, "fwd", ["nn.A", "nn.B", "fwd"])
        self.assertEqual(got, {"nn.A": [30, 20], "nn.B": [50, 0],
                               "fwd": [20, 80]})


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json must name exactly the metrics run.py computes."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_end_to_end_names_and_units(self):
        got = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        self.assertEqual(got, run.E2E_UNITS)
        self.assertIn("setup_s", got)

    def test_per_layer_names_units_and_direction(self):
        got = [(m["name"], m["unit"], m["better"]) for m in self.bench["per_layer"]]
        self.assertEqual(got, list(run.LAYER_METRICS))

    def test_workloads(self):
        names = tuple(w["name"] for w in self.bench["workloads"])
        self.assertEqual(names, run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
