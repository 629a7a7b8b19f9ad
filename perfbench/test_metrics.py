"""Tests of perfbench's metric arithmetic (metrics.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import metrics


def span(name, start, end, parent=-1, op=0):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}


class Percentiles(unittest.TestCase):
    def test_quantile_interpolates(self):
        self.assertEqual(metrics.quantile([3, 1, 2], 0.5), 2)
        self.assertEqual(metrics.quantile([1, 2, 3, 4], 0.5), 2.5)
        self.assertAlmostEqual(metrics.quantile(range(11), 0.9), 9.0)
        self.assertEqual(metrics.quantile([5], 0.9), 5)
        with self.assertRaises(ValueError):
            metrics.quantile([], 0.5)

    def test_samples_beyond(self):
        self.assertEqual(metrics.samples_beyond(100, 90), 10)
        self.assertEqual(metrics.samples_beyond(99, 90), 9)
        self.assertEqual(metrics.samples_beyond(1000, 99), 10)
        self.assertEqual(metrics.samples_beyond(10, 50), 5)

    def test_tail_is_highest_percentile_with_ten_beyond(self):
        self.assertEqual(metrics.tail_percentile(19), (None, 0))
        self.assertEqual(metrics.tail_percentile(20), (50.0, 10))
        self.assertEqual(metrics.tail_percentile(40), (75.0, 10))
        self.assertEqual(metrics.tail_percentile(99), (75.0, 24))
        self.assertEqual(metrics.tail_percentile(100), (90.0, 10))
        self.assertEqual(metrics.tail_percentile(212), (95.0, 10))
        self.assertEqual(metrics.tail_percentile(1000), (99.0, 10))
        self.assertEqual(metrics.tail_percentile(10000), (99.9, 10))


class SelfTime(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertAlmostEqual(metrics.covered((0, 100), []), 0.0)
        self.assertAlmostEqual(metrics.covered((0, 100), [(10, 20), (15, 30)]), 20e-9)
        self.assertAlmostEqual(metrics.covered((0, 100), [(-50, 10), (90, 200)]), 20e-9)
        self.assertAlmostEqual(metrics.covered((0, 100), [(40, 30), (200, 300)]), 0.0)
        self.assertAlmostEqual(metrics.covered((0, 100), [(0, 50), (50, 100)]), 100e-9)

    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            span("op", 0, 1000),
            span("a", 100, 400, parent=0),
            span("a.inner", 150, 350, parent=1),
            span("b", 500, 900, parent=0),
        ]
        selfs = metrics.self_times(spans)
        self.assertAlmostEqual(selfs[0], 300e-9)  # 1000 - (300 + 400)
        self.assertAlmostEqual(selfs[1], 100e-9)  # 300 - 200
        self.assertAlmostEqual(selfs[2], 200e-9)
        self.assertAlmostEqual(selfs[3], 400e-9)
        self.assertAlmostEqual(metrics.coverage(spans, selfs, 0), 0.7)

    def test_coverage_needs_an_op_span(self):
        spans = [span("a", 0, 10)]
        with self.assertRaises(ValueError):
            metrics.coverage(spans, metrics.self_times(spans), 0)

    def test_layer_arithmetic(self):
        spans = [
            span("op", 0, 10_000_000_000),
            span("catmod.run_cat_model", 0, 1_000_000_000, parent=0),
            span("catmod.run_cat_model", 1_000_000_000, 2_000_000_000, parent=0),
            span("core.run_aggregate_analysis", 2_000_000_000, 8_000_000_000, parent=0),
            span("dfa.run", 8_000_000_000, 9_000_000_000, parent=0),
        ]
        record = {"attrs": {"pairs": 4e6, "resolve_s": 0.5, "wait_s": 0.25, "occ_evals": 5.25e6,
                            "stage2_off_s": 2.0, "resolver_hits": 3, "resolver_misses": 1,
                            "dfa_trials": 1000}}
        layers = metrics.op_layers(record, spans, metrics.self_times(spans), 0)
        self.assertAlmostEqual(layers["catmod.model_s"], 2.0)
        self.assertAlmostEqual(layers["catmod.pairs_per_s"], 2e6)
        self.assertAlmostEqual(layers["core.stage2_s"], 6.0)
        self.assertAlmostEqual(layers["core.kernel_s"], 5.25)  # 6 - 0.5 - 0.25
        self.assertAlmostEqual(layers["core.occ_per_s"], 1e6)
        self.assertAlmostEqual(layers["core.sampling_s"], 4.0)  # 6 - 2
        self.assertAlmostEqual(layers["data.resolver_hit_ratio"], 0.75)
        self.assertAlmostEqual(layers["dfa.trials_per_s"], 1000.0)
        self.assertEqual(layers["core.quote_post_s"], 0.0)
        self.assertEqual(layers["core.simd_vector_share"], 0.0)

    def test_quote_layers(self):
        spans = [span("op", 0, 100_000_000), span("core.price", 0, 100_000_000, parent=0)]
        record = {"attrs": {"quote_sim_s": 0.06, "resolver_build_s": 0.01,
                            "simd_vector": 3, "simd_scalar": 1}}
        layers = metrics.op_layers(record, spans, metrics.self_times(spans), 0)
        self.assertAlmostEqual(layers["core.quote_sim_s"], 0.06)
        self.assertAlmostEqual(layers["core.quote_post_s"], 0.04)
        self.assertAlmostEqual(layers["core.stage2_s"], 0.06)
        self.assertAlmostEqual(layers["data.resolve_s"], 0.01)
        self.assertAlmostEqual(layers["core.kernel_s"], 0.05)
        self.assertAlmostEqual(layers["core.simd_vector_share"], 0.75)
        self.assertEqual(layers["core.sampling_s"], 0.0)  # no probe recorded


class RunMetrics(unittest.TestCase):
    def result(self):
        ops = []
        spans = []
        for i, wall in enumerate([1.0, 2.0, 3.0, 4.0]):
            traced = i % 2 == 1
            ops.append({"wall_s": wall, "cpu_s": 2 * wall, "ok": True, "traced": traced,
                        "error": "", "attrs": {}})
            if traced:
                start = len(spans)
                spans.append(span("op", 0, int(wall * 1e9), op=i))
                spans.append(span("core.metrics", 0, int(wall * 0.95e9), parent=start, op=i))
        return {"ops": ops, "spans": spans, "setup_s": [3.0, 1.0, 2.0],
                "peak_rss_mb": [14.0, 12.5, 10.0], "warmup_failures": 0}

    def test_end_to_end(self):
        e2e = metrics.end_to_end(self.result())
        self.assertAlmostEqual(e2e["op_p50_s"], 2.5)
        self.assertAlmostEqual(e2e["op_p90_s"], 3.7)
        self.assertAlmostEqual(e2e["op_cpu_s"], 5.0)
        self.assertAlmostEqual(e2e["setup_s"], 2.0)
        self.assertEqual(e2e["peak_rss_mb"], 12.5)

    def test_per_layer(self):
        values, coverages = metrics.per_layer(self.result())
        self.assertEqual(len(coverages), 2)
        self.assertAlmostEqual(values["trace.coverage"], 0.95)
        self.assertAlmostEqual(values["trace.overhead"], 3.0 / 2.0)  # traced 2,4 / untraced 1,3
        self.assertAlmostEqual(values["parallel.cpu_per_wall"], 2.0)
        self.assertAlmostEqual(values["core.metrics_s"], 0.95 * 3.0)


if __name__ == "__main__":
    unittest.main()
