"""Self-tests of the benchmark's percentile, sample-count, metric and JSON
code. Run with `python3 -m unittest discover -s perfbench/tests`."""

import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import stats  # noqa: E402


def job(site, ms):
    return {"site": site, "file": site.split(" at ")[-1].split(":")[0], "ms": ms}


def plain_raw(**over):
    raw = {"workload": "w", "seed": 1, "trace": False,
           "setup_s": [3.0, 1.0, 2.0], "private_s": 2.0,
           "query_ms": [float(i) for i in range(1, 201)],
           "exact_ms": [10.0] * 200, "rel_err": [0.1] * 100,
           "attempted": 201, "failed": 1, "failures": ["item 7: boom"],
           "store_bytes": 2_000_000, "metadata_bytes": 3_000,
           "heap_retained_bytes": 50_000_000, "checked": 5,
           "mismatches": [], "mismatch_count": 0}
    raw.update(over)
    return raw


def traced_raw():
    return {"workload": "w", "seed": 1, "trace": True,
            "setup_jobs": [job("collect at Setup.scala:86", 10.0),
                           job("parquet at Setup.scala:100", 20.0),
                           job("collect at Metadata.scala:104", 5.0),
                           job("collect at Metadata.scala:113", 7.0)],
            "replay_build_ms": 4.0, "store_files": 80, "total_partitions": 80,
            "untraced_ms": [9.0, 11.0], "traced_ms": [10.0, 10.0],
            "spans": {"federation.summary": [1.0, 3.0], "core.scan": [5.0, 5.0],
                      "smc.release": [2.0]},
            "exact_ms": [20.0, 30.0, 40.0],
            "scan": {"files": [4, 6], "bytes": [10, 30], "rows": [1, 3], "partitions": [4, 6]},
            "exact": {"files": [80], "bytes": [100], "rows": [9], "partitions": [80]},
            "scan_jobs": 4, "covering_clusters": [10, 20], "sampled_clusters": [2, 4],
            "exact_path_providers": 1, "plans": 8, "em_draws": [2, 2],
            "gc_ms": 4.0, "alloc_bytes": 6e6, "attempted": 2, "failed": 0,
            "failures": [], "checked": 4, "mismatches": [], "mismatch_count": 0}


class PercentileTest(unittest.TestCase):
    def test_matches_statistics_inclusive_quartiles(self):
        xs = [7.0, 1.0, 4.0, 9.0, 2.0, 8.0, 3.0]
        q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        self.assertAlmostEqual(stats.percentile(xs, 25), q1)
        self.assertAlmostEqual(stats.percentile(xs, 50), q2)
        self.assertAlmostEqual(stats.percentile(xs, 75), q3)

    def test_interpolates_between_ranks(self):
        self.assertEqual(stats.percentile([0.0, 10.0], 95), 9.5)
        self.assertEqual(stats.percentile(list(range(1, 101)), 50), 50.5)

    def test_extremes_and_single_sample(self):
        xs = [5.0, 1.0, 3.0]
        self.assertEqual(stats.percentile(xs, 0), 1.0)
        self.assertEqual(stats.percentile(xs, 100), 5.0)
        self.assertEqual(stats.percentile([4.0], 95), 4.0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)


class SampleCountTest(unittest.TestCase):
    def test_ten_samples_beyond_the_percentile(self):
        self.assertEqual(stats.min_samples(95), 200)
        self.assertEqual(stats.min_samples(90), 100)
        self.assertEqual(stats.min_samples(50), 20)

    def test_supports(self):
        self.assertTrue(stats.supports(95, 200))
        self.assertFalse(stats.supports(95, 199))
        self.assertTrue(stats.supports(90, 100))

    def test_under_sampled_percentile_is_flagged(self):
        raw = plain_raw(exact_ms=[10.0] * 50)
        lines = run.report(raw, run.end_to_end(raw))
        [p95] = [line for line in lines if "exact_p95_ms" in line]
        self.assertIn("n=50, UNDER-SAMPLED", p95)
        [q95] = [line for line in lines if "query_p95_ms" in line]
        self.assertIn("n=200)", q95)


class ResultLineTest(unittest.TestCase):
    def test_shape(self):
        line = stats.result_line(True, 10, 1, {"latency_ms": (1.25, "ms")})
        self.assertEqual(json.loads(line), {
            "correct": True, "attempted": 10, "failed": 1,
            "metrics": {"latency_ms": {"value": 1.25, "unit": "ms"}}})
        self.assertNotIn("\n", line)

    def test_rejects_bad_counts_and_values(self):
        with self.assertRaises(ValueError):
            stats.result_line(True, 0, 0, {})
        with self.assertRaises(ValueError):
            stats.result_line(True, 2, 3, {})
        with self.assertRaises(ValueError):
            stats.result_line(True, 1, 0, {"x": (float("nan"), "ms")})


def benchmark_spec():
    return json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


class MetricsTest(unittest.TestCase):

    def test_end_to_end_values(self):
        m = run.end_to_end(plain_raw())
        self.assertEqual(m["setup_s"], (2.0, "s"))
        self.assertEqual(m["queries_per_s"], (100.0, "1/s"))
        self.assertAlmostEqual(m["query_p50_ms"][0], 100.5)
        self.assertAlmostEqual(m["query_p95_ms"][0], 190.05)
        self.assertEqual(m["store_mb"], (2.0, "MB"))
        self.assertEqual(m["metadata_kb"], (3.0, "KB"))

    def test_setup_split_by_call_site(self):
        tensor, mat, meta = run.setup_split(traced_raw()["setup_jobs"])
        self.assertEqual([j["ms"] for j in tensor], [10.0])
        self.assertEqual([j["ms"] for j in mat], [20.0])
        self.assertEqual([j["ms"] for j in meta], [5.0, 7.0])

    def test_per_layer_values(self):
        m = run.per_layer(traced_raw())
        self.assertEqual(m["core.metadata.jobs"], (2, "count"))
        self.assertEqual(m["federation.summary.ms"], (2.0, "ms"))
        self.assertEqual(m["federation.summary.share"], (20.0, "%"))
        self.assertEqual(m["smc.release.ms"], (2.0, "ms"))
        self.assertEqual(m["dp.release.ms"], (0.0, "ms"))
        self.assertEqual(m["federation.run.self_share"], (20.0, "%"))
        self.assertEqual(m["core.scan.jobs"], (2.0, "count"))
        self.assertEqual(m["federation.exact_path_frac"], (0.125, "ratio"))
        self.assertEqual(m["jvm.alloc_mb"], (3.0, "MB"))
        self.assertEqual(m["trace.overhead_pct"], (0.0, "%"))

    def test_metrics_match_benchmark_json(self):
        for key, metrics in (("end_to_end", run.end_to_end(plain_raw())),
                             ("per_layer", run.per_layer(traced_raw()))):
            declared = {m["name"]: m["unit"] for m in benchmark_spec()[key]}
            produced = {name: unit for name, (_, unit) in metrics.items()}
            self.assertEqual(produced, declared, key)

    def test_benchmark_json_contract(self):
        spec = benchmark_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        bounds = [m["bound"] for m in spec["end_to_end"]]
        self.assertTrue(all(0 < b <= 0.25 for b in bounds))
        self.assertEqual(setup[0]["bound"], max(bounds))


if __name__ == "__main__":
    unittest.main()
