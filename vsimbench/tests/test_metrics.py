"""Tests of the benchmark's own rules. No simulation is run.

    python3 -m unittest discover -s vsimbench/tests
"""

import copy
import json
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402


def job(id_, digest, warm=False, latency=1.0, cycles=100):
    return {"id": id_, "latency_s": latency,
            "digest": digest, "cycles": cycles,
            "warm": warm, "exit_ok": True, "output_ok": True,
            "cache_hit": warm, "error": ""}


def span(id_, parent, name, start, end, run=0, **args):
    return {"id": id_, "parent": parent, "run": run, "name": name,
            "start_ns": start, "end_ns": end, "args": args}


def raw_run(jobs, spans=(), counters=None):
    return {
        "manifest": {}, "setup_s": [0.3, 0.1, 0.2], "peak_rss_mb": 50.0,
        "untraced_wall_s": 2.0, "traced_wall_s": 2.5,
        "passes": [{"wall_s": 2.0, "instructions": 4000,
                    "run_cache_hits": 0, "run_cache_misses": 2,
                    "warm_wall_s": [0.01, 0.03, 0.02],
                    "jobs": jobs}],
        "counters": counters or {}, "decomposed": [],
        "spans": list(spans),
    }


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile([7.0], 90), 7.0)

    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(metrics.tail_percentile(list(range(100)), 90), 89)
        self.assertIsNone(metrics.tail_percentile(list(range(99)), 90))
        self.assertIsNone(metrics.tail_percentile([], 90))

    def test_p50_needs_twenty_samples(self):
        self.assertIsNone(metrics.tail_percentile(list(range(19)), 50))
        self.assertIsNotNone(metrics.tail_percentile(list(range(20)), 50))


class SelfTime(unittest.TestCase):
    def test_span_minus_covered_children(self):
        spans = [span(1, 0, "job", 0, 1000),
                 span(2, 1, "a", 100, 300),
                 span(3, 1, "b", 250, 400),  # overlaps a: union 100..400
                 span(4, 1, "c", 900, 1200)]  # clipped to 900..1000
        st = metrics.self_times(spans)
        self.assertAlmostEqual(st[1], (1000 - 300 - 100) * 1e-9)
        self.assertAlmostEqual(st[2], 200e-9)
        self.assertAlmostEqual(st[4], 300e-9)

    def test_grandchildren_charge_their_parent_only(self):
        spans = [span(1, 0, "job", 0, 100),
                 span(2, 1, "core.run", 10, 90),
                 span(3, 2, "inner", 20, 40)]
        st = metrics.self_times(spans)
        self.assertAlmostEqual(st[1], 20e-9)
        self.assertAlmostEqual(st[2], 60e-9)


class DigestCheck(unittest.TestCase):
    def setUp(self):
        self.jobs = [job("8/48 base|compress", "aaaa"),
                     job("8/48 great D/R|compress", "bbbb"),
                     job("8/48 base|compress", "aaaa", warm=True)]
        self.reference = {"digests": {"fig3-cold": {
            "8/48 base|compress": "aaaa",
            "8/48 great D/R|compress": "bbbb"}}}

    def test_matching_digests_pass(self):
        result, _ = metrics.evaluate(raw_run(self.jobs), self.reference,
                                     "fig3-cold", trace=False)
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (3, 0))

    def test_corrupted_reference_digest_raises_fail_frac(self):
        bad = copy.deepcopy(self.reference)
        bad["digests"]["fig3-cold"]["8/48 base|compress"] = "0000"
        result, report = metrics.evaluate(raw_run(self.jobs), bad,
                                          "fig3-cold", trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)  # cold and warm record
        self.assertIn("fail_frac", "\n".join(report))

    def test_wrong_output_fails(self):
        self.jobs[1]["output_ok"] = False
        result, _ = metrics.evaluate(raw_run(self.jobs), self.reference,
                                     "fig3-cold", trace=False)
        self.assertEqual(result["failed"], 1)


class NamesMatchBenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(BENCH_DIR.parent / "BENCHMARK.json") as f:
            self.spec = json.load(f)

    def test_lists_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         metrics.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["end_to_end"]],
                         metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["per_layer"]],
                         metrics.PER_LAYER)

    def test_name_and_unit_grammar(self):
        names = (metrics.WORKLOADS
                 + [n for n, _ in metrics.END_TO_END + metrics.PER_LAYER])
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, metrics.NAME_RE)
        for _, unit in metrics.END_TO_END + metrics.PER_LAYER:
            self.assertRegex(unit, metrics.UNIT_RE)

    def test_printed_metrics_are_exactly_the_declared_ones(self):
        jobs = [job("8/48 base|compress", "aaaa")]
        reference = {"digests": {"fig3-cold": {"8/48 base|compress": "aaaa"}}}
        for trace, declared in ((False, "end_to_end"), (True, "per_layer")):
            raw = raw_run(jobs, counters={"retired": 1.0})
            raw["passes"].append(raw["passes"][0])
            result, _ = metrics.evaluate(raw, reference, "fig3-cold", trace)
            self.assertEqual(sorted(result["metrics"]),
                             sorted(m["name"] for m in self.spec[declared]))
            self.assertEqual(sorted(result),
                             ["attempted", "correct", "failed", "metrics"])

    def test_end_to_end_metrics_are_positive(self):
        jobs = [job("8/48 base|compress", "aaaa")]
        values = metrics.end_to_end(raw_run(jobs))
        self.assertTrue(all(v > 0 for v in values.values()), values)
        self.assertAlmostEqual(values["setup_s"], 0.2)
        self.assertAlmostEqual(values["warm_wall_s"], 0.02)


if __name__ == "__main__":
    unittest.main()
