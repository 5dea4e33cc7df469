#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Covers the generator's determinism, the tail rule, the metric tables
(every metric has a name, unit, direction and sample count, and
BENCHMARK.json says the same), the refusal to run without the sources,
and a short smoke run of every workload that must fail no op.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import perfstats  # noqa: E402
import run  # noqa: E402


def pnc_perf():
    return os.path.join(run.build(run.build_dir()), "pnc_perf")


def digest(workload, seed, work):
    out = subprocess.run([pnc_perf(), "--digest", "--workload", workload,
                          "--seed", str(seed), "--work", work],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_digest_other_seed_other_digest(self):
        with tempfile.TemporaryDirectory() as work:
            for workload in perfstats.WORKLOADS:
                first = digest(workload, 7, work)
                self.assertEqual(first, digest(workload, 7, work), workload)
                self.assertNotEqual(first, digest(workload, 8, work), workload)

    def test_digest_does_not_depend_on_the_directory(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            self.assertEqual(digest("warm_dir", 3, a), digest("warm_dir", 3, b))


class TailRuleTest(unittest.TestCase):
    def test_picks_the_highest_percentile_with_ten_beyond(self):
        self.assertEqual(perfstats.highest_percentile(100), 90)
        # one sample fewer and p90 has only nine beyond
        self.assertEqual(perfstats.highest_percentile(99), 85)
        self.assertEqual(perfstats.highest_percentile(199), 90)
        self.assertEqual(perfstats.highest_percentile(200), 95)
        self.assertEqual(perfstats.highest_percentile(100000), 95)
        self.assertEqual(perfstats.highest_percentile(20), 50)
        for n in (0, 1, 10, 19):
            self.assertIsNone(perfstats.highest_percentile(n))

    def test_tail_is_the_nearest_rank_value_with_ten_beyond(self):
        samples = list(range(1, 101))  # 1..100
        value = perfstats.tail(samples, 90)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertEqual(perfstats.tail(samples[::-1], 90), value)

    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(perfstats.TailRefused):
            perfstats.tail(list(range(99)), 90)
        for n in (0, 1, 19):
            with self.assertRaises(perfstats.TailRefused):
                perfstats.tail(list(range(n)), 50)

    def test_fixed_percentiles_follow_the_rule_on_a_slowed_host(self):
        for workload in perfstats.WORKLOADS:
            pct, fewest = perfstats.TAILS[workload]
            self.assertEqual(perfstats.highest_percentile(
                fewest // perfstats.TAIL_SLACK), pct, workload)


def fake_raw():
    kinds = {k: {"label": k, "lat_ms": [float(i) for i in range(1, 401)],
                 "traced_ms": [], "files_per_op": 10, "bytes_per_op": 2**20}
             for k in "abc"}
    return {"kinds": kinds, "throughput_ops": 120, "throughput_s": 20,
            "peak_rss_kib": 2048, "setup_s": [0.2, 0.1, 0.3]}


class MetricTableTest(unittest.TestCase):
    def test_every_end_to_end_metric_has_unit_direction_and_count(self):
        metrics = perfstats.end_to_end("tree_10k", fake_raw())
        self.assertEqual(set(metrics), set(perfstats.END_TO_END))
        for name, m in metrics.items():
            unit, better, bound, what = perfstats.END_TO_END[name]
            self.assertEqual(m["unit"], unit)
            self.assertIn(better, ("lower", "higher"))
            self.assertTrue(0 < bound <= 0.25, name)
            self.assertTrue(what)
            self.assertGreaterEqual(m["samples"], 1, name)
            self.assertGreater(m["value"], 0, name)
        self.assertEqual(metrics["setup_s"]["value"], 0.2)
        self.assertEqual(metrics["a_tail_ms"]["percentile"], 75)
        self.assertEqual(metrics["a_tail_ms"]["value"], 300)
        self.assertEqual(metrics["a_ms"]["percentile"], 50)
        self.assertEqual(metrics["a_ms"]["value"], 200)

    def test_centers_are_fixed_per_workload_and_kind(self):
        for workload in perfstats.WORKLOADS:
            self.assertEqual(set(perfstats.CENTERS[workload]), set("abc"), workload)
        metrics = perfstats.end_to_end("warm_dir", fake_raw())
        for k, pct in (("a", 10), ("b", 50), ("c", 10)):
            self.assertEqual(metrics[k + "_ms"]["percentile"], pct)
            self.assertEqual(metrics[k + "_ms"]["value"], 4 * pct)  # of 1..400
        self.assertEqual(perfstats.percentile([5.0], 10), 5.0)
        with self.assertRaises(ValueError):
            perfstats.percentile([], 50)

    def test_workload_names_map_onto_measured_metrics(self):
        for workload in perfstats.WORKLOADS:
            raw = fake_raw()
            named = perfstats.aliases(workload, perfstats.end_to_end(workload, raw), raw)
            for name, m in named.items():
                self.assertTrue(m["unit"] and m["samples"] >= 1, name)
                self.assertGreater(m["value"], 0, name)
        self.assertEqual(named["full_p50_ms"]["value"], 200.5)  # median of 1..400
        for name, (workload, unit, how) in perfstats.ALIASES.items():
            self.assertIn(workload, perfstats.WORKLOADS)
            self.assertTrue(how in perfstats.END_TO_END or how[-1] in "abc", name)

    def test_every_per_layer_metric_has_unit_and_direction(self):
        for name, (unit, better) in perfstats.PER_LAYER.items():
            self.assertTrue(unit, name)
            self.assertIn(better, ("lower", "higher"), name)
        layers = perfstats.layers({"layers": {"analysis.walk.ms": 1.5}})
        self.assertEqual(set(layers), set(perfstats.PER_LAYER))
        self.assertEqual(layers["analysis.walk.ms"]["value"], 1.5)
        with self.assertRaises(KeyError):
            perfstats.layers({"layers": {"no.such.metric": 1}})

    def test_benchmark_json_matches_the_tables(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(perfstats.WORKLOADS))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]},
            {n: v[:3] for n, v in perfstats.END_TO_END.items()})
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
            perfstats.PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class CodeCheckTest(unittest.TestCase):
    def test_missing_code_and_loud_clean_file_are_reported(self):
        expect = {"/t/a.pnc": {"codes": ["PN001"], "clean": False},
                  "/t/b.pnc": {"codes": [], "clean": True}}
        body = json.dumps({
            "files": [{"file": "/t/a.pnc"}, {"file": "/t/b.pnc"}],
            "findings": [{"file": "/t/b.pnc", "code": "PN004", "severity": "warning"}]})
        problems = perfstats.check_codes(body, "json", expect, "/t/")
        self.assertEqual(len(problems), 2)
        good = json.dumps({
            "files": [{"file": "/t/a.pnc"}, {"file": "/t/b.pnc"}],
            "findings": [{"file": "/t/a.pnc", "code": "PN001", "severity": "error"},
                         {"file": "/t/b.pnc", "code": "PN007", "severity": "note"}]})
        self.assertEqual(perfstats.check_codes(good, "json", expect, "/t/"), [])


class CompareTest(unittest.TestCase):
    @staticmethod
    def result(seed, percentile=75, compiler="GNU 13.2.0", version="0.10.0"):
        return {"workload": "tree_10k", "trace": 0, "seed": seed,
                "input_digest": str(seed),
                "host": {"nproc": 4, "cpu_model": "cpu", "machine": "x86_64",
                         "build_type": "Release", "compiler": compiler,
                         "work_filesystem": "ext4",
                         "tool_versions": {"pncd": version}},
                "metrics": {"a_tail_ms": {"value": 2.0, "unit": "ms",
                                          "percentile": percentile}}}

    def compare(self, parent, change):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            for d, results in ((a, parent), (b, change)):
                for r in results:
                    with open(os.path.join(d, f"{r['seed']}.json"), "w") as f:
                        json.dump(r, f)
            return subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                                   a, b], capture_output=True, text=True).returncode

    def test_tool_versions_may_differ(self):
        parent = [self.result(1), self.result(2)]
        change = [self.result(1, version="0.11.0"), self.result(2, version="0.11.0")]
        self.assertEqual(self.compare(parent, change), 0)

    def test_refuses_another_machine_or_build(self):
        parent = [self.result(1), self.result(2)]
        change = [self.result(1, compiler="Clang 18"), self.result(2, compiler="Clang 18")]
        self.assertEqual(self.compare(parent, change), 2)

    def test_refuses_tails_at_different_percentiles(self):
        parent = [self.result(1), self.result(2)]
        change = [self.result(1, percentile=80), self.result(2, percentile=80)]
        self.assertEqual(self.compare(parent, change), 2)


class RefusalTest(unittest.TestCase):
    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                  "warm_dir", "--seed", "1", "--seconds", "1",
                                  "--trace", "0"], cwd=d, capture_output=True,
                                 text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


class SmokeTest(unittest.TestCase):
    # Seconds per trace mode.  Untraced runs must be long enough to leave
    # ten samples beyond each fixed tail percentile; traced runs report no
    # tails and can be short.
    SECONDS = {"cold_cli": ("20", "4"), "warm_dir": ("4", "2"),
               "tree_10k": ("20", "8")}

    def test_every_workload_runs_clean(self):
        for workload in perfstats.WORKLOADS:
            for trace in ("0", "1"):
                out = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                     workload, "--seed", "5", "--seconds",
                     self.SECONDS[workload][int(trace)], "--trace", trace],
                    cwd=ROOT, capture_output=True, text=True, timeout=600)
                self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertTrue(result["correct"], (workload, trace, out.stderr[-2000:]))
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                want = perfstats.PER_LAYER if trace == "1" else perfstats.END_TO_END
                self.assertEqual(set(result["metrics"]), set(want))
                self.assertIn("failed_ops_pct = 0 %", out.stdout)


if __name__ == "__main__":
    unittest.main()
