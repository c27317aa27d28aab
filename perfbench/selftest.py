"""Self-tests of the benchmark itself, about 90 s:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
import unittest
from pathlib import Path
from time import perf_counter

import run
import workloads
from tracing import COUNT_UNITS, PER_LAYER


def verdicts(detail) -> dict:
    return {name: (case["answer"], case["nodes"]) for name, case in detail["cases"].items()}


class CheckTest(unittest.TestCase):
    """A wrong answer is counted as a failed verdict."""

    @classmethod
    def setUpClass(cls):
        cls.lab = run.import_lab()

    def test_flipped_map_entry_fails(self):
        F, G = self.lab.families, self.lab.graphs
        g = F.stable_kneser(11, 2, 5)
        square = G.cartesian_product(g, g)
        case = workloads.certified_hom_case(self.lab, "square", square, g)
        answer = case.run()
        self.assertEqual(case.check(answer).failed, 0)
        mapping = answer[1]["map"]
        u, v = next(square.edges())
        mapping[v] = mapping[u]
        self.assertEqual(case.check(answer).failed, 1)

    def test_improper_colouring_fails(self):
        case = workloads.chi_case(self.lab, "kneser:n=9,k=2")
        result = case.run()
        self.assertEqual(case.check(result).failed, 0)
        g = self.lab.families.kneser(9, 2)
        u, v = next(g.edges())
        colors = list(result.coloring)
        colors[v] = colors[u]
        bad = type(result)(result.chi, tuple(colors), result.clique, result.nodes)
        self.assertEqual(case.check(bad).failed, 1)

    def test_exception_fails_every_owed_verdict(self):
        case = workloads.Case("suite x", lambda: None, lambda answer: None, units=13)
        verdict = case.raised(RuntimeError("boom"))
        self.assertEqual((verdict.units, verdict.decided, verdict.failed), (13, 0, 13))


class ReferenceClockTest(unittest.TestCase):
    def test_span_drops_samples_and_scales_by_their_median(self):
        clock = run.ReferenceClock()
        clock.samples = [0.002, 0.004, 0.002]
        begin = (1, 0.002, 10.0)
        end = (3, 0.008, 12.0)
        measured, scaled = clock.span(begin, end)
        self.assertAlmostEqual(measured, 2.0 - 0.006)
        self.assertAlmostEqual(scaled, measured * run.SLICE_S / 0.002)

    def test_samples_arrive_while_active(self):
        with run.ReferenceClock() as clock:
            end = perf_counter() + 0.5
            while perf_counter() < end:
                run.reference_work()
        self.assertGreater(len(clock.samples), 3)


class TracedCountsTest(unittest.TestCase):
    def test_only_counts_must_repeat_across_traced_iterations(self):
        first = dict.fromkeys(PER_LAYER, 1)
        slower = {name: 1 if unit in COUNT_UNITS else 2 for name, unit in PER_LAYER.items()}
        self.assertEqual(run.changed_counts([first, slower]), [])
        more = dict(first, **{"homsolver.search_nodes": 2})
        self.assertEqual(run.changed_counts([first, more]),
                         ["homsolver.search_nodes changed between traced iterations"])


class DeterminismTest(unittest.TestCase):
    """Verdicts and node counts depend neither on the seed nor on tracing."""

    @classmethod
    def setUpClass(cls):
        # A budget left unset would read this and exhaust at once.
        os.environ["KNESER_LAB_BUDGET"] = "1,0.001"
        cls.plain = {w: run.measure(w, 1, 0, trace=False) for w in workloads.WORKLOADS}
        cls.traced = {w: run.measure(w, 2, 0, trace=True) for w in workloads.WORKLOADS}

    def test_every_verdict_checks_out(self):
        for w, report in self.plain.items():
            with self.subTest(workload=w):
                self.assertEqual(report["detail"]["errors"], [])
                self.assertTrue(report["result"]["correct"])
                self.assertEqual(report["result"]["failed"], 0)

    def test_seed_permutes_order_only(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                a, b = self.plain[w]["detail"], self.traced[w]["detail"]
                self.assertNotEqual(a["order"], b["order"])
                self.assertEqual(verdicts(a), verdicts(b))

    def test_traced_iterations_match_untraced(self):
        for w, report in self.traced.items():
            with self.subTest(workload=w):
                self.assertEqual(report["detail"]["traced"], [True, False])
                self.assertEqual(report["detail"]["errors"], [])
                self.assertEqual(set(report["result"]["metrics"]), set(PER_LAYER))

    def test_expected_decided_ratios(self):
        expected = {"verify-all": 1, "hom-refute": 7 / 8, "hom-find": 1, "chi-exact": 10 / 11}
        for w, ratio in expected.items():
            metrics = self.plain[w]["result"]["metrics"]
            self.assertAlmostEqual(metrics["decided_ratio"]["value"], ratio)
            self.assertEqual(metrics["correct_ratio"]["value"], 1)


class FilesTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_prints(self):
        spec = json.loads((run.SRC.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER)

    def test_compare_flags_nodes_and_names_the_layer(self):
        def result(nodes, search_s):
            layer = {name: {"value": 0.5, "unit": unit} for name, unit in PER_LAYER.items()}
            layer["homsolver.search_s"]["value"] = search_s
            layer["homsolver.search_nodes"]["value"] = nodes
            return {"workloads": {"hom-refute": {
                "end_to_end": {"wall_s": {"value": 2.0 * search_s, "unit": "s"}},
                "per_layer": layer,
                "cases": {"square": {"answer": "none", "nodes": nodes}},
            }}}

        with tempfile.TemporaryDirectory() as tmp:
            old, new = Path(tmp, "old.json"), Path(tmp, "new.json")
            old.write_text(json.dumps(result(100, 1.0)))
            new.write_text(json.dumps(result(90, 3.0)))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run.compare(str(old), str(new))
        text = out.getvalue()
        self.assertIn("NODES CHANGED square: old 100", text)
        self.assertIn("homsolver.search_nodes", text)
        self.assertIn("COUNT CHANGED", text)
        self.assertIn("self time moved most: homsolver.search_s +2", text)
        self.assertIn("new/old    3.000", text)


if __name__ == "__main__":
    unittest.main()
