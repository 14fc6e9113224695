"""Tests of the benchmark itself (not of the package).

Run from the repository root:

    python3 -m unittest discover -s perfbench -t perfbench
"""

import os
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as w  # noqa: E402

SMALL = [("pair(2)", "scaled", None), ("bundle(V4,Z2,Z1,Z1)", "quaternion", None),
         ("action(Z3 on 3+1 points)", "sign", (3, 5, 7)), ("pair(3)+group(V4)", "scaled", 5)]


def texts(cases):
    return [gen.case_text(c) for c in cases]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for schedule, modules in ((w.PIPELINE_Q, False), (w.PIPELINE_GFP, False),
                                  (w.CLI_FILES, True)):
            first = texts(gen.generate(schedule, 7, "x", modules))
            self.assertEqual(first, texts(gen.generate(schedule, 7, "x", modules)))

    def test_another_seed_gives_other_inputs(self):
        for schedule, modules in ((w.PIPELINE_Q, False), (w.PIPELINE_GFP, False),
                                  (w.CLI_FILES, True)):
            self.assertNotEqual(texts(gen.generate(schedule, 7, "x", modules)),
                                texts(gen.generate(schedule, 8, "x", modules)))

    def test_every_family_twist_and_field_is_generated(self):
        cases = [c for sched in (w.PIPELINE_Q, w.PIPELINE_GFP, w.CLI_FILES)
                 for c in gen.generate(sched, 3, "x")]
        names = {c["name"].split("(")[0] for c in cases}
        self.assertTrue({"pair", "action", "bundle"} <= names)
        self.assertTrue(any("+" in c["name"] for c in cases))
        self.assertEqual({c["twist"] for c in cases}, set(gen.TWISTS))
        self.assertEqual({c["p"] for c in cases}, {None, 2, 3, 5, 7})

    def test_problem_files_round_trip(self):
        with tempfile.TemporaryDirectory() as tmp:
            for i, case in enumerate(gen.generate(w.CLI_FILES, 5, "x", modules=True)):
                w.write_problem(case, w.problem_path(tmp, i))  # raises on a mismatch

    def test_generated_cases_pass_the_pipeline_checks(self):
        for case in gen.generate(SMALL, 1, "x"):
            w.pipeline_op(case)


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.case = gen.generate([("pair(3)", "sign", None)], 2, "x", modules=True)[0]

    def test_rejects_a_corrupted_dimension(self):
        bad = dict(self.case, orbits=[(orbit, iso + 1) for orbit, iso in self.case["orbits"]])
        with self.assertRaises(w.CheckFailed):
            w.pipeline_op(bad)

    def test_rejects_a_corrupted_report(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = w.problem_path(tmp, 0)
            w.write_problem(self.case, path)
            text = w.cli_op(self.case, path, "algebra", [])
            with self.assertRaises(w.CheckFailed):
                w.check_report(self.case, "algebra", 0, text.replace("dim B: 9", "dim B: 8"))
            with self.assertRaises(w.CheckFailed):
                w.check_report(self.case, "algebra", 0, text.replace(": PASS", ": FAIL", 1))
            with self.assertRaises(w.CheckFailed):
                w.check_report(self.case, "algebra", 1, text)

    def test_pair_groupoid_has_two_ideals(self):
        case = gen.generate([("pair(2)", "trivial", 3)], 2, "x", modules=True)[0]
        with tempfile.TemporaryDirectory() as tmp:
            path = w.problem_path(tmp, 0)
            w.write_problem(case, path)
            text = w.cli_op(case, path, "ideals", [])
            with self.assertRaises(w.CheckFailed):
                w.check_report(case, "ideals", 0, text.replace("ideal count: 2", "ideal count: 3"))


class LimitTest(unittest.TestCase):
    def test_op_stopped_at_the_limit_counts_as_failed(self):
        def spin():
            while True:
                time.sleep(0.01)

        ops = [run.Op("quick", lambda: 1, None), run.Op("spin", spin, None)]
        saved = run.OP_LIMIT_S
        run.OP_LIMIT_S = 0.2
        try:
            p = run.run_pass(ops)
        finally:
            run.OP_LIMIT_S = saved
        attempted, failed, lines, digest = run.outcome(ops, [p])
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("limit", lines[0])
        self.assertIsNone(digest)
        self.assertLess(p.times[1], 5)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_the_metrics_the_runner_prints(self):
        import json

        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         {"wall_s", "op_s_p50", "op_s_p90", "setup_s", "peak_rss_mb"})
        layer = {name: unit for name, (_, unit) in tracing.Tracer().layer_metrics(1).items()}
        layer.update({"isotropy.inclusion_peak_kb": "KB", "trace.overhead": "ratio"})
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, layer)


class TracerTest(unittest.TestCase):
    def test_self_times_add_up_and_names_are_restored(self):
        from groupoidalg import linalg

        original = linalg.rref
        t = tracing.Tracer()
        t.install(extra_namespaces=[w])
        try:
            self.assertIsNot(linalg.rref, original)
            start = time.perf_counter()
            w.pipeline_op(gen.generate([("pair(3)", "scaled", None)], 1, "x")[0])
            total = time.perf_counter() - start
        finally:
            t.uninstall()
        self.assertIs(linalg.rref, original)
        metrics = t.layer_metrics(1)
        self.assertGreater(metrics["linalg.rref_calls"][0], 0)
        self.assertGreater(metrics["isotropy.inclusion_s"][0], 0)
        self.assertLessEqual(t.total_self_s(), total)
        for index, start, end, parent, op, raised in t.spans:
            self.assertLessEqual(start, end)
            if parent >= 0:
                p = t.spans[parent]
                self.assertTrue(p[1] <= start and end <= p[2])

    def test_coverage_check_fails_on_package_work_outside_spans(self):
        from groupoidalg import linalg

        case = gen.generate([("pair(2)", "scaled", None)], 1, "x")[0]

        def slow_unwrapped_step():
            time.sleep(0.05)  # stands in for package work no span covers
            return linalg.rref([[1, 2], [3, 4]], linalg.QQ)

        ops = [run.Op("pipeline", lambda: w.pipeline_op(case), case),
               run.Op("unwrapped", slow_unwrapped_step, None)]
        t = tracing.Tracer()
        t.install(extra_namespaces=[w])
        try:
            p = run.run_pass(ops, tracer=t)
        finally:
            t.uninstall()
        self.assertEqual(p.failures, [])
        first, second = run.Pass(), run.Pass()
        first.covered, second.covered = p.covered[:1], p.covered
        self.assertGreaterEqual(run.coverage([first]), run.MIN_COVERAGE)
        self.assertLess(run.coverage([first, second]), run.MIN_COVERAGE)


if __name__ == "__main__":
    unittest.main()
