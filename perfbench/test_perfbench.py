"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from workloads import Job, Run  # noqa: E402

SMALL = workloads.WARM_UP_FAMILY


class HarnessCase(unittest.TestCase):
    def setUp(self):
        self.mods = bench.import_package()
        self.tmp = tempfile.TemporaryDirectory()
        self.work = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()


class MetricNames(HarnessCase):
    def test_specs_match_benchmark_json(self):
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(bench.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(bench.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_emitted_names_equal_the_specs(self):
        with mock.patch.object(workloads, "LADDER", (SMALL,)), \
                mock.patch.object(bench, "WORK", self.work):
            for trace, spec in ((False, bench.END_TO_END),
                                (True, bench.PER_LAYER)):
                report = bench.run_workload("construct-large", 3, 0, trace)
                self.assertTrue(report["correct"], report["failures"])
                self.assertEqual(
                    [(k, v["unit"]) for k, v in report["metrics"].items()],
                    list(spec))
                self.assertTrue(all(isinstance(v["value"], float)
                                    for v in report["metrics"].values()))
                if not trace:
                    self.assertAlmostEqual(
                        report["metrics"]["pass_s"]["value"],
                        report["unscaled_pass_s"] * report["speed"])
        self.assertEqual(report["metrics"]["surgery.traces_per_handle"]
                         ["value"], 2.0)


class FailedOperations(HarnessCase):
    def embed(self, run, expected=None):
        if expected is None:
            expected = SMALL.euler_genus()
        workloads.embed_and_verify(self.mods, SMALL, expected, self.work,
                                   run, True)

    def test_clean_pass(self):
        run = Run()
        self.embed(run)
        self.assertEqual((run.attempted, run.failed), (2, 0), run.failures)

    def test_wrong_expected_genus_fails_the_embed(self):
        run = Run()
        self.embed(run, expected=SMALL.euler_genus() + 1)
        self.assertEqual((run.attempted, run.failed), (2, 1))
        self.assertIn("embed", run.failures[0])

    def test_wrong_closed_form_fails_the_embed(self):
        fam = workloads.Family(SMALL.expr, SMALL.factors,
                               ("main_cycles_genus", (1, 2, [3])))
        run = Run()
        workloads.embed_and_verify(self.mods, fam, fam.euler_genus(),
                                   self.work, run, True)
        self.assertEqual(run.failed, 1)
        self.assertIn("closed form", run.failures[0])

    def test_corrupted_certificate_fails_verify(self):
        run = Run()
        self.embed(run)
        path = self.work / SMALL.slug / "certificate.json"
        cert = json.loads(path.read_text())
        cert["genus"] += 1
        path.write_text(json.dumps(cert))
        workloads.attempt(
            run, "verify", "verify",
            lambda: workloads.run_cli(self.mods, "verify",
                                      str(path.parent)),
            workloads.check_verify)
        self.assertEqual(run.failed, 1)

    def test_changed_artifact_fails_the_determinism_check(self):
        first = Run()
        self.embed(first)
        key = f"{SMALL.expr}/handles.json"
        tampered = dict(first.digests, **{key: "0" * 64})
        second = Run(tampered)
        self.embed(second)
        self.assertEqual(second.failed, 1)
        self.assertIn("differs", second.failures[0])

    def test_oracle_wrong_minimum_fails(self):
        k5 = workloads.complete_graph(self.mods.graphs, 5)
        run = Run()
        workloads.run_job(self.mods, Job("K5", k5, True, expected=1), 0, run)
        workloads.run_job(self.mods, Job("K5", k5, True, expected=0), 0, run)
        self.assertEqual((run.attempted, run.failed), (2, 1))

    def test_stochastic_target_missed_fails(self):
        graph = self.mods.graphs.build_family("K(4,4) x C(4)")
        run = Run()
        workloads.run_job(self.mods, Job("tiny budget", graph, False,
                                         target=9, budget=50), 5, run)
        self.assertEqual(run.failed, 1)
        self.assertIn("misses target", run.failures[0])

    def test_failed_selftest_criterion_fails(self):
        outcomes = [SimpleNamespace(number=k, passed=k != 4, details={},
                                    elapsed=0.0) for k in range(1, 10)]
        problem = workloads.check_selftest(outcomes, self.work, 0, Run())
        self.assertIn("8/9", problem)

    def test_exception_is_a_failed_operation(self):
        run = Run()

        def boom():
            raise RuntimeError("boom")

        workloads.attempt(run, "x", "x", boom, lambda _: None)
        self.assertEqual((run.attempted, run.failed), (1, 1))


class Tracing(HarnessCase):
    def test_every_binding_is_wrapped_and_restored(self):
        original = self.mods.embeddings.trace_faces
        tracer = Tracer()
        restore = tracer.install()
        try:
            for mod in (self.mods.embeddings, self.mods.constructions,
                        self.mods.surgery, self.mods.oracle, self.mods.cli,
                        self.mods.selftest):
                self.assertIsNot(mod.trace_faces, original)
            self.mods.constructions.embed_K2r2r(2)
        finally:
            restore()
        self.assertIs(self.mods.constructions.trace_faces, original)
        self.assertGreater(tracer.calls("embeddings.trace_faces"), 0)
        self.assertGreater(tracer.counter("embeddings.darts"), 0)

    def test_missing_target_is_reported_absent(self):
        tracer = Tracer()
        restore = tracer.install((Target("cli", "cli", "no_such_function"),
                                  Target("x", "no_such_module", "f")))
        restore()
        self.assertEqual(tracer.absent, ["cli.no_such_function", "x.f"])

    def test_self_time_excludes_wrapped_children(self):
        tracer = Tracer()
        restore = tracer.install()
        try:
            self.mods.constructions.embed_cube(2, 1)
        finally:
            restore()
        total = tracer.total_s("constructions.embed_cube")
        layers = sum(tracer.layer_self_s(layer) for layer in
                     ("graphs", "embeddings", "surgery", "constructions"))
        self.assertAlmostEqual(total, layers, delta=1e-3)


class Summaries(unittest.TestCase):
    def test_tail_percentile_has_ten_samples_beyond(self):
        s = bench.summarize([float(x) for x in range(100)])
        self.assertEqual(s["tail"], {"percentile": 90, "value": 89.0})
        self.assertIsNone(bench.summarize([1.0] * 10)["tail"])


if __name__ == "__main__":
    unittest.main()
