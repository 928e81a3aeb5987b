"""Self-tests of the benchmark harness (not part of the repository's test suite).

    python3 perfbench/selftest.py

Checks the self-time arithmetic on synthetic spans, the correctness gate,
the child environment, and a smoke run of a shrunken workload that must emit
every metric named in BENCHMARK.json and trace every wrapped function.
"""

import json
import os
import tempfile
import unittest
from pathlib import Path

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ["a", 0.0, 10.0, -1],
            ["b", 1.0, 4.0, 0],
            ["c", 2.0, 3.0, 1],
            ["b", 5.0, 6.5, 0],
            ["c", 11.0, 12.0, -1],
        ]
        got = tracer.self_times(spans)
        self.assertAlmostEqual(got["a"], 10.0 - 3.0 - 1.5)
        self.assertAlmostEqual(got["b"], (3.0 - 1.0) + 1.5)
        self.assertAlmostEqual(got["c"], 2.0)
        self.assertAlmostEqual(sum(got.values()), 11.0)


class GateTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(dir=run.ROOT)
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def test_usage_error_counts_as_failed(self):
        runner = run.Runner(self.tmp)
        argv = ["zero-count", "--p", "4", "--vars", "3", "--degree", "3", "--trials", "2",
                "--seed", "1"]
        rec = runner.command("bad", argv, False)
        self.assertEqual(rec["exit"], 1)
        self.assertEqual(runner.failed, 1)

    def test_digest_mismatch_counts_as_failed(self):
        argv = ["indep-set", "--n", "30", "--m", "40", "--k", "3", "--seed", "3"]
        runner = run.Runner(self.tmp)
        rec = runner.command("ok", argv, False)
        self.assertEqual(runner.failed, 0)
        digest = run.report_digest(rec["report"])
        good = run.Runner(self.tmp, {"ok": {"exit": 0, "digest": digest}})
        good.command("ok", argv, False)
        self.assertEqual(good.failed, 0)
        bad = run.Runner(self.tmp, {"ok": {"exit": 0, "digest": "0" * 64}})
        bad.command("ok", argv, False)
        self.assertEqual(bad.failed, 1)

    def test_digest_ignores_timing_and_config(self):
        body = {"achieved": {"x": 1}, "timing": {"wall_s": 1.0}, "config": {"output": "a"}}
        other = dict(body, timing={"wall_s": 2.0}, config={"output": "b"})
        self.assertEqual(run.report_digest(body), run.report_digest(other))
        self.assertNotEqual(run.report_digest(body), run.report_digest(dict(body, achieved={})))

    def test_child_env_is_hermetic(self):
        os.environ["FFIL_CACHE_DIR"] = str(self.tmp)
        try:
            env = run.child_env()
        finally:
            del os.environ["FFIL_CACHE_DIR"]
        self.assertNotIn("FFIL_CACHE_DIR", env)
        for var in run.BLAS_VARS:
            self.assertEqual(env[var], run.BLAS_THREADS)

    def test_inputs_repeat_for_a_seed(self):
        a, b = self.tmp / "a", self.tmp / "b"
        a.mkdir()
        b.mkdir()
        self.assertEqual(workloads.commands("pattern-enum", a, 7),
                         [(lbl, [x.replace(str(b), str(a)) for x in argv])
                          for lbl, argv in workloads.commands("pattern-enum", b, 7)])
        for name in ("fixture.txt", "sets.json"):
            self.assertEqual((a / name).read_text(), (b / name).read_text())


class SmokeTest(unittest.TestCase):
    def test_shrunken_workload_emits_every_metric(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            tmp = Path(tmp)
            cmds = workloads.commands("smoke", tmp, 1)
            runner = run.Runner(tmp)
            e2e, _ = run.measure(cmds, 0, False, runner)
            layers, _ = run.measure(cmds, 0, True, runner)
            self.assertEqual(runner.problems, [])
        self.assertEqual(sorted(e2e), sorted(m["name"] for m in SPEC["end_to_end"]))
        self.assertEqual(list(layers), [m["name"] for m in SPEC["per_layer"]])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertEqual(run.unit_of(m["name"]), m["unit"], m["name"])
        for name, val in layers.items():
            if name.endswith(".self_s"):
                self.assertGreater(val, 0, f"{name}: wrapped function never traced")
        self.assertTrue(all(v > 0 for v in e2e.values()))


if __name__ == "__main__":
    unittest.main()
