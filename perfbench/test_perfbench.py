#!/usr/bin/env python3
"""The benchmark's own tests, at a tiny input size (a few seconds in all,
plus the first build).

    python3 perfbench/test_perfbench.py

Run from the repository root.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bcast", "churn", "topics")
SPANS = ("setup.construct", "setup.bootstrap", "churn.arm", "run",
         "core.publish", "membership.spawn", "workload.kill",
         "workload.population", "analysis.collect")


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.splitlines()
    outcome = next(json.loads(line[len("outcome "):]) for line in lines
                   if line.startswith("outcome "))
    provenance = next(json.loads(line[len("provenance "):]) for line in lines
                      if line.startswith("provenance "))
    unlisted = next((json.loads(line[len("unlisted "):]) for line in lines
                     if line.startswith("unlisted ")), {})
    return json.loads(lines[-1]), outcome, provenance, unlisted


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def assert_metrics(self, result, key):
        expected = {m["name"]: m["unit"] for m in self.spec[key]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_metric_prints_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, outcome, provenance, _ = run(workload, 1, trace)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["attempted"],
                                     outcome["obligations"])
                    self.assertEqual(result["failed"], outcome["failed"])
                    self.assert_metrics(result, key)
                    for field in ("nproc", "git", "compiler", "build_type",
                                  "source_sha256"):
                        self.assertIn(field, provenance)

    def test_simulated_outcome_repeats_for_a_seed_and_differs_across(self):
        simulated = ("reliability", "delivery_p50_ms", "delivery_p99_ms",
                     "dup_per_delivery", "wire_bytes_per_delivery")
        first, first_outcome, _, _ = run("bcast", 7, 0)
        again, again_outcome, _, _ = run("bcast", 7, 0)
        _, other_outcome, _, _ = run("bcast", 8, 0)
        self.assertEqual(first_outcome["fingerprint"],
                         again_outcome["fingerprint"])
        for name in simulated:
            self.assertEqual(first["metrics"][name], again["metrics"][name])
        self.assertNotEqual(first_outcome["fingerprint"],
                            other_outcome["fingerprint"])

    def test_traced_run_writes_every_boundary(self):
        result, _, _, unlisted = run("churn", 3, 1)
        path = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"),
                            "perfbench", "traces", "churn-seed3.json")
        with open(path) as f:
            spans = json.load(f)
        self.assertEqual({s["name"] for s in spans}, set(SPANS))
        ids = {s["id"] for s in spans}
        for span in spans:
            self.assertLessEqual(span["start_s"], span["end_s"])
            self.assertTrue(span["parent"] == -1 or span["parent"] in ids)
        metrics = result["metrics"]
        self.assertGreater(metrics["sim.run_self_s"]["value"], 0)
        self.assertEqual(metrics["sim.run_self_s"]["value"],
                         metrics["span.run.self_s"]["value"])
        # Churn hooks ran, and their spans' times come on the unlisted line.
        for name in ("span.churn.arm.self_s", "span.membership.spawn.self_s",
                     "span.workload.kill.self_s"):
            self.assertGreater(unlisted[name]["value"], 0, name)

    def test_bad_arguments_fail_without_a_result(self):
        for args in (["--workload", "nope"], ["--trace", "2"]):
            base = {"--workload": "bcast", "--seed": "1", "--seconds": "1",
                    "--trace": "0"}
            base.update(dict(zip(args[::2], args[1::2])))
            argv = [x for kv in base.items() for x in kv]
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py")] + argv,
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
