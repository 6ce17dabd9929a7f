"""The benchmark's own tests: the percentile helper (C++ unit test), the
BENCHMARK.json contract, and a short smoke run of every workload in both
modes whose result line must carry exactly the names BENCHMARK.json lists.

    python3 avdbench/run.py test
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (the module under test)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SECONDS = "2"


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BuildOnce(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()


class PercentileTest(BuildOnce):
    def test_percentile_helper(self):
        binary = os.path.join(run.BUILD_DIR, "avdbench_stats_test")
        proc = subprocess.run([binary], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        bench = load()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        self.assertEqual(bench["paths"], ["avdbench"])
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


class SmokeTest(BuildOnce):
    def smoke(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", "11",
             "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=180)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        bench = load()
        spec = bench["per_layer"] if trace else bench["end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in spec))
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        return result

    def test_day_dusk_640(self):
        for trace in (0, 1):
            self.smoke("day_dusk_640", trace)

    def test_night_1080(self):
        for trace in (0, 1):
            self.smoke("night_1080", trace)

    def test_adaptive_serve(self):
        for trace in (0, 1):
            self.smoke("adaptive_serve", trace)


class CompareTest(unittest.TestCase):
    def test_refuses_other_hosts(self):
        import tempfile
        base = {"workload": "day_dusk_640", "trace": 0,
                "host": {"nproc": 4, "cpu_model": "A", "llc": "L3 1K",
                         "compiler": "GNU 12", "build_type": "Release",
                         "seed": 1},
                "metrics": {"frame_ms_p50": {"value": 10.0, "unit": "ms"}}}
        other = json.loads(json.dumps(base))
        other["host"]["cpu_model"] = "B"
        os.makedirs(run.BUILD_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as tmp:
            a, b = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
            for path, doc in ((a, base), (b, other)):
                with open(path, "w") as f:
                    json.dump(doc, f)
            proc = subprocess.run([sys.executable, RUN, "compare", a, b],
                                  capture_output=True, text=True, cwd=ROOT)
            self.assertEqual(proc.returncode, 2)
            self.assertIn("different hosts", proc.stdout)
            same = subprocess.run([sys.executable, RUN, "compare", a, a],
                                  capture_output=True, text=True, cwd=ROOT)
            self.assertEqual(same.returncode, 0, same.stdout)
            self.assertIn("frame_ms_p50", same.stdout)


if __name__ == "__main__":
    unittest.main()
