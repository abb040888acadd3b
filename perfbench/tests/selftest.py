"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/run.py --selftest

- the metric schema: BENCHMARK.json names exactly the metrics, with
  the units, that `perfbench --list-metrics` prints;
- the span arithmetic: the perfbench_tests unit tests (GoogleTest);
- a smoke run of every workload, untraced and traced, on small
  campaigns with the correctness gate on: each must print a result
  line with every metric of its kind and zero failed operations.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
CHECKOUT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  pylint: disable=wrong-import-position

_cmake_dir = None


def cmake_dir():
    global _cmake_dir  # pylint: disable=global-statement
    if _cmake_dir is None:
        _cmake_dir = run.build(["perfbench", "perfbench_tests"])
    return _cmake_dir


def benchmark_json():
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def listed_metrics():
    out = subprocess.run([os.path.join(cmake_dir(), "perfbench"),
                          "--list-metrics"],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


class SchemaTest(unittest.TestCase):
    def test_benchmark_json_matches_the_binary(self):
        spec = benchmark_json()
        listed = listed_metrics()
        for kind, per_layer in (("end_to_end", False), ("per_layer", True)):
            expected = [(m["name"], m["unit"]) for m in listed
                        if m["per_layer"] == per_layer]
            declared = [(m["name"], m["unit"]) for m in spec[kind]]
            self.assertEqual(declared, expected, kind)

    def test_benchmark_json_shape(self):
        spec = benchmark_json()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        # run.py also runs workloads kept out of BENCHMARK.json by hand.
        for workload in spec["workloads"]:
            self.assertIn(workload["name"], run.WORKLOADS)
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertIn(metric["better"], ("lower", "higher"))
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        for metric in spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})


class SpanArithmeticTest(unittest.TestCase):
    def test_unit_tests_pass(self):
        subprocess.run([os.path.join(cmake_dir(), "perfbench_tests")],
                       check=True, stdout=sys.stderr)


class SmokeTest(unittest.TestCase):
    def check_workload(self, workload):
        spec = benchmark_json()
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            command = run.binary_command(cmake_dir(), workload, seed=5,
                                         seconds=1, trace=trace, smoke=True)
            code, out = run.run_binary(command)
            self.assertEqual(code, 0, "%s --trace %d" % (workload, trace))
            result = json.loads(out.strip().splitlines()[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            self.assertEqual(
                {name: m["unit"] for name, m in result["metrics"].items()},
                {m["name"]: m["unit"] for m in spec[kind]})
            if trace == 0:
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
            else:
                cover = result["metrics"]["target.phase_cover_frac"]["value"]
                self.assertGreater(cover, 0.95)

    def test_long_mission(self):
        self.check_workload("long_mission")

    def test_equiv_parallel(self):
        self.check_workload("equiv_parallel")

    def test_serve_stream(self):
        self.check_workload("serve_stream")


def main():
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
