"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They take about a minute and a half.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, import_mmpwalk  # noqa: E402

import_mmpwalk()

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def built(name, seed):
    workload = workloads.WORKLOADS[name](seed)
    workload.setup()
    return workload


def first_ops(workload, chunks):
    return [op for chunk in itertools.islice(workload.chunks(), chunks) for op in chunk]


def described(ops):
    return "\n".join(repr((op.kind, op.args)) for op in ops).encode("utf-8")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class InputsTest(unittest.TestCase):
    def test_a_seed_regenerates_byte_identical_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = described(first_ops(built(name, 7), 3))
                self.assertEqual(first, described(first_ops(built(name, 7), 3)))
                self.assertNotEqual(first, described(first_ops(built(name, 8), 3)))


class RunCountTest(unittest.TestCase):
    def test_a_run_is_whole_rounds_fixed_by_its_seconds(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                workload = built(name, 1)
                count = bench.run_count(workload, 15)
                self.assertEqual(count % workload.ROUND_OPS, 0)
                self.assertGreaterEqual(count * workload.ROUND_S / workload.ROUND_OPS, 15)
        self.assertEqual(bench.run_count(built("levels", 1), 15), 2 * 1828)
        self.assertEqual(bench.run_count(built("check", 1), 15), 18)


class TraceTest(unittest.TestCase):
    def test_traced_run_matches_untraced_and_leaves_no_wrappers(self):
        modules = {name: dict(vars(module)) for name, module in sys.modules.items()
                   if name == "mmpwalk" or name.startswith("mmpwalk.")}
        # two chunks each, except check, whose first document alone takes ~5 s
        for name, count in (("decompose", 4), ("orders", 4), ("levels", 64), ("check", 1)):
            with self.subTest(workload=name):
                workload = built(name, 3)
                plain = bench.run_pass(workload, count=count, keep_outputs=True)
                tracer = Tracer()
                tracer.install()
                try:
                    traced = bench.run_pass(workload, count=count, tracer=tracer,
                                            keep_outputs=True)
                finally:
                    tracer.uninstall()
                bench.check_outputs(workload, plain)
                self.assertEqual(plain.failed, {})
                self.assertEqual(traced.failed, {})
                self.assertEqual(len(plain.outputs), count)
                self.assertEqual(plain.outputs, traced.outputs)
                self.assertTrue(tracer.spans)
                self.assertTrue(all(span[4] is not None for span in tracer.spans))
        for name, attributes in modules.items():
            module = sys.modules[name]
            for key, value in attributes.items():
                self.assertIs(getattr(module, key), value, f"{name}.{key} still wrapped")


class ReferenceTest(unittest.TestCase):
    def test_corrupted_reference_and_wrong_output_are_caught(self):
        with open(bench.REFERENCE, encoding="utf-8") as fh:
            expected = json.load(fh)["digests"]["orders"]
        workload = built("orders", bench.DEFAULT_SEED)
        size = workload.GROUPS_PER_CHUNK
        result = bench.run_pass(workload, count=3 * size)
        self.assertEqual(result.failed, {})
        self.assertEqual(bench.reference_failures(result, expected), ({}, 3))

        corrupted = list(expected)
        corrupted[1] = "0" * 16
        failed, _ = bench.reference_failures(result, corrupted)
        self.assertEqual(sorted(failed), list(range(size, 2 * size)))

        ops = first_ops(workload, 1)
        outputs = [op.fn(*op.args) for op in ops]
        self.assertEqual(workload.verify(ops, outputs), {})
        first, _, rest = outputs[0].partition(" ")
        outputs[0] = f"{-1 - int(first.split('/')[0])} {rest}"
        self.assertIn(0, workload.verify(ops, outputs))
        self.assertNotEqual(bench.digest(outputs), expected[0])


class CommandTest(unittest.TestCase):
    def run_benchmark(self, cwd, trace):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "orders", "--seed", "2",
             "--seconds", "1", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_last_line_reports_the_declared_metrics(self):
        spec = benchmark_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                done = self.run_benchmark(ROOT, trace)
                self.assertEqual(done.returncode, 0, done.stderr)
                result = json.loads(done.stdout.splitlines()[-1])
                self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertEqual(sorted(result["metrics"]),
                                 sorted(m["name"] for m in spec[key]))
                units = {m["name"]: m["unit"] for m in spec[key]}
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], units[name], name)

    def test_fails_without_the_package(self):
        bare = os.path.join(HERE, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            done = self.run_benchmark(bare, 0)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
