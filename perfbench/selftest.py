"""Self-tests of the benchmark, at smoke sizes (G(2,4), Pieri at n = 2,
sigma1 on G(2,4)).  Run from the root of a checkout:

    python3 perfbench/selftest.py

Takes about twenty seconds.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    WORKLOADS = sorted(w["name"] for w in json.load(_fh)["workloads"])


def bench(workload, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def copy_checkout(tmp, with_src):
    """BENCHMARK.json and perfbench/ copied under tmp, and src/ linked if asked."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
    shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        os.symlink(os.path.join(ROOT, "src"), os.path.join(tmp, "src"))


def lines(proc):
    out = proc.stdout.strip().splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


class SmokeRuns(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.runs = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                proc = bench(workload, trace)
                if proc.returncode != 0:
                    raise AssertionError(f"{workload} trace {trace}: {proc.stderr}")
                cls.runs[workload, trace] = lines(proc)

    def test_every_metric_prints_with_its_unit(self):
        for (workload, trace), (record, result) in self.runs.items():
            expected = run.load_metric_units("per_layer" if trace else "end_to_end")
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
            for name, metric in result["metrics"].items():
                self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(result["correct"], (workload, trace))
            self.assertEqual(record["fail_ratio"], {"value": 0.0, "unit": "ratio"})
            self.assertEqual(record["seed"], 7)
            self.assertEqual(set(record["platform"]), {"python", "nproc", "cpu", "loadavg"})
            if not trace:
                for name in expected:
                    self.assertGreater(result["metrics"][name]["value"], 0, name)
                self.assertIn("op_tail_percentile", record)
                self.assertGreater(record["op_samples"], 0)

    def test_self_times_sum_to_the_traced_wall_time(self):
        for workload in WORKLOADS:
            record, result = self.runs[workload, 1]
            wall = result["metrics"]["trace.wall_s"]["value"]
            self.assertAlmostEqual(record["self_s_sum"], wall, delta=0.02 * wall + 1e-4)
            with open(os.path.join(ROOT, record["spans_file"]), encoding="utf-8") as fh:
                spans = json.load(fh)
            names = spans["names"]
            roots = [s for s in spans["spans"] if s[3] == -1]
            self.assertEqual([names[s[0]] for s in roots], ["bench.rep"])

    def test_dominant_layers_are_traced(self):
        metrics = {w: self.runs[w, 1][1]["metrics"] for w in WORKLOADS}
        self.assertGreater(metrics["table-g26"]["schur.expand.total_s"]["value"], 0)
        self.assertGreater(metrics["table-g26"]["cli.serialize.bytes"]["value"], 0)
        self.assertGreater(metrics["pieri-n4"]["schur.alternant.total_s"]["value"], 0)
        self.assertGreater(metrics["pieri-n4"]["poly.exact_div.calls"]["value"], 0)
        self.assertGreater(metrics["sigma1-g48"]["grass.certify.calls"]["value"], 0)
        self.assertGreater(metrics["sigma1-g48"]["wedge.gl_action.calls"]["value"], 0)


class HostNormalization(unittest.TestCase):

    def test_work_is_scaled_by_the_probes_around_it_and_probes_are_left_out(self):
        import rep
        probe = rep.HostProbe()
        nominal = rep.PROBE_NOMINAL_S
        # probes at [0, 1], [3, 4], [5, 6]: twice, four times, six times nominal
        probe.start, probe.end = [0.0, 3.0, 5.0], [1.0, 4.0, 6.0]
        probe.probe_s = [2 * nominal, 4 * nominal, 6 * nominal]
        norm, raw = probe.normalized(1.0, 5.0)
        self.assertAlmostEqual(raw, 3.0)
        self.assertAlmostEqual(norm, 2.0 / 3 + 1.0 / 5)
        norm, raw = probe.normalized(2.0, 4.5)
        self.assertAlmostEqual(raw, 1.5)
        self.assertAlmostEqual(norm, 1.0 / 3 + 0.5 / 5)


class Gates(unittest.TestCase):

    def test_corrupted_golden_digest_counts_as_failures(self):
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
            golden = json.load(fh)
        for entry in golden.values():
            entry["smoke"] = "0" * 64
        os.makedirs(OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            copy_checkout(tmp, with_src=True)
            with open(os.path.join(tmp, "perfbench", "golden.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(golden, fh)
            for workload in golden:
                proc = bench(workload, 0, cwd=tmp)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                record, result = lines(proc)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(record["fail_ratio"]["value"], 0)

    def test_table_digest_is_that_of_the_cli_output(self):
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
            golden = json.load(fh)
        os.makedirs(OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            path = os.path.join(tmp, "table.json")
            env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
            subprocess.run([sys.executable, "-m", "doubleschur", "table", "--n", "2",
                            "--m", "4", "--out", path], cwd=ROOT, env=env, check=True,
                           capture_output=True, timeout=120)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        self.assertEqual(digest, golden["table-g26"]["smoke"])

    def test_fails_without_the_library_source(self):
        os.makedirs(OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            copy_checkout(tmp, with_src=False)
            proc = bench("sigma1-g48", 0, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
