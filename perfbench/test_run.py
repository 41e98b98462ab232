"""Tests of the benchmark itself. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They run every workload once traced (with the shortest budget, so each
makes its minimum two traced/untraced pairs) and take a few minutes.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(workload, seed, trace, seconds=1):
    """Run the benchmark; return (exit code, stdout lines)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    return done.returncode, done.stdout.splitlines()


def result(lines):
    return json.loads(lines[-1])


def values(res):
    return {name: m["value"] for name, m in res["metrics"].items()}


class Declaration(unittest.TestCase):
    def test_benchmark_json_declares_what_run_py_prints(self):
        decl = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in decl["workloads"]], run.DECLARED)
        self.assertLessEqual(set(run.DECLARED), set(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in decl["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in decl["per_layer"]], run.PER_LAYER)

    def test_bad_arguments_exit_nonzero_without_a_result(self):
        code, lines = bench("no-such-workload", 1, 0)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


class Runs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.traced = {}
        for workload in run.WORKLOADS:
            code, lines = bench(workload, 1, 1)
            assert code == 0, f"{workload}: exit {code}"
            cls.traced[workload] = (lines, result(lines))

    def test_untraced_run_prints_every_end_to_end_metric(self):
        code, lines = bench("decentral-serial", 1, 0)
        self.assertEqual(code, 0)
        res = result(lines)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual([(n, m["unit"]) for n, m in res["metrics"].items()], run.END_TO_END)
        for name, _ in run.END_TO_END:
            self.assertTrue(any(l.startswith(name + " ") for l in lines), name)
            self.assertGreater(res["metrics"][name]["value"], 0, name)

    def test_traced_run_reports_every_per_layer_metric_on_every_workload(self):
        for workload, (lines, res) in self.traced.items():
            self.assertTrue(res["correct"], workload)
            self.assertEqual([(n, m["unit"]) for n, m in res["metrics"].items()], run.PER_LAYER)
            for name, _ in run.PER_LAYER:
                self.assertTrue(any(l.startswith(name + " ") for l in lines), name)
            self.assertTrue(any(l.startswith("span: ") for l in lines), workload)

    def test_layers_a_workload_bypasses_read_zero(self):
        for workload, (_, res) in self.traced.items():
            v = values(res)
            alloc = [v[n] for n, _ in run.PER_LAYER if n.startswith("alloc.") and n != "alloc.refill_us"]
            pdes = [v[n] for n, _ in run.PER_LAYER if n.startswith("pdes.")]
            if workload.startswith("decentral"):
                self.assertEqual(alloc, [0] * len(alloc), workload)
                self.assertGreater(v["msg.total"], 0, workload)
            else:
                self.assertGreater(v["alloc.recomputes"], 0, workload)
                self.assertEqual(v["msg.total"], 0, workload)
            if workload.startswith("decentral"):
                # Both decentral workloads measure the sharded engine.
                self.assertTrue(all(x > 0 for x in pdes), pdes)
            else:
                self.assertEqual(pdes, [0] * len(pdes), workload)

    def test_workloads_separate_their_mechanisms(self):
        v = {w: values(res) for w, (_, res) in self.traced.items()}
        self.assertGreater(v["central-bursty"]["alloc.suffix_share"],
                           2 * v["central-steady"]["alloc.suffix_share"] + 0.05)
        per_job = {w: v[w]["sim.events"] / v[w]["workload.jobs"] for w in v}
        self.assertGreaterEqual(per_job["decentral-serial"], 10 * per_job["central-steady"])
        self.assertGreater(v["central-bursty"]["telemetry.windows"], 0)
        self.assertEqual(v["central-steady"]["telemetry.windows"], 0)

    def test_another_seed_changes_the_trace(self):
        code, lines = bench("decentral-serial", 2, 1)
        self.assertEqual(code, 0)
        other = values(result(lines))
        first = values(self.traced["decentral-serial"][1])
        self.assertNotEqual(other["sim.events"], first["sim.events"])
        self.assertNotEqual(other["msg.total"], first["msg.total"])


if __name__ == "__main__":
    unittest.main()
