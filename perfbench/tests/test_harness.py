"""Self-test of the benchmark harness, at N=64 so it runs in seconds.

    python3 perfbench/tests/test_harness.py

Checks that every workload runs cleanly untraced and traced, that every
metric BENCHMARK.json names is printed with its unit, and that a wrong
stored count turns the runs that produced it into failures.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NODES = 64
SECONDS = 0.5
SEED = 3


def bench(workload, trace, *extra):
    """Run run.py; returns (printed lines, parsed result line)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace",
         str(trace), "--nodes", str(NODES), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, listed in ((0, SPEC["end_to_end"]),
                                  (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual([m["name"] for m in listed],
                                     list(result["metrics"]))
                    printed = {tuple(line.split()[::2]) for line in lines[:-1]
                               if len(line.split()) == 3}
                    for m in listed + [{"name": "failed_frac",
                                        "unit": "fraction"}]:
                        self.assertIn((m["name"], m["unit"]), printed)
                    for m in listed:
                        self.assertEqual(result["metrics"][m["name"]]["unit"],
                                         m["unit"])

    def test_wrong_expected_count_fails_the_run(self):
        workload = "bulk_n1024_t1"
        report = run.run_perfbench(workload, SEED, SECONDS, False, NODES)
        counts = report["repeats"][0]["counts"]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "expected.json"
            path.write_text(json.dumps({workload: {str(SEED): counts}}))
            _, result = bench(workload, 0, "--expected", str(path))
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)

            wrong = dict(counts, delivered_cells=counts["delivered_cells"] + 1)
            path.write_text(json.dumps({workload: {str(SEED): wrong}}))
            _, result = bench(workload, 0, "--expected", str(path))
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
