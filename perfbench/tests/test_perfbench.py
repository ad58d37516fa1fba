"""Self-tests of the benchmark. Run from the root of the checkout:

    python3 -m unittest discover -s perfbench/tests -v

They build the worker, then check its output checks against broken
outputs, the metric names, and the runner's argument handling.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
os.chdir(ROOT)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class WorkerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_output_checks_reject_broken_outputs(self):
        # grid answers minus one tuple, a rewriting without its G^{2^n}
        # disjunct or with that disjunct broken, and the rest of the
        # worker's own cases
        r = subprocess.run([run.WORKER, "selftest"], capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("grid answers minus one tuple fail", r.stdout)
        self.assertIn("marked rewriting without G^16 fails", r.stdout)
        self.assertIn("marked rewriting with the G^16 path broken fails", r.stdout)
        self.assertNotIn("FAILED", r.stdout)

    def test_traced_rep_reports_every_per_layer_metric(self):
        _, out = run.worker(run.rep_args("marked-e2-par", 1, 1,
                                         os.path.join(".bench_build", "selftest-trace.json")))
        self.assertIsNotNone(out)
        self.assertTrue(out["ok"], out["error"])
        declared = [m["name"] for m in spec()["per_layer"]]
        self.assertEqual(list(out["layers"]) + ["trace.overhead_s"], declared)
        with open(os.path.join(".bench_build", "selftest-trace.json")) as f:
            events = json.load(f)["traceEvents"]
        self.assertEqual({e["name"] for e in events}, {"run", "marked.rewrite_td"})

    def test_worker_rejects_unknown_workload(self):
        r = subprocess.run([run.WORKER, "rep", "--workload", "no-such-workload"],
                           capture_output=True, text=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")


class SpecTest(unittest.TestCase):
    def test_metric_names(self):
        s = spec()
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        names += [w["name"] for w in s["workloads"]]
        for n in names:
            self.assertRegex(n, NAME)
            self.assertLessEqual(len(n), 64)
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_have_jobs(self):
        names = [w["name"] for w in spec()["workloads"]] + run.EXTRA_WORKLOADS
        self.assertEqual(sorted(names), sorted(run.JOBS))


class RunnerTest(unittest.TestCase):
    def test_unknown_workload_is_rejected(self):
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "nope",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           capture_output=True, text=True, timeout=60)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn("correct", r.stdout)

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "marked-e2-par",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn("correct", r.stdout)


if __name__ == "__main__":
    unittest.main()
