#!/usr/bin/env python3
"""Tests of the benchmark itself, on the tiny --smoke sizes.

    python3 perfbench/test_perfbench.py

Checks the result line against BENCHMARK.json for every workload, traced and
untraced; that simulated results repeat exactly at one seed; and that the
benchmark fails without printing a result when the compiler sources are
missing.  Takes a few minutes, most of it the first build.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def bench(*args, cwd=ROOT, script=RUN):
    p = subprocess.run([sys.executable, script, *args], cwd=cwd,
                       capture_output=True, text=True, timeout=900)
    lines = p.stdout.splitlines()
    return p.returncode, lines, p.stderr


def smoke(workload, seed, trace):
    rc, lines, err = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                           "--trace", str(trace), "--smoke")
    if rc != 0:
        raise AssertionError(f"{workload} trace={trace} exit {rc}:\n" +
                             "\n".join(lines[-20:]) + err[-2000:])
    return json.loads(lines[-1])


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_matches_the_declared_metrics(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                r = smoke(w["name"], 5, 0)
                self.check_result(r, self.spec["end_to_end"])
                for m in self.spec["end_to_end"]:
                    self.assertGreater(r["metrics"][m["name"]]["value"], 0, m["name"])
                self.check_result(smoke(w["name"], 5, 1), self.spec["per_layer"])

    def test_simulated_results_repeat_at_one_seed(self):
        for w in ("stencil", "irregular"):
            a, b = smoke(w, 9, 0), smoke(w, 9, 0)
            for k in ("sim_s", "messages", "bytes"):
                self.assertEqual(a["metrics"][k]["value"], b["metrics"][k]["value"], (w, k))

    def test_fails_without_the_compiler_sources(self):
        bare = os.path.join(ROOT, ".bench_tmp", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, lines, _ = bench("--workload", "stencil", "--seed", "1", "--seconds", "1",
                                 "--trace", "0", cwd=bare,
                                 script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(rc, 0)
            self.assertFalse(lines and lines[-1].startswith("{"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            try:
                os.rmdir(os.path.join(ROOT, ".bench_tmp"))
            except OSError:
                pass


if __name__ == "__main__":
    unittest.main()
