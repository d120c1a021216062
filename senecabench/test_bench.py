#!/usr/bin/env python3
"""Tests of SENECA-Bench itself. Run from the repository root:

    python3 -m unittest senecabench/test_bench.py

They build the benchmark (first run only) and make short runs of every
workload, so they take a few minutes.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

_runs = {}


def run(workload, seed, trace, seconds=1):
    """One benchmark run (memoized); returns (returncode, stdout lines)."""
    key = (workload, seed, trace, seconds)
    if key not in _runs:
        p = subprocess.run(
            RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
                   str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        _runs[key] = (p.returncode, p.stdout.splitlines(), p.stderr)
    return _runs[key]


def result(workload, seed, trace):
    code, lines, err = run(workload, seed, trace)
    if code != 0:
        raise AssertionError(f"{workload} exited {code}:\n{err[-2000:]}")
    return json.loads(lines[-1])


def digest(workload, seed, seconds=10):
    p = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--dump-inputs"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return p.stdout.strip()


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = digest(w, 7)
                self.assertEqual(a, digest(w, 7))
                self.assertNotEqual(a, digest(w, 8))

    def test_modelled_metrics_and_exact_counts_repeat(self):
        w = "ladder_offline"
        e2e = [result(w, s, 0)["metrics"] for s in (1, 2)]
        for name in ("dpu_fps", "dpu_fps_per_w"):
            self.assertEqual(e2e[0][name], e2e[1][name], name)
        layers = [result(w, s, 1)["metrics"] for s in (1, 2)]
        exact = [n for n in layers[0]
                 if n.startswith("dpu.xmodel.")
                 or n == "quant.kernels.int64_fallback_ops"]
        self.assertEqual(len(exact), 16)
        for name in exact:
            self.assertEqual(layers[0][name], layers[1][name], name)


class Output(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    r = result(w, 1, trace)
                    self.assertEqual(set(r), {"correct", "attempted",
                                              "failed", "metrics"})
                    self.assertIs(r["correct"], True)
                    self.assertGreaterEqual(r["attempted"], 1)
                    got = {n: m["unit"] for n, m in r["metrics"].items()}
                    self.assertEqual(got, want)

    def test_end_to_end_metrics_are_never_zero(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                for name, m in result(w, 1, 0)["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_host_calibration_is_reported(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines, err = run(w, 1, 0)
                self.assertEqual(code, 0, err[-2000:])
                self.assertTrue(any(l.startswith("# host: slowdown ")
                                    for l in lines))
                slow = result(w, 1, 1)["metrics"]["host.slowdown"]["value"]
                self.assertGreater(slow, 0)

    def test_fails_without_the_program_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "senecabench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "senecabench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=d, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()
