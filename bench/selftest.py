"""Self-test of the benchmark's own code, at reduced workload sizes.

    python3 bench/selftest.py

Checks that every workload reports every metric of BENCHMARK.json with its
unit, traced and untraced; that a wrong output is counted as a failure; and
that the benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def quiet_run(workload: str, trace: bool) -> dict:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run.run(workload, seed=7, seconds=0, trace=trace, reduced=True)


class SelfTest(unittest.TestCase):
    def test_every_metric_is_reported_with_its_unit(self):
        for kind, trace in (("end_to_end", False), ("per_layer", True)):
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    res = quiet_run(w["name"], trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in res["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)
                    if not trace:
                        for k in ("setup_s", "wall_s", "req_p50_ms", "req_p99_ms",
                                  "max_relerr", "peak_rss_mb"):
                            self.assertGreater(res["metrics"][k]["value"], 0, k)

    def test_the_known_hang_counts_as_failed(self):
        res = quiet_run("tables", trace=False)
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["failed"], 2)

    def test_a_wrong_output_is_counted(self):
        urnwait = run._import_library()
        right = urnwait.mle
        urnwait.mle = lambda N, c, y: {N / 2 + 1.0}
        try:
            res = quiet_run("estimate", trace=False)
        finally:
            urnwait.mle = right
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)

    def test_refuses_to_run_without_the_library(self):
        bare = ROOT / ".bench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "simulate", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
