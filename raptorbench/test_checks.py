#!/usr/bin/env python3
"""Proves the benchmark's output checks can fail.

Each workload is run once with --corrupt-reference, which makes every
output check compare against a deliberately wrong reference (one row added
or dropped, one entity too many). A correct program must then be reported
as failing: exit code 1, "correct": false, failed > 0. A last case plants a
wrong exact-repeat record and expects the run to flag it.

Run from the repository root (builds the benchmark first, about a minute
on 4 cores, then about two minutes of runs):

    python3 raptorbench/test_checks.py
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's build helper)


def run_driver(workload, work_dir, *extra):
    cmd = [run.BINARY, "--workload", workload, "--seed", "1", "--seconds",
           "1", "--trace", "0", "--work-dir", work_dir, *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=run.ROOT, timeout=run.RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    return done.returncode, json.loads(lines[-1]), lines


class CorruptedReferenceIsReported(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(run.BUILD_DIR, exist_ok=True)
        cls.work_dir = tempfile.mkdtemp(prefix="test_checks-",
                                        dir=run.BUILD_DIR)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work_dir, ignore_errors=True)

    def assert_reported(self, workload, expect_in_failure, *extra):
        code, result, lines = run_driver(workload, self.work_dir, *extra)
        failures = [l for l in lines if l.startswith("FAIL ")]
        self.assertEqual(code, 1, lines[-5:])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])
        self.assertTrue(any(expect_in_failure in f for f in failures),
                        failures[:5])

    def test_oneshot_rows_against_direct_execution(self):
        self.assert_reported("oneshot_cti", "reference has",
                             "--corrupt-reference")

    def test_standing_deltas_against_one_shot_runs(self):
        self.assert_reported("stream_standing", "one-shot runs",
                             "--corrupt-reference")

    def test_recovered_store_against_pre_crash_state(self):
        self.assert_reported("ingest_durable", "recovered store has",
                             "--corrupt-reference")

    def test_exact_repeat_counts_against_earlier_run(self):
        # The driver's default code id, as run_driver passes none.
        record_dir = os.path.join(self.work_dir, "exact_counts", "dev")
        os.makedirs(record_dir, exist_ok=True)
        with open(os.path.join(record_dir, "ingest_durable-seed1.txt"),
                  "w") as f:
            f.write("persist.wal_bytes 1\n")
        self.assert_reported("ingest_durable", "an earlier run of this seed")


if __name__ == "__main__":
    unittest.main(verbosity=2)
