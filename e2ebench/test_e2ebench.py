"""Self-test of the benchmark at a tiny size.

Run from the repository root with either of::

    python3 -m unittest discover -s e2ebench -v
    python3 -m pytest e2ebench -q

Each workload runs in process at a tiny :class:`~workloads.Shape`: it
must print every metric ``BENCHMARK.json`` names with its unit, pass
its checks, and leave no child process, thread or listening socket,
also when interrupted. A response with one flipped bit must fail the
bitwise check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402 — puts the repository's src on the path
from checks import first_difference, predict_problem  # noqa: E402
from repro.api.wire import (  # noqa: E402
    IntervalPayload,
    PredictResponse,
    ResultPayload,
)
from stack import leaks  # noqa: E402
from workloads import SINGLE_FANOUT, WORKLOADS, Shape  # noqa: E402

TINY = Shape(
    setup_repeats=1, probe_queries=8, cold_warmup=6, cold_verify=1000,
    batch_pool=6, batch_queries=4, batch_verify=4, mix_pool=4,
)
SECONDS = "1"
SEEDS = (1, 2)
BENCHMARK = run.load_benchmark()


def run_tiny(workload: str, seed: int, trace: int):
    """``(exit code, last stdout line as JSON or None, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(
            ["--workload", workload, "--seed", str(seed),
             "--seconds", SECONDS, "--trace", str(trace)],
            shape=TINY,
        )
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return code, result, err.getvalue()


def flip_last_bit(value: float) -> float:
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<Q", bits ^ 1))[0]


def flip_first_mean(response):
    """``response`` with its first result's mean one bit off."""
    first = dataclasses.replace(
        response.results[0], mean=flip_last_bit(response.results[0].mean)
    )
    return dataclasses.replace(
        response, results=(first, *response.results[1:])
    )


class WorkloadRunTest(unittest.TestCase):
    def check_runs(self, workload: str):
        for seed in SEEDS:
            for trace, table in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(seed=seed, trace=trace):
                    code, result, err = run_tiny(workload, seed, trace)
                    self.assertEqual(code, 0, err)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(result["correct"], err)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in BENCHMARK[table]}
                    if trace and workload == "online-mix":
                        expected[run.FEEDBACK_METRIC] = "ms"
                    self.assertEqual(
                        {name: metric["unit"]
                         for name, metric in result["metrics"].items()},
                        expected,
                    )
                    self.assertEqual(leaks(), [])

    def test_cold_stream(self):
        self.check_runs("cold-stream")

    def test_batch_http(self):
        self.check_runs("batch-http")

    def test_online_mix(self):
        self.check_runs("online-mix")

    def test_unknown_workload_is_refused(self):
        code, result, err = run_tiny("no-such-workload", 1, 0)
        self.assertEqual(code, 2)
        self.assertIsNone(result)
        self.assertIn("unknown workload", err)


class InterruptTest(unittest.TestCase):
    def test_signal_mid_run_tears_everything_down(self):
        for workload, signum in (
            ("batch-http", signal.SIGINT),
            ("online-mix", signal.SIGTERM),
        ):
            with self.subTest(workload=workload):
                timer = threading.Timer(
                    2.5, os.kill, (os.getpid(), signum)
                )
                timer.start()
                out, err = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        code = run.main(
                            ["--workload", workload, "--seed", "3",
                             "--seconds", "30"],
                            shape=TINY,
                        )
                finally:
                    timer.cancel()
                self.assertEqual(code, 128 + signum, err.getvalue())
                self.assertEqual(out.getvalue(), "")
                self.assertEqual(leaks(), [])


class FlippedFloatTest(unittest.TestCase):
    """One flipped bit in a served response fails each workload's check."""

    def served(self, name: str):
        workload = WORKLOADS[name](4, TINY)
        self.addCleanup(workload.close)
        workload.build()
        self.assertTrue(workload.run(0.3).latencies)
        return workload

    def assert_only_flip_reported(self, problems):
        self.assertTrue(problems)
        for problem in problems:
            self.assertIn(".mean", problem)
            self.assertIn("bitwise", problem)

    def test_first_difference_sees_one_bit(self):
        self.assertIsNone(first_difference((1.5, [2.0]), (1.5, [2.0])))
        self.assertIn("bitwise", first_difference(
            (1.5, [flip_last_bit(2.0)]), (1.5, [2.0])
        ))
        self.assertIn("bitwise", first_difference(-0.0, 0.0))

    def test_cold_stream(self):
        workload = self.served("cold-stream")
        request, response = workload.served[0]
        workload.served[0] = (request, flip_first_mean(response))
        self.assert_only_flip_reported(workload.verify())

    def test_batch_http(self):
        workload = self.served("batch-http")
        request, response = workload.kept[0]
        flipped = dataclasses.replace(
            response,
            responses=(flip_first_mean(response.responses[0]),
                       *response.responses[1:]),
        )
        workload.kept[0] = (request, flipped)
        self.assert_only_flip_reported(workload.verify())

    def test_online_mix(self):
        workload = self.served("online-mix")
        workload.kept[0] = flip_first_mean(workload.kept[0])
        self.assert_only_flip_reported(workload.verify())


class NestingCheckTest(unittest.TestCase):
    def test_ninety_wider_than_ninety_nine_fails(self):
        """The online-mix failure: a 90% interval wider than the 99% one.

        A feedback scale above 2.576 at 0.9, beside the static 0.99
        interval, serves exactly this shape.
        """
        result = ResultPayload(
            variant="all", mpl=1, mean=1.0, variance=0.04, std=0.2,
            intervals=tuple(
                IntervalPayload(confidence, 1.0 - half, 1.0 + half)
                for confidence, half in ((0.5, 0.13), (0.9, 0.6), (0.99, 0.52))
            ),
        )
        self.assertIn("does not contain", predict_problem(
            PredictResponse(sql="SELECT 1", results=(result,)), SINGLE_FANOUT
        ))


class CleanCheckoutTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        """With only BENCHMARK.json and e2ebench/, it exits non-zero, no result."""
        with tempfile.TemporaryDirectory() as root:
            shutil.copy(HERE.parent / "BENCHMARK.json", root)
            shutil.copytree(
                HERE, Path(root) / HERE.name,
                ignore=shutil.ignore_patterns("out", "__pycache__"),
            )
            proc = subprocess.run(
                [sys.executable, *BENCHMARK["command"][1:], "--workload",
                 "cold-stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        self.assertIn("cannot import the program", proc.stderr)


if __name__ == "__main__":
    unittest.main()
