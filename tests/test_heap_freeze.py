"""The garbage-collector policy: one collect-and-freeze per process.

The first :class:`~repro.api.session.Session` of a process, or a
:class:`~repro.serving.WorkerPool` about to fork, collects and then
freezes the heap (:func:`repro.util.freeze_startup_heap`), so later full
collections skip what start-up built. Frozen cycles are never reclaimed,
so the freeze must happen at most once however many sessions a process
builds, and a closed session must still be freed by reference counting.

Each case runs in a fresh interpreter: this test process has long since
built its first session, and the freeze count it reads must start at 0.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PRELUDE = """
import gc, json, multiprocessing, weakref
from repro.api import Session, SessionConfig
from repro.serving import WorkerPool
CONFIG = SessionConfig(scale_factor=0.005, calibration_repetitions=2)
"""


def run_fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter; the JSON it prints last."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{existing}" if existing else str(SRC)
    result = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(script)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_first_session_freezes_once_and_is_still_freed():
    seen = run_fresh("""
        before = gc.get_freeze_count()
        first = Session(CONFIG)
        frozen = gc.get_freeze_count()
        alive = weakref.ref(first)
        first.close()
        del first
        gc.collect()
        counts = []
        for _ in range(10):
            built = Session(CONFIG)
            wrapped = Session.from_components(built.database, built.units, CONFIG)
            wrapped.close()
            built.close()
            counts.append(gc.get_freeze_count())
        print(json.dumps({
            "before": before, "frozen": frozen,
            "first_freed": alive() is None, "counts": counts,
        }))
    """)
    assert seen["before"] == 0
    assert seen["frozen"] > 0
    assert seen["first_freed"]
    # Twenty more sessions froze nothing more.
    assert max(seen["counts"]) <= seen["frozen"]


def test_forked_worker_inherits_the_frozen_heap():
    seen = run_fresh("""
        before = gc.get_freeze_count()
        pool = WorkerPool(1, config=CONFIG, mode="handoff").start()
        pool.stop()
        after_start = gc.get_freeze_count()

        def child(conn):
            calls = []
            collect, freeze = gc.collect, gc.freeze
            gc.collect = lambda *a: calls.append("collect") or collect(*a)
            gc.freeze = lambda: calls.append("freeze") or freeze()
            inherited = gc.get_freeze_count()
            Session(CONFIG).close()
            conn.send({
                "enabled": gc.isenabled(), "inherited": inherited,
                "after_session": gc.get_freeze_count(), "calls": calls,
            })

        parent_end, child_end = multiprocessing.Pipe()
        proc = multiprocessing.get_context("fork").Process(
            target=child, args=(child_end,)
        )
        proc.start()
        report = parent_end.recv()
        proc.join(60)
        print(json.dumps({
            "before": before, "after_start": after_start,
            "exit_codes": pool.exit_codes, "child_exit": proc.exitcode,
            **report,
        }))
    """)
    # WorkerPool.start froze a parent that had built no session.
    assert seen["before"] == 0
    assert seen["after_start"] > 0
    assert seen["exit_codes"] == [0]
    assert seen["child_exit"] == 0
    assert seen["enabled"]
    # Inherited, not refrozen (child start-up may free a few objects).
    assert 0 < seen["inherited"] <= seen["after_start"]
    # The child's first session neither collects nor freezes again.
    assert seen["calls"] == []
    assert seen["after_session"] <= seen["inherited"]
