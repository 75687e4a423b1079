"""The staticcheck framework: suppressions, baseline, each rule, formats.

The rule fixtures deliberately reproduce the three concurrency bugs
PR 5's replay harness had to catch at runtime — torn cache-stat reads,
an admission slot held across blocking work, and non-deterministic
retry jitter — because catching exactly those shapes *before* runtime
is the reason the framework exists.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from staticcheck import (  # noqa: E402
    ALL_CHECKS,
    Baseline,
    FileContext,
    Finding,
    apply_suppressions,
    check_file,
    parse_suppressions,
)
from staticcheck.runner import _format_github, discover_files  # noqa: E402


def ctx_for(source, path="pkg/mod.py"):
    return FileContext(Path(path), source=source)


def run_rule(rule, source, path="pkg/mod.py"):
    ctx = ctx_for(source, path)
    check = ALL_CHECKS[rule]
    if not check.applies(ctx):
        return []
    return check.run(ctx)


# ---------------------------------------------------------------------------
# suppressions


class TestSuppressions:
    def test_trailing_comment_suppresses_own_line(self):
        source = "x = 1  # staticcheck: disable=demo-rule\n"
        (supp,) = parse_suppressions(source)
        assert supp.target == 1
        assert supp.rules == frozenset({"demo-rule"})

    def test_standalone_comment_targets_next_statement(self):
        source = (
            "a = 1\n"
            "# staticcheck: disable=lock-discipline — justified\n"
            "\n"
            "b = 2\n"
        )
        (supp,) = parse_suppressions(source)
        assert supp.line == 2
        assert supp.target == 4

    def test_multiple_rules_and_all(self):
        source = "x = 1  # staticcheck: disable=rule-a, rule-b\ny = 2  # staticcheck: disable=all\n"
        first, second = parse_suppressions(source)
        assert first.rules == frozenset({"rule-a", "rule-b"})
        assert second.rules == frozenset({"all"})

    def test_docstring_mention_is_not_a_suppression(self):
        source = '"""Docs show the idiom:\n\n    # staticcheck: disable=demo\n"""\nx = 1\n'
        assert parse_suppressions(source) == []

    def test_matching_finding_is_dropped(self):
        source = "x = 1  # staticcheck: disable=demo\n"
        ctx = ctx_for(source)
        findings = [ctx.finding(1, "demo", "boom")]
        kept = apply_suppressions(ctx, findings, parse_suppressions(source))
        assert kept == []

    def test_unused_suppression_reported_on_full_run(self):
        source = "x = 1  # staticcheck: disable=demo\n"
        ctx = ctx_for(source)
        kept = apply_suppressions(ctx, [], parse_suppressions(source))
        (finding,) = kept
        assert finding.rule == "unused-suppression"
        assert "matched no finding" in finding.message

    def test_unused_suppression_silent_under_select(self):
        source = "x = 1  # staticcheck: disable=demo\n"
        ctx = ctx_for(source)
        kept = apply_suppressions(
            ctx, [], parse_suppressions(source), selected={"other"}
        )
        assert kept == []


# ---------------------------------------------------------------------------
# baseline


class TestBaseline:
    def finding(self, message="torn read"):
        return Finding(path="src/x.py", line=3, rule="lock-discipline", message=message)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.from_findings([self.finding()]).write(path)
        loaded = Baseline.load(path)
        fresh, expired = loaded.apply([self.finding()])
        assert fresh == []
        assert expired == []

    def test_new_finding_not_filtered(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.from_findings([self.finding()]).write(path)
        other = self.finding(message="different problem")
        fresh, expired = Baseline.load(path).apply([other, self.finding()])
        assert fresh == [other]
        assert expired == []

    def test_fixed_finding_expires(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.from_findings([self.finding()]).write(path)
        fresh, expired = Baseline.load(path).apply([])
        assert fresh == []
        (entry,) = expired
        assert entry["message"] == "torn read"

    def test_fingerprint_ignores_line_number(self):
        moved = Finding(
            path="src/x.py", line=99, rule="lock-discipline", message="torn read"
        )
        assert moved.fingerprint == self.finding().fingerprint

    def test_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "nope.json")
        assert baseline.entries == {}


# ---------------------------------------------------------------------------
# lock-discipline


# The torn cache-stat shape from PR 5: `hits` is maintained under the
# lock in get() but bumped bare in record() — exactly what tore the
# stats() snapshot at runtime.
TORN_STATS = """
import threading

class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0

    def get(self, key):
        with self._lock:
            self.hits += 1
            return key

    def record(self):
        self.hits += 1
"""


class TestLockDiscipline:
    def test_torn_stat_mutation_flagged(self):
        (finding,) = run_rule("lock-discipline", TORN_STATS)
        assert finding.rule == "lock-discipline"
        assert "self.hits" in finding.message
        assert "self._lock" in finding.message

    def test_mutation_under_lock_clean(self):
        source = TORN_STATS.replace(
            "    def record(self):\n        self.hits += 1",
            "    def record(self):\n        with self._lock:\n            self.hits += 1",
        )
        assert run_rule("lock-discipline", source) == []

    def test_init_is_exempt(self):
        # __init__ writes guarded attrs bare by design; no finding for it.
        findings = run_rule("lock-discipline", TORN_STATS)
        assert all("__init__" not in f.message for f in findings)

    def test_mutator_method_call_flagged(self):
        source = """
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._entries = {}

    def get(self, key):
        with self._lock:
            return self._entries.get(key)

    def put(self, key, value):
        self._entries[key] = value
        self._entries.update({key: value})
"""
        findings = run_rule("lock-discipline", source)
        assert len(findings) == 2

    def test_read_outside_lock_not_flagged(self):
        source = TORN_STATS.replace(
            "    def record(self):\n        self.hits += 1",
            "    def record(self):\n        return self.hits",
        )
        assert run_rule("lock-discipline", source) == []

    def test_double_acquire_nonreentrant_flagged(self):
        source = """
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()

    def work(self):
        with self._lock:
            with self._lock:
                pass
"""
        (finding,) = run_rule("lock-discipline", source)
        assert "not reentrant" in finding.message

    def test_double_acquire_rlock_clean(self):
        source = """
import threading

class Box:
    def __init__(self):
        self._lock = threading.RLock()

    def work(self):
        with self._lock:
            with self._lock:
                pass
"""
        assert run_rule("lock-discipline", source) == []

    def test_nested_function_does_not_inherit_held_lock(self):
        # The closure runs later on another stack: its bare mutation is
        # NOT protected by the enclosing with-block.
        source = """
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1

    def deferred(self):
        with self._lock:
            def later():
                self.count += 1
            return later
"""
        (finding,) = run_rule("lock-discipline", source)
        assert "deferred" in finding.message

    def test_inline_suppression_silences(self):
        source = TORN_STATS.replace(
            "    def record(self):\n        self.hits += 1",
            "    def record(self):\n"
            "        self.hits += 1  # staticcheck: disable=lock-discipline — test",
        )
        assert source != TORN_STATS
        findings = check_file_from_source(source)
        assert [f for f in findings if f.rule == "lock-discipline"] == []


def check_file_from_source(source, tmp_path=None, name="mod.py"):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(source)
        return check_file(path, root=Path(tmp))


# ---------------------------------------------------------------------------
# blocking-while-locked


# The admission shape from PR 5: backoff sleep while the slot/lock is
# held — every other thread queues behind a timer.
HELD_SLEEP = """
import threading
import time

class Client:
    def __init__(self):
        self._lock = threading.Lock()

    def request(self):
        with self._lock:
            time.sleep(0.2)
"""


class TestBlockingWhileLocked:
    def test_sleep_under_lock_flagged(self):
        (finding,) = run_rule("blocking-while-locked", HELD_SLEEP)
        assert "time.sleep" in finding.message
        assert "self._lock" in finding.message

    def test_sleep_outside_lock_clean(self):
        source = """
import threading
import time

class Client:
    def __init__(self):
        self._lock = threading.Lock()

    def request(self):
        with self._lock:
            attempt = 1
        time.sleep(0.2)
"""
        assert run_rule("blocking-while-locked", source) == []

    def test_lock_named_variable_recognized(self):
        source = """
import time

def work(cache_lock):
    with cache_lock:
        time.sleep(1)
"""
        (finding,) = run_rule("blocking-while-locked", source)
        assert "cache_lock" in finding.message

    def test_urlopen_via_alias_flagged(self):
        source = """
import threading
from urllib.request import urlopen

class Client:
    def __init__(self):
        self._lock = threading.Lock()

    def fetch(self, url):
        with self._lock:
            return urlopen(url)
"""
        (finding,) = run_rule("blocking-while-locked", source)
        assert "urllib.request.urlopen" in finding.message

    def test_semaphore_context_flagged(self):
        source = """
import threading
import time

def work():
    with threading.BoundedSemaphore(4):
        time.sleep(1)
"""
        (finding,) = run_rule("blocking-while-locked", source)
        assert "threading.BoundedSemaphore()" in finding.message

    def test_nested_function_resets_held_state(self):
        source = """
import threading
import time

class Client:
    def __init__(self):
        self._lock = threading.Lock()

    def plan(self):
        with self._lock:
            def retry():
                time.sleep(1)
            return retry
"""
        assert run_rule("blocking-while-locked", source) == []

    def test_hot_paths_are_clean(self):
        # Satellite audit: the client backoff, replay runner, and the
        # serving tier (admission gate, router forwards, worker pool)
        # must never sleep or do socket I/O while holding a lock.
        for rel in (
            "src/repro/api/client.py",
            "src/repro/replay/runner.py",
            "src/repro/serving/admission.py",
            "src/repro/serving/routing.py",
            "src/repro/serving/pool.py",
            "src/repro/serving/transport.py",
        ):
            ctx = FileContext(REPO_ROOT / rel, root=REPO_ROOT)
            assert ALL_CHECKS["blocking-while-locked"].run(ctx) == []

    def test_serving_forward_under_lock_flagged(self):
        # The routing layer's trap shape: relaying a request to a peer
        # worker while holding the admission counter lock would
        # serialize every forwarded request behind one mutex.
        source = """
import threading
import urllib.request

class Gate:
    def __init__(self):
        self._lock = threading.Lock()

    def forward(self, url):
        with self._lock:
            return urllib.request.urlopen(url)
"""
        findings = run_rule(
            "blocking-while-locked", source,
            path="src/repro/serving/routing.py",
        )
        assert len(findings) == 1
        assert "urlopen" in findings[0].message


# ---------------------------------------------------------------------------
# determinism


# The retry shape from PR 5: unseeded jitter in replay-path retry logic
# makes the 503-retry schedule irreproducible.
JITTER = """
import random

def backoff(attempt):
    return (2 ** attempt) + random.random()
"""


BENCH_PATH = "benchmarks/bench_demo.py"


class TestDeterminism:
    def test_replay_path_global_rng_flagged(self):
        findings = run_rule("determinism", JITTER, path="src/repro/replay/retry.py")
        (finding,) = findings
        assert "process-global" in finding.message
        assert "replay/datagen/experiments" in finding.message

    def test_benchmark_noun_preserved(self):
        (finding,) = run_rule(
            "determinism", JITTER, path="benchmarks/bench_retry.py"
        )
        assert "a benchmark" in finding.message

    def test_outside_scoped_trees_not_applicable(self):
        assert run_rule("determinism", JITTER, path="src/repro/serving/opt.py") == []
        assert run_rule("determinism", JITTER, path="tests/test_retry.py") == []

    def test_service_tree_in_scope(self):
        # The batch kernels' bitwise contract and the routing ring's
        # interned CRC-32 both depend on deterministic service code.
        (finding,) = run_rule(
            "determinism", JITTER, path="src/repro/service/service.py"
        )
        assert "process-global" in finding.message

    def test_prepare_path_in_scope(self):
        for subsystem in ("costfuncs", "sampling", "core", "optimizer"):
            (finding,) = run_rule(
                "determinism", JITTER, path=f"src/repro/{subsystem}/mod.py"
            )
            assert "prepare-path" in finding.message

    def test_hash_keyed_fit_memo_flagged(self):
        # Builtin hash() of the arrays as a memo key: two problems that
        # collide would share one cached NNLS solution.
        source = (
            "def memo_key(design, y):\n"
            "    return hash((design.tobytes(), y.tobytes()))\n"
        )
        (finding,) = run_rule(
            "determinism", source, path="src/repro/costfuncs/fitting.py"
        )
        assert "hash()" in finding.message
        assert "crc32" in finding.message

    def test_seeded_rng_clean(self):
        source = "import random\nrng = random.Random(7)\n"
        assert run_rule("determinism", source, path="src/repro/datagen/gen.py") == []

    def test_unseeded_constructor_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        (finding,) = run_rule(
            "determinism", source, path="src/repro/experiments/lab.py"
        )
        assert "without an explicit seed" in finding.message

    def test_builtin_hash_flagged(self):
        source = "key = hash('q')\n"
        (finding,) = run_rule("determinism", source, path="src/repro/replay/key.py")
        assert "crc32" in finding.message

    # Every import spelling of the benchmark RNG rule, in benchmarks/.

    @pytest.mark.parametrize("source", [
        pytest.param("import random\nx = random.random()\n", id="random.random"),
        pytest.param("import random\nrandom.seed(0)\n", id="random.seed"),
        pytest.param(
            "import random as rnd\nrnd.shuffle([1, 2])\n", id="random-as-rnd"
        ),
        pytest.param(
            "import numpy as np\nx = np.random.rand(3)\n", id="np.random.rand"
        ),
        pytest.param(
            "import numpy\nx = numpy.random.randint(10)\n",
            id="numpy.random.randint",
        ),
        pytest.param(
            "from numpy import random\nx = random.random()\n",
            id="from-numpy-import-random",
        ),
        pytest.param(
            "from numpy.random import rand\nx = rand(3)\n",
            id="from-numpy.random-import-rand",
        ),
    ])
    def test_benchmark_global_rng_flagged(self, source):
        (finding,) = run_rule("determinism", source, path=BENCH_PATH)
        assert "process-global" in finding.message

    @pytest.mark.parametrize("source", [
        pytest.param("import random\nrng = random.Random()\n", id="random.Random"),
        pytest.param(
            "import numpy as np\nrng = np.random.default_rng()\n",
            id="np.random.default_rng",
        ),
        pytest.param(
            "from numpy.random import default_rng\nrng = default_rng()\n",
            id="from-numpy.random-import-default_rng",
        ),
    ])
    def test_benchmark_unseeded_constructor_flagged(self, source):
        (finding,) = run_rule("determinism", source, path=BENCH_PATH)
        assert "without an explicit seed" in finding.message

    @pytest.mark.parametrize("source", [
        pytest.param("import random\nrng = random.Random(7)\n", id="Random(7)"),
        pytest.param(
            "import numpy as np\nrng = np.random.default_rng(0)\n",
            id="default_rng(0)",
        ),
        pytest.param(
            "import numpy as np\nrng = np.random.default_rng(seed=3)\n",
            id="default_rng(seed=3)",
        ),
        pytest.param(
            "from numpy.random import default_rng\nrng = default_rng(11)\n",
            id="from-import-default_rng(11)",
        ),
        pytest.param(
            "import numpy as np\nrng = np.random.RandomState(5)\n",
            id="RandomState(5)",
        ),
    ])
    def test_benchmark_seeded_constructor_clean(self, source):
        assert run_rule("determinism", source, path=BENCH_PATH) == []

    def test_benchmark_hash_flagged(self):
        (finding,) = run_rule(
            "determinism", "x = hash('query text')\n", path=BENCH_PATH
        )
        assert "hash()" in finding.message
        assert "crc32" in finding.message

    def test_rng_check_skipped_outside_benchmarks(self, tmp_path):
        # The discipline applies to benchmarks only: library code may
        # keep optional-seed APIs, tests may use hash(). Every rule runs
        # here, so no other rule picks the file up either.
        path = tmp_path / "pkg" / "module.py"
        path.parent.mkdir()
        path.write_text("import random\nx = random.random()\ny = hash('q')\n")
        assert check_file(path, root=tmp_path) == []

    def test_real_benchmarks_are_clean(self):
        # Straight through the rule: no suppression or baseline entry
        # can hide a finding in the committed benchmarks.
        check = ALL_CHECKS["determinism"]
        paths = sorted((REPO_ROOT / "benchmarks").glob("*.py"))
        assert paths
        findings = []
        for path in paths:
            ctx = FileContext(path, root=REPO_ROOT)
            assert check.applies(ctx), ctx.rel
            findings.extend(check.run(ctx))
        assert findings == []


    # Served numerics: no BLAS outside NNLS, no scipy anywhere.

    @pytest.mark.parametrize("source, what", [
        pytest.param("def f(a, b):\n    return a @ b\n", "@ operator", id="matmul-op"),
        pytest.param("def f(a, b):\n    a @= b\n", "@ operator", id="matmul-augassign"),
        pytest.param(
            "import numpy as np\ny = np.dot([1.0], [2.0])\n", "numpy.dot()", id="np.dot"
        ),
        pytest.param("def f(a, b):\n    return a.dot(b)\n", ".dot()", id="method-dot"),
        pytest.param(
            "import numpy as np\ny = np.matmul([[1.0]], [[2.0]])\n", "numpy.matmul()",
            id="np.matmul",
        ),
        pytest.param(
            "import numpy\ny = numpy.inner([1.0], [2.0])\n", "numpy.inner()",
            id="numpy.inner",
        ),
        pytest.param(
            "from numpy import vdot\ny = vdot([1.0], [2.0])\n", "numpy.vdot()",
            id="from-numpy-import-vdot",
        ),
        pytest.param(
            "import numpy as np\ny = np.tensordot([1.0], [2.0], 1)\n",
            "numpy.tensordot()", id="np.tensordot",
        ),
        pytest.param(
            "import numpy as np\ny = np.linalg.solve([[1.0]], [1.0])\n",
            "numpy.linalg.solve()", id="np.linalg.solve",
        ),
        pytest.param(
            "from numpy.linalg import lstsq\ny = lstsq([[1.0]], [1.0])\n",
            "numpy.linalg.lstsq()", id="from-numpy.linalg-import-lstsq",
        ),
    ])
    def test_blas_flagged_outside_nnls(self, source, what):
        for path in (
            "src/repro/core/variance.py",
            "src/repro/service/kernels.py",
            "src/repro/serving/app.py",
            "src/repro/costfuncs/fitting.py",
        ):
            (finding,) = run_rule("determinism", source, path=path)
            assert what in finding.message
            assert "BLAS" in finding.message

    def test_blas_allowed_in_nnls_only(self):
        source = (
            "import numpy as np\n"
            "def solve(A, y, x):\n"
            "    residual = y - A @ x\n"
            "    return np.linalg.lstsq(A, y, rcond=None), A.T.dot(residual)\n"
        )
        assert run_rule("determinism", source, path="src/repro/costfuncs/nnls.py") == []
        assert run_rule("determinism", source, path="tests/test_nnls.py") == []
        assert run_rule("determinism", source, path=BENCH_PATH) == []

    def test_elementwise_sums_stay_clean(self):
        source = (
            "import numpy as np\n"
            "def f(mu, g):\n"
            "    return np.add.accumulate(mu * g, axis=-1)[..., -1], (mu * g).sum()\n"
        )
        assert run_rule("determinism", source, path="src/repro/core/variance.py") == []

    @pytest.mark.parametrize("source", [
        pytest.param("import scipy\n", id="import-scipy"),
        pytest.param("import scipy.special as sp\n", id="import-scipy.special"),
        pytest.param("from scipy.special import erfinv\n", id="from-scipy.special"),
        pytest.param("from scipy import stats\n", id="from-scipy"),
    ])
    def test_scipy_import_flagged_anywhere_in_src(self, source):
        for path in (
            "src/repro/mathstats/normal.py",
            "src/repro/api/render.py",
            "src/repro/costfuncs/nnls.py",
        ):
            (finding,) = run_rule("determinism", source, path=path)
            assert "scipy" in finding.message
        assert run_rule("determinism", source, path="tests/test_mathstats.py") == []
        assert run_rule("determinism", source, path="e2ebench/checks.py") == []

    def test_numerics_do_not_widen_the_rng_scope(self):
        # serving/ is outside the RNG rule's trees; only the numerics
        # half of the rule reads it.
        assert run_rule("determinism", JITTER, path="src/repro/serving/opt.py") == []
        (finding,) = run_rule(
            "determinism", "import scipy\n", path="src/repro/serving/opt.py"
        )
        assert "scipy" in finding.message

    def test_real_src_tree_is_clean(self):
        check = ALL_CHECKS["determinism"]
        paths = sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        assert paths
        findings = []
        for path in paths:
            ctx = FileContext(path, root=REPO_ROOT)
            assert check.applies(ctx), ctx.rel
            findings.extend(check.run(ctx))
        assert findings == []


# ---------------------------------------------------------------------------
# dead imports and stale exports


class TestImports:
    def test_unused_import_flagged_at_its_line(self):
        source = "import os\nimport sys\n\nprint(sys.argv)\n"
        (finding,) = run_rule("unused-import", source)
        assert finding.line == 1
        assert finding.message == "unused import 'os'"

    @pytest.mark.parametrize("source, path", [
        pytest.param("import os as os\n", "pkg/mod.py", id="explicit-reexport"),
        pytest.param(
            "from typing import List\nx: 'List[int]' = []\n", "pkg/mod.py",
            id="quoted-annotation",
        ),
        pytest.param(
            "from .mod import thing\n", "pkg/__init__.py", id="package-init"
        ),
    ])
    def test_used_or_reexported_import_clean(self, source, path):
        assert run_rule("unused-import", source, path=path) == []

    def test_stale_export_flagged(self):
        source = "__all__ = ['present', 'gone']\n\ndef present():\n    pass\n"
        (finding,) = run_rule("undefined-export", source)
        assert "'gone'" in finding.message


# ---------------------------------------------------------------------------
# vectorization


KERNEL_PATH = "src/repro/service/kernels.py"


class TestVectorization:
    def test_float_in_loop_flagged(self):
        source = (
            "def f(xs):\n"
            "    out = []\n"
            "    for x in xs:\n"
            "        out.append(float(x))\n"
            "    return out\n"
        )
        (finding,) = run_rule("vectorization", source, path=KERNEL_PATH)
        assert "float()" in finding.message
        assert "tolist" in finding.message

    def test_scalar_augassign_accumulation_flagged(self):
        source = (
            "def f(xs):\n"
            "    total = 0.0\n"
            "    for x in xs:\n"
            "        total += x\n"
            "    return total\n"
        )
        (finding,) = run_rule("vectorization", source, path=KERNEL_PATH)
        assert "'total'" in finding.message

    def test_scalar_rebind_accumulation_flagged(self):
        source = (
            "def f(xs):\n"
            "    total = 0.0\n"
            "    for x in xs:\n"
            "        total = total + x\n"
            "    return total\n"
        )
        (finding,) = run_rule("vectorization", source, path=KERNEL_PATH)
        assert "'total'" in finding.message

    def test_subscript_writes_stay_legal(self):
        # A loop writing array slots accumulates into no python scalar.
        source = (
            "def f(out, gv, plans):\n"
            "    for slot in range(plans):\n"
            "        row = gv[slot]\n"
            "        out[slot] = row.sum()\n"
        )
        assert run_rule("vectorization", source, path=KERNEL_PATH) == []

    def test_float_in_comprehension_is_the_hoist_pattern(self):
        source = (
            "def f(ps):\n"
            "    return [float(erfinv(2 * p - 1)) for p in ps]\n"
        )
        assert run_rule("vectorization", source, path=KERNEL_PATH) == []

    def test_nested_loops_report_once(self):
        source = (
            "def f(xss):\n"
            "    out = []\n"
            "    for xs in xss:\n"
            "        for x in xs:\n"
            "            out.append(float(x))\n"
            "    return out\n"
        )
        findings = run_rule("vectorization", source, path=KERNEL_PATH)
        assert len(findings) == 1

    def test_only_hot_modules_in_scope(self):
        source = "for x in [1]:\n    y = float(x)\n"
        assert run_rule("vectorization", source, path="src/repro/service/service.py") == []
        assert run_rule("vectorization", source, path="benchmarks/bench_x.py") == []

    def test_current_kernels_module_is_clean(self):
        path = REPO_ROOT / "src" / "repro" / "service" / "kernels.py"
        ctx = FileContext(path, root=REPO_ROOT, source=path.read_text())
        check = ALL_CHECKS["vectorization"]
        assert check.applies(ctx)
        assert check.run(ctx) == []


# ---------------------------------------------------------------------------
# error-taxonomy


class TestErrorTaxonomy:
    PATH = "src/repro/api/handlers.py"

    def test_unregistered_raise_flagged(self):
        source = "def f():\n    raise ValueError('bad')\n"
        (finding,) = run_rule("error-taxonomy", source, path=self.PATH)
        assert "ValueError" in finding.message
        assert "ERROR_CODES" in finding.message

    def test_registered_class_clean(self):
        source = "from repro.errors import WireError\n\ndef f():\n    raise WireError('bad')\n"
        assert run_rule("error-taxonomy", source, path=self.PATH) == []

    def test_local_subclass_clean(self):
        source = (
            "from repro.errors import ReproError\n\n"
            "class ApiError(ReproError):\n    pass\n\n"
            "class DeepError(ApiError):\n    pass\n\n"
            "def f():\n    raise DeepError('bad')\n"
        )
        assert run_rule("error-taxonomy", source, path=self.PATH) == []

    def test_control_flow_builtins_allowed(self):
        source = "def f():\n    raise SystemExit(2)\n"
        assert run_rule("error-taxonomy", source, path=self.PATH) == []

    def test_factory_method_not_judged(self):
        source = "def f(self):\n    raise self._structured('oops')\n"
        assert run_rule("error-taxonomy", source, path=self.PATH) == []

    def test_reraise_not_judged(self):
        source = "def f():\n    try:\n        pass\n    except Exception:\n        raise\n"
        assert run_rule("error-taxonomy", source, path=self.PATH) == []

    def test_json_dumps_flagged_outside_wire(self):
        source = "import json\n\ndef f(d):\n    return json.dumps(d)\n"
        (finding,) = run_rule("error-taxonomy", source, path=self.PATH)
        assert "allow_nan" in finding.message

    def test_wire_module_is_the_guard(self):
        source = "import json\n\ndef dumps(d):\n    return json.dumps(d, allow_nan=False)\n"
        assert run_rule("error-taxonomy", source, path="src/repro/api/wire.py") == []

    def test_not_applicable_outside_wire_facing_code(self):
        source = "def f():\n    raise ValueError('bad')\n"
        assert run_rule("error-taxonomy", source, path="src/repro/core/units.py") == []

    def test_serving_package_is_wire_facing(self):
        # The layered serving tier crosses the wire exactly like api/:
        # bare raises and unguarded json.dumps are flagged there too.
        source = "def f():\n    raise ValueError('bad')\n"
        (finding,) = run_rule(
            "error-taxonomy", source, path="src/repro/serving/pool.py"
        )
        assert "ValueError" in finding.message
        dumped = "import json\n\ndef f(d):\n    return json.dumps(d)\n"
        (finding,) = run_rule(
            "error-taxonomy", dumped, path="src/repro/serving/stats.py"
        )
        assert "allow_nan" in finding.message

    def test_serving_error_is_registered(self):
        source = (
            "from repro.errors import ServingError\n\n"
            "def f():\n    raise ServingError('worker died')\n"
        )
        assert (
            run_rule(
                "error-taxonomy", source,
                path="src/repro/serving/pool.py",
            )
            == []
        )


# ---------------------------------------------------------------------------
# output formats & runner integration


class TestFormatsAndRunner:
    def finding(self):
        return Finding(path="src/x.py", line=3, rule="lock-discipline", message="m")

    def test_github_format(self):
        (line,) = _format_github([self.finding()])
        assert line == (
            "::error file=src/x.py,line=3,title=staticcheck lock-discipline::m"
        )

    def test_finding_to_dict_round_trips_through_json(self):
        payload = json.loads(json.dumps(self.finding().to_dict()))
        assert payload["rule"] == "lock-discipline"
        assert payload["fingerprint"] == self.finding().fingerprint

    def test_discovery_skips_hidden_and_cache_dirs(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "skip.py").write_text("x = 1\n")
        (tmp_path / ".git").mkdir()
        (tmp_path / ".git" / "hook.py").write_text("x = 1\n")
        files = discover_files([tmp_path], tmp_path)
        assert [f.name for f in files] == ["ok.py"]

    def test_jobs_parity(self, tmp_path):
        # Fan-out must not change results: same findings with 1 or 4 workers.
        target = tmp_path / "src" / "repro" / "replay"
        target.mkdir(parents=True)
        (target / "a.py").write_text(JITTER)
        (target / "b.py").write_text(HELD_SLEEP)
        outputs = {}
        for jobs in ("1", "4"):
            result = self.run_tool(tmp_path, "--jobs", jobs, "src")
            assert result.returncode == 1
            outputs[jobs] = [
                line for line in result.stdout.splitlines() if "[" in line
            ]
        assert outputs["1"] == outputs["4"]

    @staticmethod
    def run_tool(root, *argv):
        return subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "staticcheck"),
                "--root",
                str(root),
                "--no-baseline",
                *argv,
            ],
            capture_output=True,
            text=True,
        )

    def test_repo_is_clean_with_committed_baseline(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "staticcheck")],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, f"staticcheck findings:\n{result.stdout}"
        assert "0 finding(s)" in result.stdout

    def test_repo_is_lint_clean(self):
        # The dead-import, stale-export and determinism rules admit no
        # baseline entries: the repo is clean of them outright.
        result = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "staticcheck"),
                "--no-baseline",
                "--select",
                "unused-import,undefined-export,determinism",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, f"lint findings:\n{result.stdout}"
        assert "0 finding(s)" in result.stdout

    def test_unknown_rule_is_usage_error(self, tmp_path):
        result = self.run_tool(tmp_path, "--select", "nope")
        assert result.returncode == 2

    def test_json_output_artifact(self, tmp_path):
        target = tmp_path / "src" / "repro" / "replay"
        target.mkdir(parents=True)
        (target / "a.py").write_text(JITTER)
        out = tmp_path / "report.json"
        result = self.run_tool(
            tmp_path, "--format", "json", "--json-output", str(out), "src"
        )
        assert result.returncode == 1
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.staticcheck/1"
        assert payload["findings"][0]["rule"] == "determinism"
        assert json.loads(result.stdout) == payload

    def test_pr5_bug_fixtures_fail_the_gate(self, tmp_path):
        """One tree holding all three PR 5 bug shapes exits 1 and names
        each responsible rule."""
        api = tmp_path / "src" / "repro" / "api"
        replay = tmp_path / "src" / "repro" / "replay"
        api.mkdir(parents=True)
        replay.mkdir(parents=True)
        (api / "cache.py").write_text(TORN_STATS)  # torn cache-stat reads
        (api / "http.py").write_text(HELD_SLEEP)  # slot held across backoff
        (replay / "retry.py").write_text(JITTER)  # irreproducible 503 retry
        result = self.run_tool(tmp_path, "src")
        assert result.returncode == 1
        for rule in ("lock-discipline", "blocking-while-locked", "determinism"):
            assert f"[{rule}]" in result.stdout

    def test_baseline_accepts_then_expires(self, tmp_path):
        target = tmp_path / "src" / "repro" / "replay"
        target.mkdir(parents=True)
        fixture = target / "a.py"
        fixture.write_text(JITTER)
        baseline = tmp_path / "baseline.json"

        def run(*argv):
            return subprocess.run(
                [
                    sys.executable,
                    str(REPO_ROOT / "tools" / "staticcheck"),
                    "--root",
                    str(tmp_path),
                    "--baseline",
                    str(baseline),
                    *argv,
                ],
                capture_output=True,
                text=True,
            )

        assert run("src").returncode == 1
        assert run("--write-baseline", "src").returncode == 0
        assert run("src").returncode == 0  # accepted
        fixture.write_text("import random\nrng = random.Random(7)\n")
        result = run("src")  # fixed -> the stale entry must expire
        assert result.returncode == 1
        assert "baseline-expired" in result.stdout
