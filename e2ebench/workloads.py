"""The three workloads: seeded inputs, set-up, timed phase, verification.

Every workload runs against the default system, ``SessionConfig()``,
with the fan-out spelled out on each request. Each one is closed-loop:
a caller sends its next request only after the previous one answered.

* ``cold-stream`` — one caller, in-process ``Session.predict`` on SQL
  never seen before. Preparing the query (optimizer, sampling pass,
  cost-function fitting) is nearly all of the time.
* ``batch-http`` — one caller posting ``/v1/predict-batch`` requests
  of :attr:`Shape.batch_queries` queries drawn from a pool prepared
  during set-up, with the full 4 variants x 3 MPLs x 3 confidences
  fan-out. Nothing is prepared while timed; assembly, response
  building and the JSON codec are the work.
* ``online-mix`` — two callers sending single requests over HTTP:
  80% warm predicts over a small pool, 15% observes feeding the
  tenant's feedback window with the pool's ground-truth runtimes, 5%
  never-seen SQL. Transport sets the median, cold requests behind the
  session lock set the tail.

  ``BENCHMARK.json`` does not list online-mix: every full-size run
  fails its nesting check. ``Session`` picks the feedback scale or the
  static z for each confidence on its own, so once the window holds
  enough scores for 0.9 but not for 0.99, and the ground truth's q_0.9
  exceeds 2.576, the 90% interval is served wider than the 99% one.
  The workload stays runnable (``--workload online-mix``) to show the
  failure, and can be listed again once the program serves nested
  intervals.

The scored queries (the "probe") are the same in every run: they come
from a fixed seed, so the quality metrics compare predictors rather
than query draws. The batch-http and online-mix pools are prefixes of
the probe. Everything else comes from the run's ``--seed``.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from checks import (
    actual_seconds,
    batch_problem,
    feedback_difference,
    first_difference,
    interval_point,
    observe_problem,
    predict_problem,
)
from repro.api import (
    BatchRequest,
    Observation,
    PredictRequest,
    Session,
    SessionConfig,
)
from repro.workloads.tpch_templates import TPCH_TEMPLATES
from stack import TEARDOWN_SECONDS, ServingStack, TeardownError

#: Seed of the probe queries, fixed across runs (see the module docstring).
PROBE_SEED = 1409

CONFIDENCES = (0.5, 0.9, 0.99)
SINGLE_FANOUT = {"variants": ("all",), "mpls": (1,), "confidences": CONFIDENCES}
BATCH_FANOUT = {
    "variants": ("all", "novar[c]", "novar[x]", "nocov"),
    "mpls": (1, 2, 4),
    "confidences": CONFIDENCES,
}

#: online-mix request kinds. Each caller deals them from seeded shuffles
#: of this deck, so every run has the same shares: 80% warm predicts,
#: 15% observes, 5% never-seen SQL.
MIX_DECK = ("warm",) * 16 + ("observe",) * 3 + ("cold",)
#: Share of online-mix predict responses kept for the bitwise check.
MIX_VERIFY_SHARE = 1 / 16


@dataclass(frozen=True)
class Shape:
    """Every size a workload uses, fixed rather than calibrated."""

    #: set-ups per run; ``setup_s`` reports their median
    setup_repeats: int
    #: seed-independent scored queries
    probe_queries: int
    #: cold-stream queries served before timing (fills the sampling engine)
    cold_warmup: int
    #: cold-stream responses re-served warm and with the engine off
    cold_verify: int
    #: batch-http's pool (a prefix of the probe), prepared in set-up
    batch_pool: int
    batch_queries: int
    #: batch-http batches re-served in process, drawn from the first 64
    batch_verify: int
    #: online-mix warm pool (a prefix of the probe)
    mix_pool: int


#: The sizes every benchmark run uses (the self-test passes a tiny shape).
#: With 128 scored queries, one query crossing the 90% interval's edge
#: moves ``coverage_gap_90`` by about an eighth of its value. Cold-stream's
#: sampling-engine hit ratio is flat after about 200 warm-up queries.
FULL = Shape(
    setup_repeats=3, probe_queries=128, cold_warmup=300, cold_verify=24,
    batch_pool=96, batch_queries=48, batch_verify=8, mix_pool=48,
)


def fresh_sql(rng, seen: set):
    """Endless TPC-H template instantiations not in ``seen`` (grows it)."""
    while True:
        template = TPCH_TEMPLATES[int(rng.integers(len(TPCH_TEMPLATES)))]
        sql = template.instantiate(rng)
        if sql not in seen:
            seen.add(sql)
            yield sql


def deal(rng):
    """Endless request kinds: seeded shuffles of :data:`MIX_DECK`."""
    while True:
        for index in rng.permutation(len(MIX_DECK)):
            yield MIX_DECK[index]


def probe_queries(count: int) -> list[str]:
    return list(itertools.islice(
        fresh_sql(np.random.default_rng(PROBE_SEED), set()), count
    ))


@dataclass
class Phase:
    """What one timed phase did."""

    #: seconds per completed request
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: queries answered (a batch answers many; an observe answers none)
    queries: int = 0
    elapsed: float = 0.0
    #: the first few failed checks, and how many failed in all
    problems: list[str] = field(default_factory=list)
    problem_count: int = 0

    def problem(self, message: str) -> None:
        self.problem_count += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def fail(self, error: Exception) -> None:
        self.failed += 1
        self.problem(f"request failed: {type(error).__name__}: {error}")

    def merge(self, other: "Phase") -> None:
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.queries += other.queries
        self.problems += other.problems
        self.problem_count += other.problem_count

    def report(self) -> list[str]:
        """The kept problems, plus a count of those not kept."""
        hidden = self.problem_count - len(self.problems)
        return self.problems + (
            [f"... and {hidden} more failed checks"] if hidden else []
        )


class Workload:
    """A workload's stack: built by :meth:`build`, released by :meth:`close`."""

    name = ""
    #: the tenant the probe is scored on after timing
    scoring_tenant: str | None = None

    def __init__(self, seed: int, shape: Shape):
        self.seed = seed
        self.shape = shape
        self.probe = probe_queries(shape.probe_queries)
        self.session: Session | None = None
        self.stack: ServingStack | None = None

    def build(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop serving (bounded) and release the session; idempotent."""
        stack, self.stack = self.stack, None
        if stack is not None:
            stack.close()
        if self.session is not None:
            self.session.close()

    def refused(self) -> int:
        """Requests the admission gate refused so far (0 in process)."""
        return self.stack.policy.stats().refused_total if self.stack else 0

    def run(self, seconds: float) -> Phase:
        raise NotImplementedError

    def throughput(self, phase: Phase) -> float:
        """Queries completed per second of the phase."""
        return phase.queries / phase.elapsed

    def verify(self) -> list[str]:
        raise NotImplementedError

    def quality_set(self) -> tuple[list[str], list[tuple]]:
        """Scored queries and their served ``(mean, std, low90, high90)``.

        The probe, served in process after timing.
        """
        return self.probe, [
            interval_point(self.serve_scored(sql)) for sql in self.probe
        ]

    def serve_scored(self, sql: str):
        """``sql`` served in process to :attr:`scoring_tenant`."""
        return self.session.predict(PredictRequest(
            sql=sql, tenant=self.scoring_tenant, **SINGLE_FANOUT
        ))


def _closed_loop(phase: Phase, seconds: float, send) -> None:
    """Call ``send(phase)`` until ``seconds`` have passed; time the phase."""
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        send(phase)
    phase.elapsed = time.perf_counter() - start


def _compare(served, session, label: str) -> list[str]:
    """Serve each ``(request, response)`` again on ``session``; list diffs."""
    problems = []
    for request, response in served:
        found = first_difference(response, session.predict(request))
        if found:
            problems.append(f"{label} differs: {found}")
    return problems


class ColdStream(Workload):
    name = "cold-stream"

    def __init__(self, seed, shape):
        super().__init__(seed, shape)
        stream = fresh_sql(np.random.default_rng(seed), set(self.probe))
        self.warmup = list(itertools.islice(stream, shape.cold_warmup))
        # Timing starts with the probe, then continues the warm-up stream.
        self._timed = itertools.chain(self.probe, stream)
        self.served: list[tuple] = []

    def build(self):
        self.session = Session(SessionConfig())
        for sql in self.warmup:
            self.session.predict(PredictRequest(sql=sql, **SINGLE_FANOUT))

    def run(self, seconds):
        phase = Phase()

        def send(phase):
            request = PredictRequest(sql=next(self._timed), **SINGLE_FANOUT)
            phase.attempted += 1
            started = time.perf_counter()
            try:
                response = self.session.predict(request)
            except Exception as error:  # noqa: BLE001 — counted, run goes on
                phase.fail(error)
                return
            phase.latencies.append(time.perf_counter() - started)
            phase.queries += 1
            problem = predict_problem(response, SINGLE_FANOUT)
            if problem:
                phase.problem(f"{request.sql[:60]}: {problem}")
            self.served.append((request, response))

        _closed_loop(phase, seconds, send)
        return phase

    def verify(self):
        """Re-serve a seeded subset warm, then on a sampling-engine-off session."""
        rng = np.random.default_rng([self.seed, 1])
        picks = rng.choice(
            len(self.served),
            size=min(self.shape.cold_verify, len(self.served)),
            replace=False,
        )
        subset = [self.served[index] for index in sorted(picks)]
        problems = _compare(subset, self.session, "warm re-serve")
        self.session.close()  # frees its caches before a second session
        engine_off = Session(SessionConfig(sampling_engine_bytes=0))
        try:
            problems += _compare(subset, engine_off, "engine-off serve")
        finally:
            engine_off.close()
        return problems

    def quality_set(self):
        """The timed responses to the probe, which timing starts with."""
        scored = self.served[: len(self.probe)]
        return (
            [request.sql for request, _ in scored],
            [interval_point(response) for _, response in scored],
        )


class BatchHttp(Workload):
    name = "batch-http"

    def __init__(self, seed, shape):
        super().__init__(seed, shape)
        self.pool = self.probe[: shape.batch_pool]
        self._rng = np.random.default_rng(seed)
        keep = np.random.default_rng([self.seed, 1]).choice(
            64, size=shape.batch_verify, replace=False
        )
        self._keep = {0, *keep.tolist()}
        self._batches = 0
        self.kept: list[tuple] = []

    def build(self):
        self.session = Session(SessionConfig())
        self.session.predict_batch(
            BatchRequest(queries=tuple(self.pool), **BATCH_FANOUT)
        )
        self.stack = ServingStack(self.session, callers=1)

    def run(self, seconds):
        client = self.stack.clients[0]
        phase = Phase()

        def send(phase):
            picks = self._rng.choice(
                len(self.pool), size=self.shape.batch_queries, replace=False
            )
            request = BatchRequest(
                queries=tuple(self.pool[index] for index in picks),
                **BATCH_FANOUT,
            )
            phase.attempted += 1
            started = time.perf_counter()
            try:
                response = client.predict_batch(request)
            except Exception as error:  # noqa: BLE001 — counted, run goes on
                phase.fail(error)
                return
            phase.latencies.append(time.perf_counter() - started)
            phase.queries += len(request.queries)
            problem = batch_problem(response, request, BATCH_FANOUT)
            if problem:
                phase.problem(f"batch {self._batches}: {problem}")
            if self._batches in self._keep:
                self.kept.append((request, response))
            self._batches += 1

        _closed_loop(phase, seconds, send)
        return phase

    def verify(self):
        """Kept HTTP responses must equal in-process ``predict_batch``."""
        problems = []
        for request, response in self.kept:
            found = first_difference(response, self.session.predict_batch(request))
            if found:
                problems.append(f"HTTP batch differs from in-process: {found}")
        return problems


class OnlineMix(Workload):
    name = "online-mix"
    callers = 2
    tenant = "e2ebench"
    # A reference tenant that never observes, so it is always served the
    # static intervals. Responses are checked against it, and the probe
    # is scored on it: the served means and stds are checked equal, and
    # the static intervals do not depend on the run's timing as the
    # feedback-scaled ones do.
    scoring_tenant = "e2ebench-reference"

    def __init__(self, seed, shape):
        super().__init__(seed, shape)
        self.pool = self.probe[: shape.mix_pool]
        self._cold = fresh_sql(np.random.default_rng(seed), set(self.probe))
        self._cold_lock = threading.Lock()
        self._rngs = [
            np.random.default_rng([seed, 2, caller])
            for caller in range(self.callers)
        ]
        self._keep_rngs = [
            np.random.default_rng([seed, 3, caller])
            for caller in range(self.callers)
        ]
        self._kinds = [
            deal(np.random.default_rng([seed, 4, caller]))
            for caller in range(self.callers)
        ]
        self.kept: list = []
        #: the pool's runtimes on the ground-truth simulator
        self.actuals: list[float] = []
        #: sql -> (served mean, served std, ground-truth runtime)
        self.observed: dict[str, tuple[float, float, float]] = {}

    def build(self):
        self.session = Session(SessionConfig())
        served = self.session.predict_batch(
            BatchRequest(queries=tuple(self.pool), **SINGLE_FANOUT)
        )
        # The ground truth is the benchmark's oracle, not set-up of the
        # system, and every build's database is the same: it is computed
        # in the first build only, which the median of set-ups drops.
        if not self.actuals:
            self.actuals = actual_seconds(self.session, self.pool)
        # Observes report the distribution served for their query and
        # its ground-truth runtime.
        self.observed = {
            response.sql: (*interval_point(response)[:2], actual)
            for response, actual in zip(
                served.responses, self.actuals, strict=True
            )
        }
        self.stack = ServingStack(self.session, callers=self.callers)

    def _request(self, rng, kinds):
        kind = next(kinds)
        if kind != "cold":
            sql = self.pool[int(rng.integers(len(self.pool)))]
            if kind == "warm":
                return PredictRequest(sql=sql, tenant=self.tenant, **SINGLE_FANOUT)
            mean, std, actual = self.observed[sql]
            return Observation(
                sql=sql, actual_seconds=actual, tenant=self.tenant,
                predicted_mean=mean, predicted_std=std,
            )
        with self._cold_lock:
            sql = next(self._cold)
        return PredictRequest(sql=sql, tenant=self.tenant, **SINGLE_FANOUT)

    def _caller(self, caller, deadline, phase, stop):
        client = self.stack.clients[caller]
        rng, keep_rng = self._rngs[caller], self._keep_rngs[caller]
        kinds = self._kinds[caller]
        kept_first = False
        try:
            while not stop.is_set() and time.perf_counter() < deadline:
                request = self._request(rng, kinds)
                phase.attempted += 1
                started = time.perf_counter()
                try:
                    if isinstance(request, Observation):
                        response = client.observe(request)
                    else:
                        response = client.predict(request)
                except Exception as error:  # noqa: BLE001 — counted, run goes on
                    phase.fail(error)
                    continue
                phase.latencies.append(time.perf_counter() - started)
                if isinstance(request, Observation):
                    problem = observe_problem(response, self.tenant)
                else:
                    phase.queries += 1
                    problem = predict_problem(response, SINGLE_FANOUT)
                    if not kept_first or keep_rng.random() < MIX_VERIFY_SHARE:
                        kept_first = True
                        self.kept.append(response)
                if problem:
                    phase.problem(f"{request.sql[:60]}: {problem}")
        except Exception as error:  # noqa: BLE001 — reported as a failed check
            phase.problem(f"caller {caller} crashed: {error!r}")

    def run(self, seconds):
        stop = threading.Event()
        phases = [Phase() for _ in range(self.callers)]
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=self._caller,
                args=(caller, start + seconds, phases[caller], stop),
                name=f"e2ebench-caller-{caller}",
                daemon=True,  # as the serving thread: never blocks exit
            )
            for caller in range(self.callers)
        ]
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                while thread.is_alive():
                    thread.join(0.2)  # short waits keep signals deliverable
        finally:
            stop.set()
            for thread in threads:
                thread.join(TEARDOWN_SECONDS)
                if thread.is_alive():
                    raise TeardownError(f"{thread.name} did not stop")
        merged = Phase(elapsed=time.perf_counter() - start)
        for phase in phases:
            merged.merge(phase)
        return merged

    def throughput(self, phase):
        """Requests (predicts and observes) completed per second."""
        return len(phase.latencies) / phase.elapsed

    def verify(self):
        """Distributions equal in-process; intervals follow the feedback scale."""
        problems = []
        for response in self.kept:
            found = feedback_difference(response, self.serve_scored(response.sql))
            if found:
                problems.append(f"{response.sql[:60]}: {found}")
        return problems


WORKLOADS = {
    workload.name: workload for workload in (ColdStream, BatchHttp, OnlineMix)
}
