"""The session facade: one object that owns the whole predictor stack.

A :class:`Session` is built from one declarative
:class:`~repro.api.config.SessionConfig` and assembles everything the
hand-wired consumers used to stitch together themselves — database,
hardware simulator, calibrated cost units, and the
:class:`~repro.service.PredictionService` engine with both cache layers.
It exposes the typed wire objects
(:class:`~repro.api.wire.PredictRequest` →
:class:`~repro.api.wire.PredictResponse`) plus lifecycle:
``warmup()``, ``stats()``, ``close()``, and context-manager use.

The facade is thread-safe (one lock serializes predictions — the engine
below shares mutable caches), which is what lets the HTTP front-end
(:func:`repro.serving.build_server`) drive one session from a threaded
server.
``PredictionService`` remains fully usable directly; it is the internal
engine, the session is the front door.

Every prediction takes one path. A batch is served once into the
engine's columns
(:meth:`~repro.service.PredictionService.predict_batch_columns`) under
one lock hold, read against one feedback snapshot, then rendered either as a
typed :class:`~repro.api.wire.BatchResponse` (:meth:`Session.predict_batch`)
or as its wire JSON text (:meth:`Session.predict_batch_json`) by
:mod:`repro.api.render`. A single request (:meth:`Session.predict`) is
that batch step on one query, with failures raised instead of isolated,
so a single answer equals its batch answer by construction.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

from ..calibration import Calibrator
from ..calibration.calibrator import CalibratedUnits
from ..core.predictor import Variant
from ..datagen import TpchConfig, generate_tpch
from ..errors import SessionError, WireError
from ..feedback import DEFAULT_TENANT, FeedbackRecalibrator
from ..hardware import PROFILES, HardwareSimulator
from ..service.service import BatchColumns, PredictionService
from ..storage import Database
from ..util import ensure_rng, freeze_startup_heap
from .config import SessionConfig
from .render import (
    ServedLevels,
    batch_json,
    batch_response,
    nested_levels,
    static_scale,
)
from .wire import (
    SCHEMA_VERSION,
    BatchRequest,
    BatchResponse,
    Observation,
    ObserveResponse,
    PredictRequest,
    PredictResponse,
    StatsSnapshot,
    _validate_fanout,
    check_emit_version,
)

__all__ = ["Session", "nested_levels", "static_scale"]


class Session:
    """The transport-agnostic front door to the predictor stack.

    The first session built in a process, by either constructor, ends
    by collecting and then freezing the heap, once per process
    (:func:`repro.util.freeze_startup_heap`, docs/api.md).
    """

    def __init__(self, config: SessionConfig | None = None):
        """Build the full stack from ``config`` (defaults when omitted).

        Generation and calibration are deterministic given the config,
        so constructing a session twice yields bitwise-identical
        predictors.
        """
        self._config = config or SessionConfig()
        self._database = generate_tpch(
            TpchConfig(
                scale_factor=self._config.scale_factor,
                skew_z=self._config.skew_z,
                seed=self._config.db_seed,
            )
        )
        self._simulator = HardwareSimulator(
            PROFILES[self._config.machine], rng=self._config.calibration_seed
        )
        self._units = Calibrator(
            self._simulator, repetitions=self._config.calibration_repetitions
        ).calibrate()
        self._finish_init()

    @classmethod
    def from_components(
        cls,
        database: Database,
        units: CalibratedUnits,
        config: SessionConfig | None = None,
        simulator: HardwareSimulator | None = None,
    ) -> "Session":
        """Wrap an existing database + calibration in a session.

        The bridge from the hand-wired era: callers that already hold a
        :class:`~repro.storage.Database` and
        :class:`~repro.calibration.CalibratedUnits` (tests, experiment
        labs) get the facade without regenerating either. The config's
        database/calibration fields are ignored; its estimator, cache,
        and default-fan-out fields still apply.
        """
        session = cls.__new__(cls)
        session._config = config or SessionConfig()
        session._database = database
        session._simulator = simulator
        session._units = units
        session._finish_init()
        return session

    def _finish_init(self) -> None:
        config = self._config
        # staticcheck: disable=lock-discipline — construction path: runs
        # before the session object is published to any other thread, so
        # these writes happen-before every locked access.
        self._service = PredictionService(
            self._database,
            self._units,
            sampling_ratio=config.sampling_ratio,
            num_copies=config.num_copies,
            seed=config.sampling_seed,
            grid_w=config.grid_w,
            use_gee=config.use_gee,
            method=config.estimator,
            cache_size=config.prepared_cache_size,
            sampling_engine_bytes=config.sampling_engine_bytes,
        )
        self._feedback = FeedbackRecalibrator(config.feedback())
        self._lock = threading.RLock()
        self._closed = False  # staticcheck: disable=lock-discipline — construction happens-before sharing
        # Later full collections then walk only what serving allocates.
        freeze_startup_heap()

    # -- introspection -----------------------------------------------------
    @property
    def config(self) -> SessionConfig:
        return self._config

    @property
    def database(self) -> Database:
        return self._database

    @property
    def units(self) -> CalibratedUnits:
        return self._units

    @property
    def simulator(self) -> HardwareSimulator:
        """The calibration simulator (ground-truth executions reuse it)."""
        if self._simulator is None:
            raise SessionError(
                "this session was built from components without a simulator"
            )
        return self._simulator

    @property
    def service(self) -> PredictionService:
        """The internal serving engine (advanced/diagnostic use)."""
        return self._service

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle ---------------------------------------------------------
    def warmup(self, queries: Iterable[str] | None = None) -> int:
        """Pre-plan and pre-prepare queries so first requests serve warm.

        With ``queries=None``, one instantiation of every TPC-H template
        is pushed through the engine. Returns the number of queries that
        warmed successfully (failures are skipped, not raised).
        """
        if queries is None:
            from ..workloads.tpch_templates import TPCH_TEMPLATES

            rng = ensure_rng(self._config.db_seed)
            queries = [
                template.instantiate(rng) for template in TPCH_TEMPLATES
            ]
        with self._lock:
            self._ensure_open()
            batch = self._service.predict_batch(
                queries,
                variants=self._config.variants(),
                mpls=self._config.default_mpls,
                skip_failures=True,
            )
        return len(batch)

    def stats(self) -> StatsSnapshot:
        """A point-in-time snapshot of serving counters and cache stats.

        Returns the typed :class:`~repro.api.wire.StatsSnapshot`: the
        engine's :class:`~repro.service.ServiceReport` (whose attribute
        surface the snapshot delegates, so pre-v2 callers keep working)
        plus the feedback loop's per-tenant calibration state.

        Safe — and non-blocking — to call concurrently with traffic:
        the engine copies each layer's counters atomically under that
        layer's own lock (see :meth:`PredictionService.report
        <repro.service.PredictionService.report>`), so a monitoring
        probe neither observes torn :class:`~repro.caching.CacheStats`
        nor waits behind an in-flight batch holding the session lock.
        The feedback snapshot likewise copies under the recalibrator's
        own short-held lock.
        """
        return StatsSnapshot(
            report=self._service.report(),
            feedback=self._feedback.stats(),
        )

    def close(self) -> None:
        """Release cached artifacts; further predictions raise.

        Idempotent. The session holds no OS resources — closing exists
        so pooled deployments can drop the (potentially large) sample
        and prepared-artifact caches deterministically.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._service.prepared_cache.clear()
            self._service.fit_memo.clear()
            engine = self._service.sampling_engine
            if engine is not None:
                engine.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise SessionError("session is closed")

    # -- planning ----------------------------------------------------------
    def plan(self, sql: str):
        """Plan one SQL string through the engine's memoized optimizer."""
        with self._lock:
            self._ensure_open()
            return self._service.plan(sql)

    def explain(self, sql: str) -> str:
        """The optimized plan of ``sql``, rendered for humans."""
        return self.plan(sql).explain()

    # -- serving -----------------------------------------------------------
    def predict(self, request: PredictRequest | str) -> PredictResponse:
        """Serve one prediction request (a bare SQL string is accepted).

        The request is served as a batch of one, through the same
        columns and rendering as :meth:`predict_batch`, except that a
        query that cannot be served raises instead of becoming a
        failure entry.
        """
        if isinstance(request, str):
            request = PredictRequest(sql=request)
        columns, levels = self._serve((request.sql,), request, skip_failures=False)
        return batch_response(columns, levels).responses[0]

    def predict_batch(
        self, batch: BatchRequest | Sequence[str]
    ) -> BatchResponse:
        """Serve a whole batch (a sequence of SQL strings is accepted).

        With the default ``skip_failures=True`` a query that cannot be
        planned or predicted becomes a coded
        :class:`~repro.service.QueryFailure` in the response instead of
        failing the batch.

        The resolved confidence fan-out is passed down so the engine's
        batch kernels precompute every interval bound in the same array
        pass. :meth:`predict` serves one query through this same step,
        so each response is what it serves for the same SQL and fan-out.
        """
        return batch_response(*self._serve_batch(batch))

    def predict_batch_json(
        self, batch: BatchRequest | Sequence[str], version: int = SCHEMA_VERSION
    ) -> str:
        """Serve a batch as its wire JSON text at schema ``version``.

        Byte-identical to ``dumps(self.predict_batch(batch)
        .to_dict(version))``, rendered straight from the kernels' arrays
        with no per-cell object (:func:`repro.api.render.batch_json`);
        the ``/v1/predict-batch`` endpoint writes it as is.
        """
        check_emit_version(version)
        return batch_json(*self._serve_batch(batch), version)

    def _serve_batch(
        self, batch: BatchRequest | Sequence[str]
    ) -> tuple[BatchColumns, ServedLevels]:
        if not isinstance(batch, BatchRequest):
            batch = BatchRequest(queries=tuple(batch))
        return self._serve(batch.queries, batch, batch.skip_failures)

    def _serve(
        self,
        queries: Sequence[str],
        request: PredictRequest | BatchRequest,
        skip_failures: bool,
    ) -> tuple[BatchColumns, ServedLevels]:
        """Serve ``queries`` at ``request``'s fan-out into columns and read
        its one feedback snapshot.

        The engine runs under one hold of the session lock; the tenant's
        calibration state is then read once for the whole batch, so
        every response is served under the same state, whatever
        ``observe`` calls land meanwhile.
        """
        variants, mpls, confidences = self._fanout(
            request.variants, request.mpls, request.confidences
        )
        tenant = request.tenant if request.tenant is not None else DEFAULT_TENANT
        with self._lock:
            self._ensure_open()
            columns = self._service.predict_batch_columns(
                queries,
                variants=variants,
                mpls=mpls,
                skip_failures=skip_failures,
                confidences=confidences,
            )
        return columns, ServedLevels.snapshot(self._feedback, tenant, confidences)

    def estimate(self, sql: str) -> tuple[float, float]:
        """Predicted ``(mean, std)`` seconds for ``sql`` — the scheduler's ticket.

        Runs the engine's cached prepare path for the first default
        variant at MPL 1: behind the prepared caches this is a hash
        lookup plus convolution, cheap enough to run at *enqueue* time
        for every deferred request. It does bump the serving counters
        (the scheduler's estimates are real predictions); the FIFO
        admission path never calls it, so counter parity with the
        pre-scheduler stack is preserved there.
        """
        variant = Variant.from_name(self._config.default_variants[0])
        with self._lock:
            self._ensure_open()
            prediction = self._service.predict_query(
                sql, variants=(variant,), mpls=(1,)
            )
        result = prediction.results[(variant, 1)]
        return result.mean, result.std

    # -- feedback ----------------------------------------------------------
    def observe(self, observation: Observation) -> ObserveResponse:
        """Feed one actual runtime back into the calibration loop.

        When the observation carries ``predicted_mean``/``predicted_std``
        (the distribution the caller was served) the residual is formed
        directly; otherwise the session re-predicts ``sql`` at the
        observation's ``(variant, mpl)`` to recover them — cheap behind
        the prepared caches, but it does bump the serving counters.

        Observations move only their own tenant's calibration window;
        a session that never observes serves bitwise-identical responses
        to the pre-feedback stack.
        """
        if not isinstance(observation, Observation):
            raise WireError(
                "observe() needs a repro.api.Observation, "
                f"got {type(observation).__name__}"
            )
        mean = observation.predicted_mean
        std = observation.predicted_std
        if mean is None:
            variant = Variant.from_name(observation.variant)
            with self._lock:
                self._ensure_open()
                prediction = self._service.predict_query(
                    observation.sql,
                    variants=(variant,),
                    mpls=(observation.mpl,),
                )
            result = prediction.results[(variant, observation.mpl)]
            mean, std = result.mean, result.std
        outcome = self._feedback.observe(
            observation.tenant, mean, std, observation.actual_seconds
        )
        return ObserveResponse(
            tenant=outcome.tenant,
            observations=outcome.observations,
            window_fill=outcome.window_fill,
            active=outcome.active,
            drift_detected=outcome.drift_detected,
            drifts_total=outcome.drifts_total,
            scale=outcome.scale,
        )

    # -- internals ---------------------------------------------------------
    def _fanout(self, variants, mpls, confidences):
        """Resolve request-level overrides against the config defaults.

        Validation delegates to the one wire-schema validator
        (:func:`repro.api.wire._validate_fanout`), so callers bypassing
        the typed request objects hit the same rules and the same error
        taxonomy (WireError -> HTTP 400) as everyone else.
        """
        names = variants if variants is not None else self._config.default_variants
        mpls = tuple(mpls) if mpls is not None else self._config.default_mpls
        confidences = (
            tuple(confidences)
            if confidences is not None
            else self._config.default_confidences
        )
        _validate_fanout(names, mpls, confidences)
        resolved = tuple(Variant.from_name(name) for name in names)
        return resolved, mpls, confidences
