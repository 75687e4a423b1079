"""The uncertainty-aware scheduling tier (repro.scheduler + serving glue).

Covers the predicted-cost queue (memoized estimation, structural
invariants), the three policies (fifo / edf-slack / budget-fair) and
their determinism properties — equal-deadline ties break by arrival
order, dispatch order is invariant to how many threads fed the queue,
a drained queue carries zero state — plus the deficit-round-robin
budgets, the SchedulingAdmission policy (deferral, dispatch on release,
queue-full refusal, timeouts, predicted-drain Retry-After), the v2 wire
fields (deadline_ms / priority / scheduler stats section), and the
config-driven build_admission factory.
"""

import threading

import pytest

from repro.api import Session, SessionConfig
from repro.api.wire import (
    BatchRequest,
    PredictRequest,
    SchedulerStats,
    StatsSnapshot,
    decode,
    encode,
)
from repro.errors import SchedulerError, SessionError, WireError, error_code
from repro.scheduler import (
    DEFAULT_SLACK,
    SCHEDULER_POLICIES,
    BudgetFairPolicy,
    CostEstimate,
    EdfSlackPolicy,
    FifoPolicy,
    PredictedCostQueue,
    QueueEntry,
    TenantBudgets,
    make_policy,
)
from repro.serving import (
    AdmissionGate,
    BoundedInFlight,
    SchedulingAdmission,
    build_admission,
)
from repro.serving.app import SessionApp, WireApp
from repro.serving.transport import WireResponse


def entry(
    tenant="acme",
    deadline=1.0,
    priority=0,
    mean=0.01,
    std=0.0,
    arrival=0.0,
):
    return QueueEntry(
        arrival_seconds=arrival,
        tenant=tenant,
        deadline_seconds=deadline,
        priority=priority,
        estimate=CostEstimate(mean=mean, std=std),
    )


def drain(queue, policy):
    """Dispatch order of everything currently queued."""
    order = []
    while True:
        popped = queue.pop_next(policy)
        if popped is None:
            return order
        order.append(popped)


# ---------------------------------------------------------------------------
# PredictedCostQueue


class TestPredictedCostQueue:
    def test_push_assigns_increasing_seq(self):
        queue = PredictedCostQueue()
        first = queue.push(entry())
        second = queue.push(entry())
        assert (first.seq, second.seq) == (0, 1)
        assert queue.depth() == 2

    def test_estimates_are_memoized_per_sql(self):
        calls = []

        def estimator(sql):
            calls.append(sql)
            return 0.25, 0.05

        queue = PredictedCostQueue(estimator)
        for _ in range(3):
            estimate = queue.estimate("SELECT 1")
        assert estimate == CostEstimate(mean=0.25, std=0.05)
        assert calls == ["SELECT 1"]
        assert queue.estimate_cache_entries() == 1

    def test_estimator_failure_becomes_zero_estimate(self):
        def estimator(sql):
            raise RuntimeError("unplannable")

        queue = PredictedCostQueue(estimator)
        assert queue.estimate("garbage") == CostEstimate()

    def test_missing_sql_or_estimator_is_zero_cost(self):
        assert PredictedCostQueue().estimate("SELECT 1") == CostEstimate()
        assert PredictedCostQueue(lambda s: (1.0, 0.0)).estimate(None) == (
            CostEstimate()
        )

    def test_cache_eviction_is_bounded_fifo(self):
        queue = PredictedCostQueue(lambda sql: (1.0, 0.0), cache_size=2)
        for sql in ("a", "b", "c"):
            queue.estimate(sql)
        assert queue.estimate_cache_entries() == 2

    def test_rejects_nonpositive_cache_size(self):
        with pytest.raises(SchedulerError, match="cache_size"):
            PredictedCostQueue(cache_size=0)

    def test_predicted_seconds_sums_queued_means(self):
        queue = PredictedCostQueue()
        queue.push(entry(mean=0.2))
        queue.push(entry(mean=0.3))
        assert queue.predicted_seconds() == pytest.approx(0.5)

    def test_remove_tolerates_already_dispatched(self):
        queue = PredictedCostQueue()
        queued = queue.push(entry())
        queue.pop_next(FifoPolicy())
        queue.remove(queued)  # no raise
        assert queue.depth() == 0

    def test_remove_that_empties_queue_drains_policy_state(self):
        queue = PredictedCostQueue()
        policy = BudgetFairPolicy(quantum_seconds=1.0)
        queued = queue.push(entry(tenant="acme"))
        queue.pop_next(policy)  # rotation now knows acme... via another push
        queued = queue.push(entry(tenant="acme"))
        policy.select([queued])
        assert policy.budgets.tenants() == ("acme",)
        queue.remove(queued, policy)
        assert policy.budgets.tenants() == ()


# ---------------------------------------------------------------------------
# policies


class TestFifoPolicy:
    def test_selects_arrival_order(self):
        queue = PredictedCostQueue()
        entries = [queue.push(entry()) for _ in range(3)]
        assert drain(queue, FifoPolicy()) == entries


class TestEdfSlackPolicy:
    def test_earliest_deadline_first(self):
        queue = PredictedCostQueue()
        late = queue.push(entry(deadline=10.0))
        soon = queue.push(entry(deadline=1.0))
        assert drain(queue, EdfSlackPolicy()) == [soon, late]

    def test_uncertain_prediction_dispatches_first_at_equal_deadline(self):
        # Same deadline, same mean: the entry whose predicted time is
        # less certain has the earlier *effective* deadline.
        queue = PredictedCostQueue()
        certain = queue.push(entry(deadline=5.0, std=0.0))
        uncertain = queue.push(entry(deadline=5.0, std=1.0))
        assert drain(queue, EdfSlackPolicy(slack=1.0)) == [uncertain, certain]

    def test_zero_slack_ignores_uncertainty(self):
        queue = PredictedCostQueue()
        certain = queue.push(entry(deadline=5.0, std=0.0))
        uncertain = queue.push(entry(deadline=5.0, std=1.0))
        assert drain(queue, EdfSlackPolicy(slack=0.0)) == [certain, uncertain]

    def test_priority_dominates_deadline(self):
        queue = PredictedCostQueue()
        urgent = queue.push(entry(deadline=0.1, priority=0))
        important = queue.push(entry(deadline=60.0, priority=5))
        assert drain(queue, EdfSlackPolicy()) == [important, urgent]

    def test_effective_deadline_formula(self):
        policy = EdfSlackPolicy(slack=2.0)
        queued = entry(arrival=10.0, deadline=1.0, std=0.25)
        assert policy.effective_deadline(queued) == pytest.approx(10.5)

    def test_rejects_negative_or_non_finite_slack(self):
        with pytest.raises(SchedulerError, match="slack"):
            EdfSlackPolicy(slack=-0.1)
        with pytest.raises(SchedulerError, match="slack"):
            EdfSlackPolicy(slack=float("nan"))


class TestMakePolicy:
    def test_builds_every_registered_policy(self):
        for name in SCHEDULER_POLICIES:
            assert make_policy(name).name == name

    def test_unknown_name_raises_coded_scheduler_error(self):
        with pytest.raises(SchedulerError) as excinfo:
            make_policy("lifo")
        assert error_code(excinfo.value) == "scheduler"

    def test_default_slack_is_95th_normal_quantile(self):
        assert DEFAULT_SLACK == pytest.approx(1.645)


# ---------------------------------------------------------------------------
# tenant budgets


class TestTenantBudgets:
    def test_equal_costs_alternate_between_tenants(self):
        queue = PredictedCostQueue()
        a = [queue.push(entry(tenant="a", mean=0.05)) for _ in range(2)]
        b = [queue.push(entry(tenant="b", mean=0.05)) for _ in range(2)]
        order = drain(queue, BudgetFairPolicy(quantum_seconds=0.05))
        assert order == [a[0], b[0], a[1], b[1]]

    def test_fairness_is_in_predicted_seconds_not_requests(self):
        # Tenant "cheap" issues 10 ms requests, tenant "heavy" 50 ms
        # ones: over one heavy dispatch, cheap gets ~5 requests through.
        queue = PredictedCostQueue()
        for _ in range(10):
            queue.push(entry(tenant="cheap", mean=0.01))
        for _ in range(2):
            queue.push(entry(tenant="heavy", mean=0.05))
        order = drain(queue, BudgetFairPolicy(quantum_seconds=0.01))
        first_heavy = next(
            i for i, e in enumerate(order) if e.tenant == "heavy"
        )
        cheap_before = sum(
            1 for e in order[:first_heavy] if e.tenant == "cheap"
        )
        assert cheap_before >= 4

    def test_within_tenant_order_is_arrival_order(self):
        queue = PredictedCostQueue()
        first = queue.push(entry(tenant="a", mean=0.2))
        second = queue.push(entry(tenant="a", mean=0.001))
        assert drain(queue, BudgetFairPolicy(quantum_seconds=0.2)) == [
            first,
            second,
        ]

    def test_idle_tenant_loses_its_deficit(self):
        budgets = TenantBudgets(quantum_seconds=0.05)
        queued = entry(tenant="a", mean=0.05)
        queued.seq = 0
        assert budgets.choose([queued]) is queued
        budgets.charge(queued)
        # "a" no longer queues anything; a round with only "b" present
        # must drop a's deficit entirely.
        other = entry(tenant="b", mean=0.05)
        other.seq = 1
        budgets.choose([other])
        assert budgets.deficit("a") == 0.0

    def test_choose_on_empty_raises(self):
        with pytest.raises(SchedulerError, match="empty"):
            TenantBudgets().choose([])

    def test_rejects_nonpositive_quantum(self):
        with pytest.raises(SchedulerError, match="quantum_seconds"):
            TenantBudgets(quantum_seconds=0.0)
        with pytest.raises(SessionError, match="quantum_seconds"):
            SessionConfig(scheduler_quantum_seconds=-1.0)

    def test_clear_zeroes_everything(self):
        budgets = TenantBudgets()
        queued = entry(tenant="a", mean=0.01)
        queued.seq = 0
        budgets.choose([queued])
        budgets.clear()
        assert budgets.tenants() == ()
        assert budgets.deficit("a") == 0.0


# ---------------------------------------------------------------------------
# determinism properties


class TestDispatchDeterminism:
    def test_equal_deadline_ties_break_by_arrival_order(self):
        for policy in (
            FifoPolicy(),
            EdfSlackPolicy(),
            BudgetFairPolicy(quantum_seconds=0.05),
        ):
            queue = PredictedCostQueue()
            entries = [
                queue.push(entry(tenant="t", deadline=5.0, mean=0.01))
                for _ in range(6)
            ]
            assert drain(queue, policy) == entries, policy.name

    @pytest.mark.parametrize("threads", [1, 4])
    def test_dispatch_order_invariant_to_feeding_thread_count(self, threads):
        # Deadlines are seconds apart, so the EDF order is a pure
        # function of the queue's *contents* — however many threads
        # raced to push, the drain must come out in deadline order.
        deadlines = [float(d) for d in (60, 10, 30, 5, 45, 20, 50, 15)]
        queue = PredictedCostQueue()
        lock = threading.Lock()

        def push_slice(worker):
            for deadline in deadlines[worker::threads]:
                with lock:
                    queue.push(entry(deadline=deadline))

        pool = [
            threading.Thread(target=push_slice, args=(worker,))
            for worker in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        order = [e.deadline_seconds for e in drain(queue, EdfSlackPolicy())]
        assert order == sorted(deadlines)

    def test_drained_queue_leaves_zero_policy_state(self):
        queue = PredictedCostQueue()
        policy = BudgetFairPolicy(quantum_seconds=0.05)
        for tenant in ("a", "b", "a"):
            queue.push(entry(tenant=tenant, mean=0.05))
        drain(queue, policy)
        assert queue.depth() == 0
        assert policy.budgets.tenants() == ()
        # A fresh identical queue drains identically after the reset.
        queue2 = PredictedCostQueue()
        tenants = [
            queue2.push(entry(tenant=t, mean=0.05)).tenant
            for t in ("a", "b", "a")
        ]
        assert [
            e.tenant for e in drain(queue2, policy)
        ] == ["a", "b", "a"] and tenants == ["a", "b", "a"]


# ---------------------------------------------------------------------------
# SchedulingAdmission


def scheduling_admission(
    policy_name="fifo",
    capacity=1,
    max_queue=4,
    timeout=5.0,
    estimator=None,
    **policy_kwargs,
):
    return SchedulingAdmission(
        make_policy(policy_name, **policy_kwargs),
        estimator=estimator,
        capacity=capacity,
        max_queue=max_queue,
        queue_timeout_seconds=timeout,
    )


class TestSchedulingAdmission:
    def test_fast_path_admits_under_capacity(self):
        policy = scheduling_admission(capacity=2)
        assert policy.admit_record("/v1/predict", {"sql": "SELECT 1"})
        assert policy.in_flight() == 1
        stats = policy.stats()
        assert (stats.admitted_total, stats.refused_total) == (1, 0)
        policy.release()

    def test_defers_then_dispatches_on_release(self):
        policy = scheduling_admission(capacity=1, timeout=10.0)
        assert policy.admit()
        outcomes = []

        def deferred():
            outcomes.append(
                policy.admit_record("/v1/predict", {"sql": "SELECT 1"})
            )

        waiter = threading.Thread(target=deferred)
        waiter.start()
        deadline = threading.Event()
        for _ in range(200):
            if policy.scheduler_stats().queue_depth == 1:
                break
            deadline.wait(0.01)
        assert policy.scheduler_stats().queue_depth == 1
        policy.release()
        waiter.join(timeout=5.0)
        assert outcomes == [True]
        assert policy.scheduler_stats().dispatched_total == 1
        policy.release()

    def test_refuses_when_queue_is_full(self):
        policy = scheduling_admission(capacity=1, max_queue=1, timeout=10.0)
        assert policy.admit()
        waiter = threading.Thread(
            target=policy.admit_record, args=("/v1/predict", {})
        )
        waiter.start()
        for _ in range(200):
            if policy.scheduler_stats().queue_depth == 1:
                break
            threading.Event().wait(0.01)
        # The queue is at max_queue: the next arrival is refused fast.
        assert not policy.admit_record("/v1/predict", {})
        assert policy.stats().refused_total == 1
        policy.release()
        waiter.join(timeout=5.0)
        policy.release()

    def test_queued_request_times_out_to_refusal(self):
        policy = scheduling_admission(capacity=1, timeout=0.05)
        assert policy.admit()
        assert not policy.admit_record("/v1/predict", {"sql": "SELECT 1"})
        stats = policy.scheduler_stats()
        assert stats.timeouts_total == 1
        assert stats.queue_depth == 0
        assert policy.stats().refused_total == 1
        policy.release()

    def test_retry_after_is_predicted_drain_time(self):
        policy = scheduling_admission(
            capacity=2, max_queue=8, timeout=10.0,
            estimator=lambda sql: (4.0, 0.0),
        )
        assert policy.retry_after_seconds() == 1  # empty queue: the floor
        for _ in range(2):
            assert policy.admit()
        waiters = [
            threading.Thread(
                target=policy.admit_record,
                args=("/v1/predict", {"sql": f"SELECT {i}"}),
            )
            for i in range(2)
        ]
        for waiter in waiters:
            waiter.start()
        for _ in range(200):
            if policy.scheduler_stats().queue_depth == 2:
                break
            threading.Event().wait(0.01)
        # 8 predicted seconds over capacity 2 -> ceil(4) = 4 s hint.
        assert policy.retry_after_seconds() == 4
        for _ in range(4):
            policy.release()
        for waiter in waiters:
            waiter.join(timeout=5.0)

    def test_retry_after_caps_at_five_seconds(self):
        policy = scheduling_admission(
            capacity=1, max_queue=8, timeout=10.0,
            estimator=lambda sql: (60.0, 0.0),
        )
        assert policy.admit()
        waiter = threading.Thread(
            target=policy.admit_record, args=("/v1/predict", {"sql": "S"})
        )
        waiter.start()
        for _ in range(200):
            if policy.scheduler_stats().queue_depth == 1:
                break
            threading.Event().wait(0.01)
        assert policy.retry_after_seconds() == 5
        policy.release()
        waiter.join(timeout=5.0)
        policy.release()

    def test_ticket_reads_batch_first_query_and_defaults(self):
        seen = []
        policy = scheduling_admission(
            capacity=1, estimator=lambda sql: seen.append(sql) or (0.1, 0.0)
        )
        queued = policy._build_entry(
            "/v1/predict-batch", {"queries": ["SELECT 7", "SELECT 8"]}
        )
        assert seen == ["SELECT 7"]
        assert queued.tenant == "default"
        assert queued.deadline_seconds == pytest.approx(1.0)
        assert queued.priority == 0

    def test_ticket_honors_wire_scheduling_fields(self):
        policy = scheduling_admission(capacity=1)
        queued = policy._build_entry(
            "/v1/predict",
            {"sql": "S", "tenant": "acme", "deadline_ms": 250, "priority": 3},
        )
        assert queued.tenant == "acme"
        assert queued.deadline_seconds == pytest.approx(0.25)
        assert queued.priority == 3

    def test_malformed_ticket_fields_fall_back_to_defaults(self):
        # Admission never rejects what the app will 400: bad types are
        # ignored here and surface as the inner app's structured error.
        policy = scheduling_admission(capacity=1)
        queued = policy._build_entry(
            "/v1/predict",
            {"sql": 17, "tenant": 5, "deadline_ms": "soon", "priority": True},
        )
        assert queued.tenant == "default"
        assert queued.deadline_seconds == pytest.approx(1.0)
        assert queued.priority == 0
        assert queued.estimate == CostEstimate()

    def test_rejects_bad_capacity_and_queue_bounds(self):
        with pytest.raises(WireError, match="max_in_flight"):
            SchedulingAdmission(FifoPolicy(), capacity=0)
        with pytest.raises(WireError, match="max_queue"):
            SchedulingAdmission(FifoPolicy(), capacity=1, max_queue=0)


# ---------------------------------------------------------------------------
# gate integration (fake inner app)


class RecordingApp(WireApp):
    """Counts handle_post calls; answers with a canned 200."""

    def __init__(self, stats_record=None):
        self.posts = []
        self._stats_record = stats_record or {"schema_version": 2}

    def health(self):
        return {"schema_version": 2, "status": "ok"}

    def handle_get(self, path):
        return WireResponse(200, dict(self._stats_record))

    def handle_post(self, path, read_body):
        self.posts.append((path, read_body()))
        return WireResponse(200, {"schema_version": 2, "ok": True})


class TestAdmissionGateScheduling:
    def test_body_is_read_once_and_forwarded(self):
        inner = RecordingApp()
        gate = AdmissionGate(inner, scheduling_admission(capacity=2))
        reads = []

        def read_body():
            reads.append(1)
            return {"sql": "SELECT 1", "schema_version": 2}

        response = gate.handle_post("/v1/predict", read_body)
        assert response.status == 200
        assert len(reads) == 1
        assert inner.posts[0][1]["sql"] == "SELECT 1"

    def test_queue_full_refusal_carries_predicted_retry_after(self):
        policy = scheduling_admission(
            capacity=1, max_queue=1, timeout=10.0,
            estimator=lambda sql: (2.0, 0.0),
        )
        gate = AdmissionGate(RecordingApp(), policy)
        assert policy.admit()
        waiter = threading.Thread(
            target=policy.admit_record, args=("/v1/predict", {"sql": "S"})
        )
        waiter.start()
        for _ in range(200):
            if policy.scheduler_stats().queue_depth == 1:
                break
            threading.Event().wait(0.01)
        refused = gate.handle_post(
            "/v1/predict", lambda: {"sql": "SELECT 1", "schema_version": 2}
        )
        assert refused.status == 503
        assert refused.record["error"]["code"] == "over-capacity"
        assert refused.retry_after == 2
        policy.release()
        waiter.join(timeout=5.0)
        policy.release()

    def test_v2_stats_gain_scheduler_section(self):
        stats_record = {"schema_version": 2, "queries_served": 0}
        gate = AdmissionGate(
            RecordingApp(stats_record), scheduling_admission(capacity=1)
        )
        response = gate.handle_get("/v1/stats?schema_version=2")
        assert response.record["scheduler"]["policy"] == "fifo"
        assert response.record["scheduler"]["queue_depth"] == 0
        assert "admission" in response.record

    def test_bounded_in_flight_stats_have_no_scheduler_section(self):
        stats_record = {"schema_version": 2, "queries_served": 0}
        gate = AdmissionGate(RecordingApp(stats_record), BoundedInFlight(1))
        response = gate.handle_get("/v1/stats?schema_version=2")
        assert "scheduler" not in response.record
        assert "admission" in response.record

    def test_unmetered_paths_bypass_scheduling(self):
        inner = RecordingApp()
        gate = AdmissionGate(inner, scheduling_admission(capacity=1))
        assert gate.policy.admit()  # saturate
        response = gate.handle_post("/v1/echo", lambda: {"x": 1})
        assert response.status == 200
        gate.policy.release()


# ---------------------------------------------------------------------------
# wire schema


class TestSchedulingWireFields:
    def test_deadline_and_priority_round_trip_at_v2(self):
        request = PredictRequest(
            sql="SELECT 1", tenant="acme", deadline_ms=250, priority=2
        )
        record = request.to_dict(version=2)
        assert (record["deadline_ms"], record["priority"]) == (250, 2)
        assert PredictRequest.from_dict(record) == request

    def test_v1_emission_refuses_scheduling_hints(self):
        request = PredictRequest(sql="SELECT 1", deadline_ms=250)
        with pytest.raises(WireError) as excinfo:
            request.to_dict(version=1)
        assert error_code(excinfo.value) == "schema-version"

    def test_v1_decode_ignores_scheduling_fields(self):
        record = {
            "schema_version": 1,
            "sql": "SELECT 1",
            "deadline_ms": 250,
            "priority": 2,
        }
        request = PredictRequest.from_dict(record)
        assert request.deadline_ms is None and request.priority is None

    def test_absent_fields_stay_absent_on_the_wire(self):
        record = PredictRequest(sql="SELECT 1").to_dict(version=2)
        assert "deadline_ms" not in record and "priority" not in record

    def test_batch_requests_carry_the_same_fields(self):
        batch = BatchRequest(
            queries=("SELECT 1",), deadline_ms=500, priority=-1
        )
        record = batch.to_dict(version=2)
        assert (record["deadline_ms"], record["priority"]) == (500, -1)
        assert BatchRequest.from_dict(record) == batch

    @pytest.mark.parametrize("deadline", [0, -5, 1.5, "soon", True])
    def test_invalid_deadline_is_a_payload_error(self, deadline):
        with pytest.raises(WireError, match="deadline_ms"):
            PredictRequest(sql="S", deadline_ms=deadline)

    @pytest.mark.parametrize("priority", [1.5, "high", False])
    def test_invalid_priority_is_a_payload_error(self, priority):
        with pytest.raises(WireError, match="priority"):
            PredictRequest(sql="S", priority=priority)

    def test_scheduler_stats_round_trip(self):
        stats = SchedulerStats(
            policy="edf-slack",
            queue_depth=3,
            queued_predicted_seconds=1.25,
            dispatched_total=17,
            timeouts_total=2,
        )
        assert decode(SchedulerStats, encode(stats)) == stats

    def test_snapshot_scheduler_section_is_v2_only(self, tpch_db, calibrated_units):
        session = Session.from_components(
            tpch_db, calibrated_units, SessionConfig()
        )
        snapshot = StatsSnapshot(
            report=session.service.report(),
            scheduler=SchedulerStats(
                policy="budget-fair",
                queue_depth=1,
                queued_predicted_seconds=0.5,
                dispatched_total=4,
                timeouts_total=0,
            ),
        )
        v2 = snapshot.to_dict(version=2)
        assert v2["scheduler"]["policy"] == "budget-fair"
        assert "scheduler" not in snapshot.to_dict(version=1)
        parsed = StatsSnapshot.from_dict(v2)
        assert parsed.scheduler == snapshot.scheduler
        assert "scheduler: policy budget-fair" in snapshot.render()


# ---------------------------------------------------------------------------
# config + factory + end-to-end


class TestConfigAndFactory:
    def test_scheduler_knobs_validate(self):
        with pytest.raises(SessionError, match="scheduler policy"):
            SessionConfig(scheduler_policy="lifo")
        with pytest.raises(SessionError, match="scheduler_slack"):
            SessionConfig(scheduler_slack=-1.0)
        with pytest.raises(SessionError, match="scheduler_default_deadline_ms"):
            SessionConfig(scheduler_default_deadline_ms=0)
        with pytest.raises(SessionError, match="scheduler_max_queue"):
            SessionConfig(scheduler_max_queue=0)
        with pytest.raises(SessionError, match="scheduler_queue_timeout"):
            SessionConfig(scheduler_queue_timeout_seconds=0.0)

    def test_config_round_trips_scheduler_fields(self):
        config = SessionConfig(
            scheduler_policy="budget-fair", scheduler_slack=2.0
        )
        assert SessionConfig.from_dict(config.to_dict()) == config

    def test_fifo_config_builds_the_original_policy(
        self, tpch_db, calibrated_units
    ):
        session = Session.from_components(
            tpch_db, calibrated_units, SessionConfig()
        )
        policy = build_admission(session, 4)
        assert type(policy) is BoundedInFlight
        assert policy.capacity == 4

    def test_scheduling_config_builds_scheduling_admission(
        self, tpch_db, calibrated_units
    ):
        session = Session.from_components(
            tpch_db,
            calibrated_units,
            SessionConfig(
                scheduler_policy="edf-slack",
                scheduler_slack=2.0,
                scheduler_max_queue=7,
            ),
        )
        policy = build_admission(session, 2)
        assert type(policy) is SchedulingAdmission
        assert policy.capacity == 2
        assert policy.scheduling_policy.name == "edf-slack"
        assert policy.scheduling_policy.slack == 2.0

    def test_session_estimate_matches_served_prediction(
        self, tpch_db, calibrated_units
    ):
        session = Session.from_components(
            tpch_db, calibrated_units, SessionConfig()
        )
        sql = "SELECT COUNT(*) FROM orders WHERE o_totalprice > 100000"
        mean, std = session.estimate(sql)
        response = session.predict(sql)
        assert mean == response.results[0].mean
        assert std == response.results[0].std

    def test_gate_serves_identical_predictions_under_scheduling(
        self, tpch_db, calibrated_units
    ):
        # The scheduling tier reorders *when* requests run, never what
        # they answer: a deadline-stamped request through the edf-slack
        # gate is bitwise identical to a direct session prediction.
        config = SessionConfig(scheduler_policy="edf-slack")
        session = Session.from_components(tpch_db, calibrated_units, config)
        gate = AdmissionGate(SessionApp(session), build_admission(session, 2))
        sql = "SELECT COUNT(*) FROM orders WHERE o_totalprice > 100000"
        wire = PredictRequest(sql=sql, deadline_ms=200, tenant="acme")
        response = gate.handle_post(
            "/v1/predict", lambda: wire.to_dict(version=2)
        )
        assert response.status == 200
        direct = session.predict(PredictRequest(sql=sql, tenant="acme"))
        served = response.record["results"]
        assert served[0]["mean"] == direct.results[0].mean
        assert served[0]["std"] == direct.results[0].std
        assert gate.policy.stats().admitted_total == 1
