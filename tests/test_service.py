"""The batch prediction service and the vectorized variance assembly.

The vectorized matrix path must reproduce the scalar reference
implementation (kept as the executable specification) within float
tolerance on randomized synthetic plans and on real planned queries,
across all four predictor variants; the service must plan/prepare each
distinct query once and serve repeats from cache.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.benchreport import BenchContext
from repro.calibration.calibrator import CalibratedUnits
from repro.core import UncertaintyPredictor, Variant
from repro.core.predictor import VARIANT_OPTIONS
from repro.core.covariance import PlanAncestry
from repro.core.variance import (
    VarianceBreakdown,
    VarianceOptions,
    VectorizedAssembler,
    _canonical,
    _selectivity_distributions,
    _term_covariance,
    assemble_distribution_parameters,
)
from repro.costfuncs.families import C1, C2, C3, C4, C5, C6
from repro.costfuncs.fitting import FittedCostFunction, OperatorCostFunctions
from repro.errors import PredictionError
from repro.mathstats import NormalDistribution
from repro.mathstats.moments import monomial_mean
from repro.optimizer import Optimizer
from repro.optimizer.cost_model import COST_UNIT_NAMES
from repro.plan import HashJoinNode, SeqScanNode, SortNode, assign_op_ids
from repro.sampling.estimator import NodeSelectivity, SamplingEstimate
from repro.service import PredictionService, PreparedCache, plan_signature
from repro.workloads import workload_by_name
from repro.workloads.tpch_templates import TPCH_TEMPLATES


# ---------------------------------------------------------------------------
# The scalar reference assembly (Algorithm 3 term pair by term pair).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Term:
    unit: str
    coefficient: float
    monomial: tuple  # sorted tuple of (var_id, exponent)


def assemble_distribution_parameters_reference(
    planned, estimate, fitted, units, options=VarianceOptions()
) -> VarianceBreakdown:
    """The original scalar term-pair double loop (executable specification).

    The vectorized path is cross-checked against it; O(T^2) in the
    number of polynomial terms.
    """
    ancestry = PlanAncestry.from_plan(planned.root)
    distributions, selectivities = _selectivity_distributions(estimate, options)

    terms: list[_Term] = []
    for op_functions in fitted.values():
        for unit, function in op_functions.functions.items():
            for coefficient, monomial in function.monomials():
                if coefficient == 0.0:
                    continue
                terms.append(_Term(unit, coefficient, _canonical(monomial)))

    # E[g_c] per unit.
    g_mean = {unit: 0.0 for unit in COST_UNIT_NAMES}
    for term in terms:
        g_mean[term.unit] += term.coefficient * monomial_mean(
            dict(term.monomial), distributions
        )

    # Cov(g_c, g_c') over term pairs, split into exact and bounded parts.
    exact_cov = {
        (a, b): 0.0 for a in COST_UNIT_NAMES for b in COST_UNIT_NAMES
    }
    bound_cov = {
        (a, b): 0.0 for a in COST_UNIT_NAMES for b in COST_UNIT_NAMES
    }
    cache: dict[tuple, tuple[float, float]] = {}
    for i, t1 in enumerate(terms):
        for t2 in terms[i:]:
            key = (t1.monomial, t2.monomial) if t1.monomial <= t2.monomial else (
                t2.monomial,
                t1.monomial,
            )
            if key not in cache:
                cache[key] = _term_covariance(
                    dict(key[0]),
                    dict(key[1]),
                    distributions,
                    selectivities,
                    ancestry,
                    options,
                )
            exact, bounded = cache[key]
            weight = t1.coefficient * t2.coefficient
            if t1 is not t2:
                weight *= 2.0  # symmetric pair counted once
            pair = (t1.unit, t2.unit)
            exact_cov[pair] = exact_cov.get(pair, 0.0) + weight * exact
            bound_cov[pair] = bound_cov.get(pair, 0.0) + weight * bounded

    mu = {name: units.mean(name) for name in COST_UNIT_NAMES}
    sigma2 = {
        name: (units.variance(name) if options.include_cost_unit_variance else 0.0)
        for name in COST_UNIT_NAMES
    }

    mean = sum(mu[c] * g_mean[c] for c in COST_UNIT_NAMES)

    exact_part = 0.0
    bounded_part = 0.0
    unit_part = 0.0
    for c in COST_UNIT_NAMES:
        for c_prime in COST_UNIT_NAMES:
            if c == c_prime:
                exact_part += (mu[c] ** 2 + sigma2[c]) * exact_cov.get((c, c), 0.0)
                bounded_part += (mu[c] ** 2 + sigma2[c]) * bound_cov.get((c, c), 0.0)
                unit_part += sigma2[c] * g_mean[c] ** 2
            else:
                # The term-pair accumulation already stored the symmetric sum
                # over both term orders; summing over both ordered unit pairs
                # therefore needs a factor 1/2.
                exact_g = exact_cov.get((c, c_prime), 0.0) + exact_cov.get(
                    (c_prime, c), 0.0
                )
                bound_g = bound_cov.get((c, c_prime), 0.0) + bound_cov.get(
                    (c_prime, c), 0.0
                )
                exact_part += mu[c] * mu[c_prime] * exact_g / 2.0
                bounded_part += mu[c] * mu[c_prime] * bound_g / 2.0

    variance = max(exact_part + bounded_part + unit_part, 0.0)
    return VarianceBreakdown(
        mean=mean,
        variance=variance,
        exact_selectivity_term=exact_part,
        bounded_covariance_term=bounded_part,
        cost_unit_term=unit_part,
        per_unit_mean={c: mu[c] * g_mean[c] for c in COST_UNIT_NAMES},
    )


class _PlanStub:
    """The assemblers only need ``.root``."""

    def __init__(self, root):
        self.root = root


# ---------------------------------------------------------------------------
# Randomized synthetic plans: property test across all four variants.
# ---------------------------------------------------------------------------


def _random_case(rng):
    """A random plan + estimate + fitted functions + units."""
    n_scans = int(rng.integers(2, 5))
    aliases = list("abcd"[:n_scans])
    nodes = [SeqScanNode(table=alias, alias=alias) for alias in aliases]
    while len(nodes) > 1:
        left = nodes.pop(int(rng.integers(len(nodes))))
        right = nodes.pop(int(rng.integers(len(nodes))))
        nodes.append(HashJoinNode(keys=[("a.k", "b.k")], children=[left, right]))
    root = nodes[0]
    with_sort = bool(rng.integers(2))
    if with_sort:
        root = SortNode(keys=[("a.k", False)], children=[root])
    assign_op_ids(root)

    n = 500
    per_node = {}
    for node in root.walk():
        leaf = node.leaf_aliases()
        if node.is_scan:
            rho = float(rng.uniform(0.05, 0.95))
            variance = rho * (1.0 - rho) / n if rng.uniform() < 0.85 else 0.0
            per_node[node.op_id] = NodeSelectivity(
                op_id=node.op_id,
                mean=rho,
                variance=variance,
                var_components={leaf[0]: variance},
                leaf_aliases=leaf,
                sample_sizes={leaf[0]: n},
                source="sample",
            )
        elif node.is_join:
            rho = float(rng.uniform(0.001, 0.2))
            cap = rho * (1.0 - rho) / n
            shares = rng.uniform(0.0, 1.0, size=len(leaf))
            components = {
                alias: float(cap * share) for alias, share in zip(leaf, shares)
            }
            per_node[node.op_id] = NodeSelectivity(
                op_id=node.op_id,
                mean=rho,
                variance=sum(components.values()),
                var_components=components,
                leaf_aliases=leaf,
                sample_sizes={alias: n for alias in leaf},
                source="sample",
            )
        else:  # sort: pass-through alias of its child's variable
            per_node[node.op_id] = NodeSelectivity(
                op_id=node.op_id,
                mean=float("nan"),
                variance=0.0,
                var_components={},
                leaf_aliases=leaf,
                sample_sizes={},
                source="alias",
                alias_of=node.children[0].op_id,
            )
    estimate = SamplingEstimate(per_node=per_node)

    scan_families = (C1, C2)
    join_families = (C3, C4, C5, C6)
    fitted = {}
    for node in root.walk():
        functions = {}
        for unit in ("cs", "cr", "ct", "ci", "co"):
            if rng.uniform() < 0.4:
                continue
            if node.is_scan:
                family = scan_families[int(rng.integers(len(scan_families)))]
                bindings = {"x": estimate.resolve(node.op_id).op_id}
            else:
                family = join_families[int(rng.integers(len(join_families)))]
                bindings = {}
                if "xl" in family.variables:
                    bindings["xl"] = estimate.resolve(
                        node.children[0].op_id
                    ).op_id
                if "xr" in family.variables:
                    right = (
                        node.children[1]
                        if len(node.children) > 1
                        else node.children[0]
                    )
                    bindings["xr"] = estimate.resolve(right.op_id).op_id
                if "x" in family.variables:
                    bindings["x"] = estimate.resolve(node.op_id).op_id
            bindings = {
                var: bindings[var] for var in family.variables
            }
            coefficients = rng.uniform(0.0, 100.0, size=family.num_coefficients)
            coefficients[rng.uniform(size=len(coefficients)) < 0.2] = 0.0
            functions[unit] = FittedCostFunction(
                unit=unit,
                family=family,
                coefficients=coefficients,
                var_bindings=bindings,
            )
        fitted[node.op_id] = OperatorCostFunctions(node.op_id, functions)

    distributions = {}
    for name in ("cs", "cr", "ct", "ci", "co"):
        mean = float(rng.uniform(1e-4, 1.0))
        variance = float(rng.uniform(0.0, (0.2 * mean) ** 2))
        if rng.uniform() < 0.2:
            variance = 0.0
        distributions[name] = NormalDistribution(mean, variance)
    units = CalibratedUnits(distributions=distributions, samples={})
    return _PlanStub(root), estimate, fitted, units


@pytest.mark.parametrize("seed", range(25))
def test_vectorized_matches_reference_on_random_plans(seed):
    rng = np.random.default_rng(seed)
    planned, estimate, fitted, units = _random_case(rng)
    assembler = VectorizedAssembler(planned, estimate, fitted)
    for variant in Variant:
        options = VARIANT_OPTIONS[variant]
        reference = assemble_distribution_parameters_reference(
            planned, estimate, fitted, units, options
        )
        vectorized = assembler.assemble(units, options)
        # The scalar reference evaluates monomial covariances even for
        # variable-disjoint independent pairs, accumulating O(eps * mean^2)
        # of float reassociation noise around the true value 0 that the
        # vectorized path skips exactly; the absolute floor covers it.
        noise = 1e-12 * (1.0 + reference.mean**2)
        for attr in (
            "mean",
            "variance",
            "exact_selectivity_term",
            "bounded_covariance_term",
            "cost_unit_term",
        ):
            assert getattr(vectorized, attr) == pytest.approx(
                getattr(reference, attr), rel=1e-9, abs=noise
            ), (seed, variant, attr)
        for unit, value in reference.per_unit_mean.items():
            assert vectorized.per_unit_mean[unit] == pytest.approx(
                value, rel=1e-9, abs=1e-15
            )


def _lab_plans():
    """(planned, prepared, units) for every MICRO, SELJOIN and TPCH plan
    of the full bench tier's small lab: its databases, query counts,
    SR = 0.05 samples and PC1 units (planned, not executed)."""
    ctx = BenchContext(tier="full")
    lab = ctx.small_lab
    units = lab.units("PC1")
    predictor = UncertaintyPredictor(units)
    for label, database in lab.databases.items():
        optimizer = Optimizer(database)
        samples = lab.sample_db(label, 0.05)
        for benchmark, count in ctx.query_counts.items():
            for sql in workload_by_name(benchmark, database, count, seed=lab.seed):
                planned = optimizer.plan_sql(sql)
                yield planned, predictor.prepare(planned, samples), units


def test_vectorized_matches_reference_on_real_plans(
    optimizer, sample_db, calibrated_units
):
    predictor = UncertaintyPredictor(calibrated_units)
    rng = np.random.default_rng(4)
    cases = []
    for template in TPCH_TEMPLATES[:6]:
        planned = optimizer.plan_sql(template.instantiate(rng))
        cases.append(
            (planned, predictor.prepare(planned, sample_db), calibrated_units)
        )
    cases += _lab_plans()
    assert len(cases) == 6 + 2 * (16 + 10 + 10)
    for planned, prepared, units in cases:
        for variant in Variant:
            options = VARIANT_OPTIONS[variant]
            reference = assemble_distribution_parameters_reference(
                planned, prepared.estimate, prepared.fitted, units, options,
            )
            vectorized = assemble_distribution_parameters(
                planned, prepared.estimate, prepared.fitted, units, options,
            )
            assert vectorized.mean == pytest.approx(reference.mean, rel=1e-9)
            assert vectorized.variance == pytest.approx(
                reference.variance, rel=1e-9, abs=1e-18
            )


def test_assembler_with_no_terms():
    root = assign_op_ids(SeqScanNode(table="a", alias="a"))
    estimate = SamplingEstimate(
        per_node={
            0: NodeSelectivity(
                op_id=0,
                mean=0.5,
                variance=0.01,
                var_components={"a": 0.01},
                leaf_aliases=("a",),
                sample_sizes={"a": 100},
                source="sample",
            )
        }
    )
    fitted = {0: OperatorCostFunctions(0, {})}
    units = CalibratedUnits(
        distributions={
            name: NormalDistribution(1.0, 0.1)
            for name in ("cs", "cr", "ct", "ci", "co")
        },
        samples={},
    )
    breakdown = assemble_distribution_parameters(
        _PlanStub(root), estimate, fitted, units
    )
    assert breakdown.mean == 0.0
    assert breakdown.variance == 0.0


# ---------------------------------------------------------------------------
# The service: caching, fan-out, batch bookkeeping.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def service(tpch_db, calibrated_units):
    return PredictionService(
        tpch_db, calibrated_units, sampling_ratio=0.05, seed=3
    )


SQL_A = (
    "SELECT * FROM orders, lineitem "
    "WHERE o_orderkey = l_orderkey AND o_totalprice > 100000"
)
SQL_B = (
    "SELECT * FROM orders, lineitem "
    "WHERE o_orderkey = l_orderkey AND o_totalprice > 200000"
)


class TestPredictionService:
    def test_duplicate_queries_hit_cache(self, service):
        batch = service.predict_batch([SQL_A, SQL_A, SQL_A])
        assert [p.prepare_was_cached for p in batch][1:] == [True, True]
        means = {p.mean for p in batch}
        assert len(means) == 1

    def test_distinct_constants_miss_cache(self, service):
        batch = service.predict_batch([SQL_A, SQL_B])
        assert batch.predictions[1].prepare_was_cached is False
        assert batch.predictions[0].mean != batch.predictions[1].mean

    def test_matches_direct_predictor(
        self, service, tpch_db, optimizer, calibrated_units
    ):
        prediction = service.predict_query(SQL_A)
        planned = optimizer.plan_sql(SQL_A)
        direct = UncertaintyPredictor(calibrated_units).predict(
            planned, service.sample_db
        )
        assert prediction.mean == pytest.approx(direct.mean, rel=1e-9)
        assert prediction.std == pytest.approx(direct.std, rel=1e-9)

    def test_fan_out_covers_all_combinations(self, service):
        variants = (Variant.ALL, Variant.NO_COV)
        mpls = (1, 4)
        prediction = service.predict_query(SQL_A, variants=variants, mpls=mpls)
        assert set(prediction.results) == {
            (variant, mpl) for variant in variants for mpl in mpls
        }
        assert prediction.result(Variant.ALL, 4).mean > prediction.result().mean

    def test_missing_combination_rejected(self, service):
        prediction = service.predict_query(SQL_A)
        with pytest.raises(PredictionError):
            prediction.result(Variant.NO_COV, 7)

    def test_empty_fanout_rejected(self, service):
        with pytest.raises(PredictionError):
            service.predict_query(SQL_A, variants=())

    def test_accepts_preplanned_queries(self, service, optimizer):
        planned = optimizer.plan_sql(SQL_A)
        prediction = service.predict_query(planned)
        assert prediction.sql is None
        assert prediction.mean > 0

    def test_stats_accumulate(self, tpch_db, calibrated_units):
        fresh = PredictionService(
            tpch_db, calibrated_units, sampling_ratio=0.05, seed=3
        )
        fresh.predict_batch([SQL_A, SQL_A, SQL_B], mpls=(1, 2))
        stats = fresh.stats
        assert stats.queries_served == 3
        assert stats.plans_built == 2
        assert stats.prepares_run == 2
        assert stats.prepare_cache_hits == 1
        assert stats.assemblies == 6
        assert stats.prepare_hit_rate == pytest.approx(1 / 3)

    def test_batch_bookkeeping(self, service):
        batch = service.predict_batch([SQL_A, SQL_B])
        assert len(batch) == 2
        assert batch.elapsed_seconds > 0
        assert batch.queries_per_second > 0
        assert batch.failures == []

    def test_batch_aborts_on_failure_by_default(self, service):
        from repro.errors import SqlError

        with pytest.raises(SqlError):
            service.predict_batch([SQL_A, "SELEC nope"])

    def test_skip_failures_isolates_bad_queries(self, service):
        batch = service.predict_batch(
            [SQL_A, "SELEC nope", SQL_B], skip_failures=True
        )
        assert len(batch) == 2
        assert len(batch.failures) == 1
        failure = batch.failures[0]
        assert failure.index == 1
        assert failure.sql == "SELEC nope"
        assert "SqlParseError" in failure.error
        assert batch.stats.queries_failed == 1

    def test_skip_failures_covers_non_library_errors(self, service):
        # Regression: a parseable query whose predicate compares a string
        # column to a number fails inside numpy (UFuncTypeError), outside
        # the ReproError hierarchy — it must still degrade per query.
        bad = "SELECT * FROM orders WHERE o_orderpriority > 5"
        batch = service.predict_batch([bad, SQL_A], skip_failures=True)
        assert len(batch) == 1
        assert len(batch.failures) == 1
        assert batch.failures[0].index == 0

    def test_batch_stats_are_batch_scoped(self, tpch_db, calibrated_units):
        fresh = PredictionService(
            tpch_db, calibrated_units, sampling_ratio=0.05, seed=3
        )
        first = fresh.predict_batch([SQL_A, SQL_B])
        second = fresh.predict_batch([SQL_A, SQL_B])
        # Second batch: everything served from cache, and its stats do not
        # drag in the first batch's counters (nor mutate afterwards).
        assert first.stats.queries_served == 2
        assert first.stats.prepares_run == 2
        assert second.stats.queries_served == 2
        assert second.stats.prepares_run == 0
        assert second.stats.prepare_cache_hits == 2
        assert second.stats.prepare_hit_rate == 1.0
        assert fresh.stats.queries_served == 4

    def test_plan_memoization_is_bounded(self, tpch_db, calibrated_units):
        small = PredictionService(
            tpch_db, calibrated_units, sampling_ratio=0.05, seed=3,
            cache_size=2,
        )
        thresholds = (100000, 150000, 200000, 250000)
        for threshold in thresholds:
            small.predict_query(
                "SELECT * FROM orders, lineitem "
                f"WHERE o_orderkey = l_orderkey AND o_totalprice > {threshold}"
            )
        assert len(small._plans) == 2
        assert len(small.prepared_cache) == 2


class TestPlanSignature:
    def test_same_sql_same_signature(self, optimizer):
        first = plan_signature(optimizer.plan_sql(SQL_A))
        second = plan_signature(optimizer.plan_sql(SQL_A))
        assert first == second

    def test_different_constants_different_signature(self, optimizer):
        assert plan_signature(optimizer.plan_sql(SQL_A)) != plan_signature(
            optimizer.plan_sql(SQL_B)
        )

    def test_template_instantiations_differ(self, optimizer):
        rng = np.random.default_rng(0)
        template = TPCH_TEMPLATES[1]
        signatures = {
            plan_signature(optimizer.plan_sql(template.instantiate(rng)))
            for _ in range(4)
        }
        assert len(signatures) > 1

    # -- collision audit: join keys, join kind, aggregate mode ------------

    @staticmethod
    def _signed(root):
        class _Planned:
            alias_tables = {"a": "t", "b": "t"}

        planned = _Planned()
        planned.root = assign_op_ids(root)
        return plan_signature(planned)

    @staticmethod
    def _join_children():
        return [
            SeqScanNode(table="t", alias="a"),
            SeqScanNode(table="t", alias="b"),
        ]

    def test_join_kind_is_captured(self):
        from repro.plan import MergeJoinNode

        hash_sig = self._signed(
            HashJoinNode(keys=[("a.k", "b.k")], children=self._join_children())
        )
        merge_sig = self._signed(
            MergeJoinNode(keys=[("a.k", "b.k")], children=self._join_children())
        )
        assert hash_sig != merge_sig

    def test_join_keys_are_captured(self):
        one = self._signed(
            HashJoinNode(keys=[("a.k", "b.k")], children=self._join_children())
        )
        other = self._signed(
            HashJoinNode(keys=[("a.j", "b.j")], children=self._join_children())
        )
        assert one != other

    def test_aggregate_function_is_captured(self):
        # Regression: the aggregate label carries only group keys and
        # output names, so SUM(v) AS x and MAX(v) AS x used to collide.
        from repro.plan import AggregateNode, AggSpec, ScalarExpr

        def agg(func):
            return AggregateNode(
                group_keys=["a.k"],
                aggregates=[
                    AggSpec(
                        func=func,
                        argument=ScalarExpr(("col", "a.v")),
                        output_name="x",
                    )
                ],
                children=[SeqScanNode(table="t", alias="a")],
            )

        class _Planned:
            alias_tables = {"a": "t"}

        signatures = set()
        for func in ("SUM", "MAX"):
            planned = _Planned()
            planned.root = assign_op_ids(agg(func))
            signatures.add(plan_signature(planned))
        assert len(signatures) == 2

    def test_aggregate_distinct_flag_is_captured(self):
        from repro.plan import AggregateNode, AggSpec, ScalarExpr

        def agg(distinct):
            return AggregateNode(
                group_keys=["a.k"],
                aggregates=[
                    AggSpec(
                        func="COUNT",
                        argument=ScalarExpr(("col", "a.v")),
                        output_name="x",
                        distinct=distinct,
                    )
                ],
                children=[SeqScanNode(table="t", alias="a")],
            )

        class _Planned:
            alias_tables = {"a": "t"}

        signatures = set()
        for distinct in (False, True):
            planned = _Planned()
            planned.root = assign_op_ids(agg(distinct))
            signatures.add(plan_signature(planned))
        assert len(signatures) == 2


class TestPreparedCache:
    def test_lru_eviction(self):
        cache = PreparedCache(maxsize=2)
        cache.put(("a",), "A")
        cache.put(("b",), "B")
        assert cache.get(("a",)) == "A"  # refreshes "a"
        cache.put(("c",), "C")  # evicts "b"
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == "A"
        assert cache.get(("c",)) == "C"
        assert cache.stats.evictions == 1

    def test_hit_rate(self):
        cache = PreparedCache(maxsize=4)
        # Before any lookup there is no rate — not a misleading 0%.
        assert cache.stats.hit_rate is None
        assert cache.stats.describe() == "no lookups"
        cache.put(("a",), "A")
        cache.get(("a",))
        cache.get(("missing",))
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert cache.stats.describe() == "50% (1/2)"

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            PreparedCache(maxsize=0)
