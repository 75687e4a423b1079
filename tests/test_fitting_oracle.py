"""The cost-function fitter, differentially locked to its reference.

``ReferenceCostFunctionFitter`` below is the fitter the production one
replaced, kept verbatim as the oracle: it fits one (operator, unit)
pair at a time, rebinding the variables, rebuilding the grid and the
design matrix one scalar row per point (its own ``_design_row``), and
calling the engine's cost model with floats once per grid point *per
unit*. The production :class:`CostFunctionFitter` samples each
operator's grid once, evaluates the whole grid in one array call to the
cost model, reads all five units off it, builds each design matrix
column by column, and may route its NNLS solves through an exact
fit-solution memo. None of that may move a bit: coefficients,
residuals, families, unit order and variable bindings are compared as
bytes across every TPC-H template and the micro workloads, with and
without GEE, with the histogram estimator, and at several grid widths —
and memo hits, memo misses and memo-free fits must agree too.
"""

from __future__ import annotations

import importlib.util
import struct
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.caching import ByteBudgetLRU
from repro.core.predictor import UncertaintyPredictor
from repro.costfuncs.families import C4, family_for
from repro.costfuncs.fitting import (
    DEFAULT_GRID_W,
    FIT_MEMO_BYTES,
    MIN_RELATIVE_SPREAD,
    CostFunctionFitter,
    FittedCostFunction,
    OperatorCostFunctions,
    is_zero_target,
)
from repro.costfuncs.nnls import nnls
from repro.errors import FittingError
from repro.optimizer.cost_model import COST_UNIT_NAMES, CostModel
from repro.optimizer.optimizer import PlannedQuery
from repro.plan.physical import PlanNode
from repro.sampling import SampleDatabase, SelectivityEstimator
from repro.sampling.estimator import SamplingEstimate
from repro.sampling.histogram_estimator import HistogramSelectivityEstimator
from repro.service import PredictionService
from repro.workloads.micro import micro_join_queries, micro_scan_queries
from repro.workloads.tpch_templates import TPCH_TEMPLATES


def _design_row(family, values: dict[str, float]) -> np.ndarray:
    """Evaluate each basis term at ``values`` (one regression row)."""
    row = np.empty(len(family.terms))
    for i, term in enumerate(family.terms):
        product = 1.0
        for var, exponent in term.items():
            product *= values[var] ** exponent
        row[i] = product
    return row


class ReferenceCostFunctionFitter:
    """Fits C1..C6 coefficients for every operator of a plan."""

    def __init__(
        self,
        planned: PlannedQuery,
        estimate: SamplingEstimate,
        grid_w: int = DEFAULT_GRID_W,
    ):
        self._planned = planned
        self._estimate = estimate
        self._cost_model = CostModel(planned.database)
        self._grid_w = grid_w

    # ------------------------------------------------------------------
    def fit_all(self) -> dict[int, OperatorCostFunctions]:
        result: dict[int, OperatorCostFunctions] = {}
        for node in self._planned.root.walk():
            functions: dict[str, FittedCostFunction] = {}
            for unit in COST_UNIT_NAMES:
                fitted = self._fit_one(node, unit)
                if fitted is not None:
                    functions[unit] = fitted
            result[node.op_id] = OperatorCostFunctions(node.op_id, functions)
        return result

    # ------------------------------------------------------------------
    def _fit_one(self, node: PlanNode, unit: str) -> FittedCostFunction | None:
        family = family_for(node.kind, unit)
        if family is None:
            return None
        bindings = self._bind_variables(node, family)
        grids = {
            var: self._grid_points(bindings[var]) for var in family.variables
        }
        points = self._grid_product(family.variables, grids)

        rows = []
        targets = []
        for values in points:
            rows.append(_design_row(family, values))
            targets.append(self._invoke_cost_model(node, unit, values))
        design = np.asarray(rows)
        y = np.asarray(targets)
        if np.allclose(y, 0.0):
            return None
        coefficients, residual = nnls(design, y)
        return FittedCostFunction(
            unit=unit,
            family=family,
            coefficients=coefficients,
            var_bindings=bindings,
            fit_residual=residual,
        )

    def _bind_variables(self, node: PlanNode, family) -> dict[str, int]:
        bindings: dict[str, int] = {}
        for var in family.variables:
            if var == "x":
                bindings[var] = self._estimate.resolve(node.op_id).op_id
            elif var == "xl":
                bindings[var] = self._estimate.resolve(node.children[0].op_id).op_id
            elif var == "xr":
                bindings[var] = self._estimate.resolve(node.children[1].op_id).op_id
            else:
                raise FittingError(f"unknown family variable: {var}")
        return bindings

    def _grid_points(self, var_id: int) -> np.ndarray:
        """W+1 grid points over [mu - 3 sigma, mu + 3 sigma] ∩ [0, 1]."""
        selectivity = self._estimate.per_node[var_id]
        mean = selectivity.mean
        spread = max(3.0 * selectivity.std, MIN_RELATIVE_SPREAD * max(mean, 1e-9))
        low = max(mean - spread, 0.0)
        high = min(mean + spread, 1.0)
        if high <= low:
            high = min(low + 1e-9, 1.0)
        return np.linspace(low, high, self._grid_w + 1)

    @staticmethod
    def _grid_product(variables, grids) -> list[dict[str, float]]:
        if not variables:
            return [{}]
        if len(variables) == 1:
            var = variables[0]
            return [{var: float(v)} for v in grids[var]]
        first, second = variables
        return [
            {first: float(a), second: float(b)}
            for a in grids[first]
            for b in grids[second]
        ]

    def _invoke_cost_model(
        self, node: PlanNode, unit: str, values: dict[str, float]
    ) -> float:
        """Ask the engine for the unit's count at candidate selectivities."""
        n_left = 0.0
        n_right = 0.0
        m_out = self._planned.est_cards[node.op_id]
        if node.children:
            left = node.children[0]
            xl = values.get("xl")
            n_left = (
                self._planned.leaf_row_product(left) * xl
                if xl is not None
                else self._planned.est_cards[left.op_id]
            )
        if len(node.children) > 1:
            right = node.children[1]
            xr = values.get("xr")
            n_right = (
                self._planned.leaf_row_product(right) * xr
                if xr is not None
                else self._planned.est_cards[right.op_id]
            )
        if "x" in values:
            m_out = self._planned.leaf_row_product(node) * values["x"]
        counts = self._cost_model.operator_counts(node, n_left, n_right, m_out)
        return counts.as_dict()[unit]


# ---------------------------------------------------------------------------
# the differential harness

_spec = importlib.util.spec_from_file_location(
    "repro_tools_served_digest",
    Path(__file__).resolve().parent.parent / "tools" / "served_digest.py",
)
_served_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_served_digest)

#: Plans the workloads rarely produce (an index scan, a cross-table
#: filter, a sort under a limit, a single-table scan), shared with the
#: served-digest corpus.
EDGE_SQLS = _served_digest.EDGE_SQLS

GRID_WIDTHS = (2, 6, 9)
ESTIMATORS = ("sampling", "sampling-gee", "histogram")


def _pool(database) -> list[str]:
    """Every TPC-H template (both forms), the micro workloads, the edges."""
    rng = np.random.default_rng(20140901)
    queries = []
    for template in TPCH_TEMPLATES:
        queries += [template.instantiate(rng), template.seljoin(rng)]
    queries += micro_scan_queries(database, per_table=3)
    queries += micro_join_queries(database, grid=2)
    return queries + EDGE_SQLS


def _estimate(kind, planned, sample_db):
    if kind == "histogram":
        return HistogramSelectivityEstimator(planned).estimate()
    return SelectivityEstimator(
        sample_db, planned, use_gee=kind == "sampling-gee"
    ).estimate()


def _fingerprint(fitted) -> list:
    """Every fitted bit, in fit order: op ids, units, coefficients..."""
    record = []
    for op_id, operator in fitted.items():
        assert operator.op_id == op_id
        for unit, function in operator.functions.items():
            coefficients = function.coefficients
            record.append((
                op_id,
                unit,
                function.unit,
                function.family.name,
                coefficients.dtype.str,
                coefficients.shape,
                coefficients.tobytes(),
                struct.pack("<d", function.fit_residual),
                tuple(function.var_bindings.items()),
            ))
    return record


@pytest.fixture(scope="module")
def plans(tpch_db, optimizer):
    return [optimizer.plan_sql(sql) for sql in _pool(tpch_db)]


@pytest.fixture(scope="module")
def estimates(plans, sample_db):
    return {
        kind: [_estimate(kind, planned, sample_db) for planned in plans]
        for kind in ESTIMATORS
    }


class TestDifferential:
    def test_pool_covers_every_fitted_shape(self, plans):
        kinds = {node.kind for planned in plans for node in planned.root.walk()}
        names = {kind.name for kind in kinds}
        assert {
            "SEQ_SCAN", "INDEX_SCAN", "FILTER", "HASH_JOIN",
            "NESTLOOP_JOIN", "SORT", "AGGREGATE", "LIMIT",
        } <= names

    @pytest.mark.parametrize("grid_w", GRID_WIDTHS)
    @pytest.mark.parametrize("kind", ESTIMATORS)
    def test_bitwise_equal_to_reference(self, plans, estimates, kind, grid_w):
        memo = ByteBudgetLRU(FIT_MEMO_BYTES)
        for planned, estimate in zip(plans, estimates[kind]):
            reference = _fingerprint(
                ReferenceCostFunctionFitter(planned, estimate, grid_w).fit_all()
            )
            assert reference, planned.explain()
            assert _fingerprint(
                CostFunctionFitter(planned, estimate, grid_w).fit_all()
            ) == reference
            assert _fingerprint(
                CostFunctionFitter(planned, estimate, grid_w, memo=memo).fit_all()
            ) == reference

    def test_unit_order_is_canonical(self, plans, estimates):
        for planned, estimate in zip(plans, estimates["sampling"]):
            for operator in CostFunctionFitter(planned, estimate).fit_all().values():
                units = operator.units()
                assert units == [u for u in COST_UNIT_NAMES if u in units]

    def test_functions_do_not_share_bindings(self, plans, estimates):
        planned, estimate = plans[0], estimates["sampling"][0]
        for operator in CostFunctionFitter(planned, estimate).fit_all().values():
            bindings = [id(f.var_bindings) for f in operator.functions.values()]
            assert len(set(bindings)) == len(bindings)


class TestFitMemo:
    def test_hit_miss_and_memo_free_fits_agree(self, plans, estimates):
        memo = ByteBudgetLRU(FIT_MEMO_BYTES)
        pairs = list(zip(plans, estimates["sampling"]))
        free = [_fingerprint(CostFunctionFitter(p, e).fit_all()) for p, e in pairs]
        cold = [
            _fingerprint(CostFunctionFitter(p, e, memo=memo).fit_all())
            for p, e in pairs
        ]
        misses = memo.stats.misses
        hits = memo.stats.hits
        warm = [
            _fingerprint(CostFunctionFitter(p, e, memo=memo).fit_all())
            for p, e in pairs
        ]
        assert free == cold == warm
        # The second pass solved nothing: every problem was a hit.
        assert memo.stats.misses == misses
        assert memo.stats.hits - hits == sum(len(record) for record in warm)

    def test_cached_coefficients_are_read_only(self, plans, estimates):
        memo = ByteBudgetLRU(FIT_MEMO_BYTES)
        fitted = CostFunctionFitter(
            plans[0], estimates["sampling"][0], memo=memo
        ).fit_all()
        for operator in fitted.values():
            for function in operator.functions.values():
                assert not function.coefficients.flags.writeable
                with pytest.raises(ValueError):
                    function.coefficients[0] = 1.0

    def test_one_memo_shared_across_sample_seeds(self, tpch_db, plans):
        memo = ByteBudgetLRU(FIT_MEMO_BYTES)
        for seed in (7, 8):
            sample_db = SampleDatabase(tpch_db, sampling_ratio=0.05, seed=seed)
            for planned in plans[:24]:
                estimate = SelectivityEstimator(sample_db, planned).estimate()
                assert _fingerprint(
                    CostFunctionFitter(planned, estimate, memo=memo).fit_all()
                ) == _fingerprint(
                    ReferenceCostFunctionFitter(planned, estimate).fit_all()
                )
        assert memo.stats.hits > 0

    def test_threads_sharing_one_memo_agree(self, plans, estimates):
        """Concurrent fits through one memo: no lost update, no torn entry."""
        memo = ByteBudgetLRU(FIT_MEMO_BYTES)
        pairs = list(zip(plans, estimates["sampling"]))[:20]
        expected = [
            _fingerprint(ReferenceCostFunctionFitter(p, e).fit_all())
            for p, e in pairs
        ]
        results: dict[int, list] = {}

        def work(worker):
            order = pairs if worker % 2 else pairs[::-1]
            results[worker] = [
                _fingerprint(CostFunctionFitter(p, e, memo=memo).fit_all())
                for p, e in order
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(worker,))
                for worker in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for worker, records in results.items():
            assert records == (expected if worker % 2 else expected[::-1])
        solves = sum(len(record) for record in expected)
        assert memo.stats.lookups == 6 * solves
        assert memo.stats.misses >= len(memo)

    def test_entry_bytes_count_problem_and_solution(self, optimizer, sample_db):
        # A bare scan fits C1 (one row, one coefficient) for cs and ct;
        # co is zero without predicates. Each entry holds 8 bytes of A,
        # 8 of y and 8 of coefficients.
        planned = optimizer.plan_sql("SELECT * FROM region")
        estimate = SelectivityEstimator(sample_db, planned).estimate()
        memo = ByteBudgetLRU(FIT_MEMO_BYTES)
        fitted = CostFunctionFitter(planned, estimate, memo=memo).fit_all()
        assert fitted[planned.root.op_id].units() == ["cs", "ct"]
        assert len(memo) == 2
        assert memo.bytes_used == 2 * 24

    def test_service_owns_one_memo_across_prepares(
        self, tpch_db, calibrated_units, plans
    ):
        service = PredictionService(
            tpch_db, calibrated_units, sampling_ratio=0.05, seed=3
        )
        memo = service.fit_memo
        assert memo.max_bytes == FIT_MEMO_BYTES
        for planned in plans[:12]:
            prepared, _ = service.prepare(planned)
            reference = UncertaintyPredictor(calibrated_units).prepare(
                planned, service.sample_db
            )
            assert _fingerprint(prepared.fitted) == _fingerprint(
                reference.fitted
            )
        assert service.fit_memo is memo
        assert memo.stats.lookups > 0


# ---------------------------------------------------------------------------
# pinned numerics


def _neighbours(value):
    return [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]


ZERO_EDGE_VALUES = (
    _neighbours(1e-8) + _neighbours(-1e-8)
    + [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0]
)


class TestZeroTarget:
    @pytest.mark.parametrize("value", ZERO_EDGE_VALUES)
    def test_matches_allclose_on_each_value(self, value):
        y = np.array([value])
        assert is_zero_target(y) == bool(np.allclose(y, 0.0))

    @pytest.mark.parametrize("value", ZERO_EDGE_VALUES)
    def test_matches_allclose_beside_zeros(self, value):
        for y in (np.array([0.0, value, -0.0]), np.array([value] * 4)):
            assert is_zero_target(y) == bool(np.allclose(y, 0.0))

    def test_matches_allclose_on_random_targets(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            size = int(rng.integers(1, 50))
            y = rng.normal(scale=10.0 ** rng.integers(-12, 2), size=size)
            assert is_zero_target(y) == bool(np.allclose(y, 0.0))


class TestSquaredColumn:
    def test_c4_squares_with_scalar_pow(self):
        """C4's ``xl**2`` column is ``[v ** 2 for v in grid]``, bit for bit.

        Python's float ``**`` goes through libm ``pow``, which is not
        always correctly rounded, so it can differ from ``v * v`` and
        from numpy's vectorized ``arr ** 2`` (a multiply) in the last
        bit. The production design matrix — and so every fitted
        coefficient — is pinned to the scalar form and to the
        reference's scalar rows; a vectorized power would move bits.
        """
        rng = np.random.default_rng(3)
        for _ in range(2000):
            low, high = sorted(rng.random(2))
            grid = np.linspace(low, high, DEFAULT_GRID_W + 1)
            values = [float(v) for v in grid]
            design = C4.design_matrix({"xl": grid})
            expected = np.array([v ** 2 for v in values])
            assert design[:, 0].tobytes() == expected.tobytes()
            assert design[:, 1].tobytes() == grid.tobytes()
            rows = np.asarray([_design_row(C4, {"xl": v}) for v in values])
            assert design.tobytes() == rows.tobytes()


def _falls_back(mean: float, std: float) -> bool:
    """Whether the grid interval is empty, so ``high`` is re-derived."""
    spread = max(3.0 * std, MIN_RELATIVE_SPREAD * max(mean, 1e-9))
    return min(mean + spread, 1.0) <= max(mean - spread, 0.0)


class TestGridPoints:
    """The fitter's grid is ``np.linspace``'s, byte for byte.

    The production fitter applies linspace's own arithmetic (offset
    times step, plus ``low``, last point ``high``) to an ``arange(W +
    1)`` it builds once; the reference calls ``np.linspace``.
    """

    @pytest.mark.parametrize("grid_w", GRID_WIDTHS)
    def test_matches_linspace(self, grid_w):
        rng = np.random.default_rng(230 + grid_w)
        # Exact zero and one, and empty intervals (mean past a clamp).
        cases = [
            (0.0, 0.0), (0.0, 0.3), (1.0, 0.0), (1.0, 0.2),
            (1.2, 0.0), (2.0, 0.01), (-0.5, 0.0), (-1e-12, 0.0),
        ]
        for _ in range(400):
            cases += [
                (0.0, float(rng.random())),
                (10.0 ** rng.uniform(-20, -15), 0.0),
                (10.0 ** rng.uniform(-20, -15), 10.0 ** rng.uniform(-22, -14)),
                (float(rng.random()), 0.2 * float(rng.random())),
                (1.0 - 10.0 ** rng.uniform(-16, -1), 0.1 * float(rng.random())),
                (float(rng.uniform(1.0, 1.5)), 0.05 * float(rng.random())),
            ]
        estimate = SimpleNamespace(per_node={
            var_id: SimpleNamespace(mean=mean, std=std)
            for var_id, (mean, std) in enumerate(cases)
        })
        planned = SimpleNamespace(database=None)
        fitter = CostFunctionFitter(planned, estimate, grid_w)
        reference = ReferenceCostFunctionFitter(planned, estimate, grid_w)
        for var_id, case in enumerate(cases):
            expected = reference._grid_points(var_id)
            grid = fitter._grid_points(var_id)
            assert grid.dtype == expected.dtype, case
            assert grid.shape == expected.shape, case
            assert grid.tobytes() == expected.tobytes(), case
        assert sum(_falls_back(*case) for case in cases) >= 100

    def test_grid_needs_a_subinterval(self):
        planned = SimpleNamespace(database=None)
        with pytest.raises(FittingError):
            CostFunctionFitter(planned, SimpleNamespace(per_node={}), 0)
