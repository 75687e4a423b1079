"""The cost model over arrays, pinned bit for bit to its scalar calls.

The fitter evaluates an operator's whole grid of candidate selectivities
in one ``CostModel.operator_counts`` call, passing float64 arrays that
broadcast (the family's first variable on axis 0, its second on axis 1).
Every element of every count must carry the bits of the scalar call at
that point: the same IEEE operation on the same operands. The nodes come
from the fitting oracle's plan pool — every TPC-H template in both
forms, the micro workloads and its edge plans — plus a MergeJoin and a
Materialize built over pool children, since the optimizer emits
neither. The inputs include Sort's clamp at 2.0 and the deep-join range
(leaf-row products up to 1e21 times selectivities of 1e-17 to 1e-20).

The second half pins what the fitter hands on: one cost-model call per
fitted operator, and C-contiguous float64 targets and designs in the
shapes the scalar loop built, since the fit memo keys on their bytes.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from test_fitting_oracle import GRID_WIDTHS, _neighbours, _pool

from repro.costfuncs import fitting
from repro.costfuncs.families import family_for
from repro.costfuncs.fitting import CostFunctionFitter
from repro.optimizer.cost_model import COST_UNIT_NAMES, CostModel
from repro.plan.physical import MaterializeNode, MergeJoinNode, OpKind
from repro.sampling import SelectivityEstimator

W = 6

#: Sort's clamp: ``log2(max(n, 2.0))`` switches branch at 2.0.
CLAMP = np.array([0.0, 1.0, *_neighbours(2.0), 3.0, 1e3])


def _deep(rows: float, low: float, high: float) -> np.ndarray:
    """A deep join's cardinality grid: leaf-row product times selectivities."""
    return rows * np.linspace(low, high, W + 1)


DEEP = [
    _deep(5e18, 1e-20, 1e-17),
    _deep(1e21, 1e-20, 3e-20),
    _deep(1e21, 0.95e-17, 1.05e-17),
]


@pytest.fixture(scope="module")
def pool(tpch_db, optimizer):
    return [optimizer.plan_sql(sql) for sql in _pool(tpch_db)]


@pytest.fixture(scope="module")
def nodes(pool):
    """``(planned, node)`` for every pool node, a MergeJoin and a Materialize."""
    result = []
    joins = []
    for planned in pool:
        for node in planned.root.walk():
            result.append((planned, node))
            if node.kind is OpKind.HASH_JOIN:
                joins.append((planned, node))
    planned, join = joins[0]
    result.append(
        (planned, MergeJoinNode(children=list(join.children), op_id=join.op_id))
    )
    result.append((planned, MaterializeNode(children=[join], op_id=join.op_id)))
    return result


def _grids(planned, node) -> list[np.ndarray]:
    """Input grids for ``node``: the clamp, the deep range, and its own."""
    rows = planned.leaf_row_product(node)
    selectivity = planned.est_cards[node.op_id] / max(rows, 1.0)
    own = rows * np.linspace(0.5 * selectivity, min(1.5 * selectivity, 1.0), W + 1)
    return [CLAMP, *DEEP, own]


def _bits(value) -> bytes:
    return struct.pack("<d", value)


def _assert_matches_scalar_calls(model, node, n_left, n_right, m_out):
    arguments = (n_left, n_right, m_out)
    shape = np.broadcast_shapes(*(np.shape(value) for value in arguments))
    counts = model.operator_counts(node, *arguments).as_dict()
    assert list(counts) == list(COST_UNIT_NAMES)
    grids = {}
    for unit, count in counts.items():
        if isinstance(count, np.ndarray):
            assert count.dtype == np.float64, (node.kind, unit)
        grids[unit] = np.broadcast_to(count, shape)
    inputs = [np.broadcast_to(value, shape) for value in arguments]
    for index in np.ndindex(shape):
        scalar = model.operator_counts(
            node, *(float(value[index]) for value in inputs)
        ).as_dict()
        for unit, value in scalar.items():
            assert _bits(grids[unit][index]) == _bits(value), (
                node.kind, unit, index,
            )


class TestArrayCostModel:
    def test_pool_covers_every_kind(self, nodes):
        assert {node.kind for _, node in nodes} == set(OpKind)

    def test_one_dimensional_grids(self, nodes):
        for planned, node in nodes:
            model = CostModel(planned.database)
            for grid in _grids(planned, node):
                _assert_matches_scalar_calls(
                    model, node, grid, grid[::-1].copy(), grid
                )
                _assert_matches_scalar_calls(model, node, grid, 7.0, 3.0)
                _assert_matches_scalar_calls(model, node, 3.0, 7.0, grid)

    def test_broadcast_point_grids(self, nodes):
        for planned, node in nodes:
            model = CostModel(planned.database)
            grids = _grids(planned, node)
            for first, second in zip(grids, grids[1:] + grids[:1]):
                rows = first.reshape(-1, 1)
                columns = second.reshape(1, -1)
                _assert_matches_scalar_calls(model, node, rows, columns, 5.0)
                _assert_matches_scalar_calls(model, node, rows, 5.0, columns)

    def test_sort_on_many_counts(self, nodes):
        """Sort's ``log2`` is ``math.log2`` per element, never numpy's.

        numpy's ``log2`` loop may take a SIMD path whose last bit
        depends on the CPU; on an AVX-512 host it differs from libm on
        about one value in 10^4, so 50,000 log-uniform counts give the
        comparison something to catch.
        """
        planned, sort = next(
            (planned, node) for planned, node in nodes
            if node.kind is OpKind.SORT
        )
        counts = np.exp(np.random.default_rng(5).uniform(0.0, 50.0, 50_000))
        _assert_matches_scalar_calls(
            CostModel(planned.database), sort, counts, 0.0, 0.0
        )

    def test_floats_stay_floats(self, nodes):
        """The optimizer and the executor pass floats and get floats back."""
        for planned, node in nodes:
            counts = CostModel(planned.database).operator_counts(
                node, 10.0, 20.0, 5.0
            )
            for unit, value in counts.as_dict().items():
                assert isinstance(value, float), (node.kind, unit)


class TestFitterHandoff:
    @pytest.mark.parametrize("grid_w", GRID_WIDTHS)
    def test_one_call_per_operator_and_c_ordered_problems(
        self, pool, sample_db, monkeypatch, grid_w
    ):
        problems = []
        calls = []
        solve = fitting.nnls
        evaluate = CostModel.operator_counts

        def recording_nnls(design, y):
            problems.append((design, y))
            return solve(design, y)

        def counting(model, node, *arguments):
            calls.append(node.op_id)
            return evaluate(model, node, *arguments)

        monkeypatch.setattr(fitting, "nnls", recording_nnls)
        monkeypatch.setattr(CostModel, "operator_counts", counting)
        for planned in pool:
            estimate = SelectivityEstimator(sample_db, planned).estimate()
            calls.clear()
            fitted = CostFunctionFitter(planned, estimate, grid_w).fit_all()
            expected = [
                node.op_id for node in planned.root.walk()
                if any(family_for(node.kind, unit) for unit in COST_UNIT_NAMES)
            ]
            assert calls == expected
            families = [
                function.family
                for operator in fitted.values()
                for function in operator.functions.values()
            ]
            assert len(problems) == len(families)
            for (design, y), family in zip(problems, families):
                for array in (design, y):
                    assert array.dtype == np.float64
                    assert array.flags.c_contiguous
                points = (grid_w + 1) ** len(family.variables)
                assert y.shape == (points,)
                assert design.shape == (points, family.num_coefficients)
            problems.clear()
