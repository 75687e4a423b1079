"""Cost-function fitting (Section 4.2).

For every operator the fitter invokes the engine's cost model on a grid
of candidate selectivities drawn from ``[mu - 3 sigma, mu + 3 sigma]``
(clipped to [0, 1]) — once for the whole grid, passed as arrays,
reading all five cost units off that one call — and, per (operator,
cost unit) pair, solves the nonnegative least-squares problem for the
family's coefficients over a design matrix built column by column. The
result is a polynomial in the plan's selectivity *variables* —
identified by the op_id of the operator whose selectivity they are —
ready for the moment computations of Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..caching import ByteBudgetLRU
from ..errors import FittingError
from ..optimizer.cost_model import COST_UNIT_NAMES, CostModel
from ..optimizer.optimizer import PlannedQuery
from ..plan.physical import PlanNode
from ..sampling.estimator import SamplingEstimate
from .families import CostFunctionFamily, family_for, on_axis
from .nnls import nnls

__all__ = [
    "FIT_MEMO_BYTES",
    "FittedCostFunction",
    "OperatorCostFunctions",
    "CostFunctionFitter",
    "is_zero_target",
]

#: Number of subintervals W: the grid has W+1 points per variable.
DEFAULT_GRID_W = 6
#: Minimum half-width of the grid interval, relative to the mean, used when
#: the estimated sigma is (near) zero so the regression stays conditioned.
MIN_RELATIVE_SPREAD = 0.05
#: Targets no larger than this in magnitude count as zero: the unit is
#: absent from the operator's cost and gets no fitted function.
ZERO_TARGET_TOLERANCE = 1e-8
#: Byte bound of a fit-solution memo (``ByteBudgetLRU(FIT_MEMO_BYTES)``).
#: An entry is about 1 KiB, so the bound holds some 16k distinct
#: problems; it is a constant because a miss only costs one NNLS solve.
FIT_MEMO_BYTES = 16 * 1024 * 1024


def is_zero_target(y: np.ndarray) -> bool:
    """Whether every regression target is zero within the tolerance.

    The same decision as ``np.allclose(y, 0.0)`` (``|y| <= 1e-8 +
    1e-5 * 0``) for every input, NaN and infinities included, without
    its broadcasting and finiteness bookkeeping.
    """
    return bool(np.all(np.abs(y) <= ZERO_TARGET_TOLERANCE))


def _point_targets(count, variables: tuple[str, ...], grid_w: int) -> np.ndarray:
    """One unit's count at every grid point, as a fresh float64 vector.

    The count is broadcast over the full grid (constant along any axis
    it does not depend on) and flattened in C order, the first variable
    slowest.
    """
    y = np.empty((grid_w + 1,) * len(variables))
    y[...] = count
    return y.reshape(-1)


@dataclass(frozen=True)
class FittedCostFunction:
    """One fitted polynomial: unit, family, coefficients, var bindings."""

    unit: str
    family: CostFunctionFamily
    coefficients: np.ndarray
    #: family variable name ("x"/"xl"/"xr") -> selectivity variable id
    var_bindings: dict[str, int]
    fit_residual: float = 0.0

    def monomials(self) -> list[tuple[float, dict[int, int]]]:
        """(coefficient, {var_id: exponent}) terms, in family order."""
        result = []
        for coefficient, term in zip(self.coefficients, self.family.terms):
            monomial = {
                self.var_bindings[var]: exponent for var, exponent in term.items()
            }
            result.append((float(coefficient), monomial))
        return result

    def evaluate(self, var_values: dict[int, float]) -> float:
        """f at concrete selectivity values (keyed by variable id)."""
        total = 0.0
        for coefficient, monomial in self.monomials():
            product = coefficient
            for var_id, exponent in monomial.items():
                product *= var_values[var_id] ** exponent
            total += product
        return total


@dataclass
class OperatorCostFunctions:
    """All fitted per-unit cost functions of one operator."""

    op_id: int
    functions: dict[str, FittedCostFunction]

    def units(self) -> list[str]:
        return list(self.functions)


class CostFunctionFitter:
    """Fits C1..C6 coefficients for every operator of a plan.

    ``memo`` is an optional fit-solution memo (a
    :class:`~repro.caching.ByteBudgetLRU`, bounded by
    :data:`FIT_MEMO_BYTES` where the service owns one): NNLS solutions
    keyed by the exact bytes of their ``(A, y)`` problem, shared across
    plans. A hit returns the solution a miss would have computed, bit
    for bit.
    """

    def __init__(
        self,
        planned: PlannedQuery,
        estimate: SamplingEstimate,
        grid_w: int = DEFAULT_GRID_W,
        memo: ByteBudgetLRU | None = None,
    ):
        self._planned = planned
        self._estimate = estimate
        if grid_w < 1:
            raise FittingError(f"grid_w must be at least 1, got {grid_w}")
        self._cost_model = CostModel(planned.database)
        self._grid_w = grid_w
        self._grid_offsets = np.arange(grid_w + 1, dtype=np.float64)
        self._memo = memo

    # ------------------------------------------------------------------
    def fit_all(self) -> dict[int, OperatorCostFunctions]:
        return {
            node.op_id: OperatorCostFunctions(node.op_id, self._fit_operator(node))
            for node in self._planned.root.walk()
        }

    # ------------------------------------------------------------------
    def _fit_operator(self, node: PlanNode) -> dict[str, FittedCostFunction]:
        """Every nonzero unit's cost function of ``node``, in unit order.

        Units whose families share a variable set share one grid: the
        engine's cost model evaluates the whole grid in one call, and
        every unit's regression target is read off that call's counts.
        """
        functions: dict[str, FittedCostFunction] = {}
        sweeps: dict[tuple[str, ...], tuple] = {}
        designs: dict[str, np.ndarray] = {}
        for unit in COST_UNIT_NAMES:
            family = family_for(node.kind, unit)
            if family is None:
                continue
            sweep = sweeps.get(family.variables)
            if sweep is None:
                sweep = sweeps[family.variables] = self._sweep_grid(
                    node, family.variables
                )
            bindings, grids, counts = sweep
            y = _point_targets(counts[unit], family.variables, self._grid_w)
            if is_zero_target(y):
                continue
            design = designs.get(family.name)
            if design is None:
                design = designs[family.name] = family.design_matrix(grids)
            coefficients, residual = self._solve(design, y)
            functions[unit] = FittedCostFunction(
                unit=unit,
                family=family,
                coefficients=coefficients,
                var_bindings=dict(bindings),
                fit_residual=residual,
            )
        return functions

    def _sweep_grid(self, node: PlanNode, variables: tuple[str, ...]) -> tuple:
        """``(bindings, per-variable grids, unit counts)`` for ``variables``."""
        bindings = self._bind_variables(node, variables)
        grids = {var: self._grid_points(bindings[var]) for var in variables}
        return bindings, grids, self._invoke_cost_model(node, variables, grids)

    def _solve(self, design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
        """NNLS, through the memo when one is attached.

        The key is the problem itself — shape, dtype and every byte of
        ``A`` and ``y`` — so a hit is exactly the problem a miss would
        solve, and :func:`nnls` is a pure function of those bytes. The
        cached coefficient array is shared by every plan that hits it,
        hence read-only.
        """
        memo = self._memo
        if memo is None:
            return nnls(design, y)
        design_bytes = design.tobytes()
        y_bytes = y.tobytes()
        key = (
            design.shape, design.dtype.str, design_bytes,
            y.shape, y.dtype.str, y_bytes,
        )
        solution = memo.get(key)
        if solution is None:
            coefficients, residual = nnls(design, y)
            coefficients.flags.writeable = False
            solution = (coefficients, residual)
            memo.put(
                key, solution,
                len(design_bytes) + len(y_bytes) + coefficients.nbytes,
            )
        return solution

    def _bind_variables(
        self, node: PlanNode, variables: tuple[str, ...]
    ) -> dict[str, int]:
        bindings: dict[str, int] = {}
        for var in variables:
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
        """W+1 grid points over [mu - 3 sigma, mu + 3 sigma] ∩ [0, 1].

        ``np.linspace(low, high, W + 1)``'s own arithmetic (offset times
        step, plus ``low``, last point set to ``high``), so the same
        bits, without its per-call argument handling.
        """
        selectivity = self._estimate.per_node[var_id]
        mean = selectivity.mean
        spread = max(3.0 * selectivity.std, MIN_RELATIVE_SPREAD * max(mean, 1e-9))
        low = max(mean - spread, 0.0)
        high = min(mean + spread, 1.0)
        if high <= low:
            high = min(low + 1e-9, 1.0)
        grid = self._grid_offsets * ((high - low) / self._grid_w) + low
        grid[-1] = high
        return grid

    def _invoke_cost_model(
        self,
        node: PlanNode,
        variables: tuple[str, ...],
        grids: dict[str, np.ndarray],
    ) -> dict[str, float | np.ndarray]:
        """Ask the engine for every unit's count over the whole grid.

        A bound selectivity scales the leaf-row product of its operator
        (Eq. 3), laid along the variable's own axis of the grid, so the
        cardinalities broadcast to every grid point. Unbound
        cardinalities stay at the optimizer's estimates.
        """
        planned = self._planned

        def cardinality(var: str, of: PlanNode) -> float | np.ndarray:
            if var in variables:
                grid = on_axis(grids[var], variables, var)
                return planned.leaf_row_product(of) * grid
            return planned.est_cards[of.op_id]

        n_left = n_right = 0.0
        if node.children:
            n_left = cardinality("xl", node.children[0])
        if len(node.children) > 1:
            n_right = cardinality("xr", node.children[1])
        m_out = cardinality("x", node)
        return self._cost_model.operator_counts(
            node, n_left, n_right, m_out
        ).as_dict()
