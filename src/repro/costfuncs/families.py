"""The logical cost-function families C1..C6 (Section 4.1).

Expressed in selectivity terms (the primed forms C1'..C6'): each family
is a polynomial basis over up to three variables — the operator's own
selectivity ``x``, and its left/right input selectivities ``xl``/``xr``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..plan.physical import OpKind

__all__ = [
    "CostFunctionFamily",
    "C1",
    "C2",
    "C3",
    "C4",
    "C5",
    "C6",
    "FAMILY_BY_KIND",
    "family_for",
    "on_axis",
]

#: A term is a mapping from family variable name to exponent.
Term = dict[str, int]


@dataclass(frozen=True)
class CostFunctionFamily:
    """A polynomial basis: f = sum_i b_i * term_i."""

    name: str
    terms: tuple  # tuple[Term, ...] — the constant term is the empty dict
    variables: tuple[str, ...]

    @property
    def num_coefficients(self) -> int:
        return len(self.terms)

    def design_matrix(self, grids: dict[str, np.ndarray]) -> np.ndarray:
        """The regression design over the product of per-variable grids.

        One C-ordered row per grid point, the family's first variable
        varying slowest (see :func:`on_axis`), one column per term. A
        term's column multiplies its factors in term order, starting
        from 1.0, each factor ``v ** e`` taken per grid value as a
        Python float: that is libm ``pow``, whereas numpy's
        ``grid ** 2`` is a multiply and can differ in the last bit.
        """
        shape = tuple(len(grids[var]) for var in self.variables)
        design = np.empty(shape + (len(self.terms),))
        for i, term in enumerate(self.terms):
            column = 1.0
            for var, exponent in term.items():
                factor = np.array([v ** exponent for v in grids[var].tolist()])
                column = column * on_axis(factor, self.variables, var)
            design[..., i] = column
        return design.reshape(-1, len(self.terms))


def on_axis(
    values: np.ndarray, variables: tuple[str, ...], var: str
) -> np.ndarray:
    """``values`` laid along ``var``'s axis of the grid over ``variables``.

    Axis i belongs to ``variables[i]``, so the grid's C-order points run
    with the first variable slowest.
    """
    return values.reshape([-1 if name == var else 1 for name in variables])


C1 = CostFunctionFamily("C1", ({},), ())
C2 = CostFunctionFamily("C2", ({"x": 1}, {}), ("x",))
C3 = CostFunctionFamily("C3", ({"xl": 1}, {}), ("xl",))
C4 = CostFunctionFamily("C4", ({"xl": 2}, {"xl": 1}, {}), ("xl",))
C5 = CostFunctionFamily("C5", ({"xl": 1}, {"xr": 1}, {}), ("xl", "xr"))
C6 = CostFunctionFamily(
    "C6", ({"xl": 1, "xr": 1}, {"xl": 1}, {"xr": 1}, {}), ("xl", "xr")
)

#: Which family models each (operator kind, cost unit) pair, mirroring the
#: engine cost model's structure (units absent from the map are zero).
FAMILY_BY_KIND: dict[OpKind, dict[str, CostFunctionFamily]] = {
    OpKind.SEQ_SCAN: {"cs": C1, "ct": C1, "co": C1},
    OpKind.INDEX_SCAN: {"cr": C2, "ct": C2, "ci": C2, "co": C2},
    OpKind.FILTER: {"ct": C3, "co": C3},
    OpKind.HASH_JOIN: {"ct": C5, "co": C5},
    OpKind.MERGE_JOIN: {"ct": C5, "co": C5},
    OpKind.NESTLOOP_JOIN: {"ct": C6, "co": C6},
    OpKind.SORT: {"ct": C3, "co": C4},
    OpKind.AGGREGATE: {"ct": C3, "co": C3},
    OpKind.MATERIALIZE: {"ct": C3, "co": C3},
    OpKind.LIMIT: {},
}


def family_for(kind: OpKind, unit: str) -> CostFunctionFamily | None:
    """The family modeling ``unit`` for operator ``kind`` (None = zero)."""
    return FAMILY_BY_KIND.get(kind, {}).get(unit)
