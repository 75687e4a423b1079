"""Binding: resolve a parsed query against a database into logical form.

The bound query is the optimizer's input: per-alias scan predicates, the
equijoin graph, residual cross-table filters, and the aggregate /
projection spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PlanError
from ..sql.ast import (
    AggCall,
    Between,
    ColumnRef,
    Comparison,
    InList,
    LikePrefix,
    Literal,
    Query,
)
from ..storage import ColumnType, Database
from .expressions import AggSpec, ScalarExpr, compile_scalar
from .predicates import (
    ColumnComparePredicate,
    ColumnPairScanPredicate,
    PredicateKind,
    ScanPredicate,
)

__all__ = ["JoinEdge", "BoundQuery", "bind_query"]


@dataclass(frozen=True)
class JoinEdge:
    """An equijoin predicate between two aliases."""

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str

    def touches(self, alias: str) -> bool:
        return alias in (self.left_alias, self.right_alias)

    def __str__(self) -> str:
        return (
            f"{self.left_alias}.{self.left_column} = "
            f"{self.right_alias}.{self.right_column}"
        )


@dataclass
class BoundQuery:
    """A query resolved against a catalog, ready for optimization."""

    tables: dict[str, str]  # alias -> table name
    scan_predicates: dict[str, list[ScanPredicate]]
    join_edges: list[JoinEdge]
    cross_filters: list[ColumnComparePredicate]
    group_keys: list[str] = field(default_factory=list)  # qualified names
    aggregates: list[AggSpec] = field(default_factory=list)
    projections: list[tuple[str, ScalarExpr]] = field(default_factory=list)
    order_by: list[tuple[str, bool]] = field(default_factory=list)
    limit: int | None = None
    select_star: bool = False

    @property
    def aliases(self) -> list[str]:
        return list(self.tables)

    @property
    def has_aggregates(self) -> bool:
        return bool(self.aggregates) or bool(self.group_keys)


_OP_KIND = {
    "=": PredicateKind.EQ,
    "<>": PredicateKind.NE,
    "<": PredicateKind.LT,
    "<=": PredicateKind.LE,
    ">": PredicateKind.GT,
    ">=": PredicateKind.GE,
}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


class _Resolver:
    """Maps column references to ``(alias, column)`` pairs."""

    def __init__(self, query: Query, database: Database):
        self._by_alias: dict[str, dict[str, ColumnType]] = {}
        self.tables: dict[str, str] = {}
        for ref in query.tables:
            alias = ref.effective_name
            if alias in self.tables:
                raise PlanError(f"duplicate table alias: {alias!r}")
            table = database.table(ref.table)
            self.tables[alias] = ref.table
            self._by_alias[alias] = {c.name: c.ctype for c in table.schema}

    def is_text(self, alias: str, column: str) -> bool:
        return self._by_alias[alias][column] is ColumnType.STR

    def resolve(self, ref: ColumnRef) -> tuple[str, str]:
        if ref.qualifier is not None:
            if ref.qualifier not in self._by_alias:
                raise PlanError(f"unknown table alias: {ref.qualifier!r}")
            if ref.name not in self._by_alias[ref.qualifier]:
                raise PlanError(f"unknown column: {ref}")
            return ref.qualifier, ref.name
        owners = [a for a, cols in self._by_alias.items() if ref.name in cols]
        if not owners:
            raise PlanError(f"unknown column: {ref.name!r}")
        if len(owners) > 1:
            raise PlanError(f"ambiguous column: {ref.name!r} (in {owners})")
        return owners[0], ref.name

    def qualified(self, ref: ColumnRef) -> str:
        alias, column = self.resolve(ref)
        return f"{alias}.{column}"


def bind_query(query: Query, database: Database) -> BoundQuery:
    """Resolve ``query`` against ``database``."""
    resolver = _Resolver(query, database)
    scan_predicates: dict[str, list[ScanPredicate]] = {
        alias: [] for alias in resolver.tables
    }
    join_edges: list[JoinEdge] = []
    cross_filters: list[ColumnComparePredicate] = []

    for predicate in query.predicates:
        _bind_predicate(predicate, resolver, scan_predicates, join_edges, cross_filters)

    group_keys = [resolver.qualified(ref) for ref in query.group_by]

    aggregates: list[AggSpec] = []
    projections: list[tuple[str, ScalarExpr]] = []
    for position, item in enumerate(query.select):
        expression = item.expression
        if isinstance(expression, AggCall):
            name = item.alias or f"{expression.func.lower()}_{position}"
            argument = None
            if expression.argument is not None:
                argument = compile_scalar(expression.argument, resolver.qualified)
            aggregates.append(
                AggSpec(
                    func=expression.func,
                    argument=argument,
                    output_name=name,
                    distinct=expression.distinct,
                )
            )
        else:
            compiled = compile_scalar(expression, resolver.qualified)
            if isinstance(expression, ColumnRef):
                name = item.alias or resolver.qualified(expression)
            else:
                name = item.alias or f"expr_{position}"
            projections.append((name, compiled))

    if aggregates and projections:
        # Plain columns alongside aggregates must be group keys.
        for name, compiled in projections:
            for column in compiled.columns:
                if column not in group_keys:
                    raise PlanError(
                        f"non-aggregated column {column!r} requires GROUP BY"
                    )

    order_by = [
        (resolver.qualified(item.expression), item.descending)
        for item in query.order_by
    ]

    return BoundQuery(
        tables=resolver.tables,
        scan_predicates=scan_predicates,
        join_edges=join_edges,
        cross_filters=cross_filters,
        group_keys=group_keys,
        aggregates=aggregates,
        projections=projections,
        order_by=order_by,
        limit=query.limit,
        select_star=query.select_star,
    )


def _check_literals(resolver, alias: str, column: str, literals) -> None:
    """Refuse literals that cannot compare with the column's values.

    String columns compare with string literals; numeric and date
    columns (dates are day numbers) with number and DATE literals.
    """
    is_text = resolver.is_text(alias, column)
    for literal in literals:
        if (literal.kind == "string") != is_text:
            kind = "a string" if is_text else "a number or date"
            shown = "a DATE literal" if literal.kind == "date" else repr(literal.value)
            raise PlanError(f"{alias}.{column} compares with {kind}, not {shown}")


def _bind_predicate(predicate, resolver, scan_predicates, join_edges, cross_filters):
    if isinstance(predicate, Comparison):
        left_alias, left_column = resolver.resolve(predicate.left)
        if isinstance(predicate.right, ColumnRef):
            right_alias, right_column = resolver.resolve(predicate.right)
            if resolver.is_text(left_alias, left_column) != resolver.is_text(
                right_alias, right_column
            ):
                raise PlanError(
                    f"cannot compare {left_alias}.{left_column} with "
                    f"{right_alias}.{right_column}: one is a string column"
                )
            if left_alias == right_alias:
                scan_predicates[left_alias].append(
                    ColumnPairScanPredicate(
                        alias=left_alias,
                        left_column=left_column,
                        op=_OP_KIND[predicate.op],
                        right_column=right_column,
                    )
                )
                return
            if predicate.op == "=":
                join_edges.append(
                    JoinEdge(left_alias, left_column, right_alias, right_column)
                )
            else:
                cross_filters.append(
                    ColumnComparePredicate(
                        left_alias,
                        left_column,
                        _OP_KIND[predicate.op],
                        right_alias,
                        right_column,
                    )
                )
            return
        if not isinstance(predicate.right, Literal):
            raise PlanError(f"unsupported comparison operand: {predicate.right!r}")
        _check_literals(resolver, left_alias, left_column, [predicate.right])
        scan_predicates[left_alias].append(
            ScanPredicate(
                alias=left_alias,
                column=left_column,
                kind=_OP_KIND[predicate.op],
                values=(predicate.right.value,),
            )
        )
        return
    if isinstance(predicate, Between):
        alias, column = resolver.resolve(predicate.column)
        _check_literals(resolver, alias, column, [predicate.low, predicate.high])
        scan_predicates[alias].append(
            ScanPredicate(
                alias=alias,
                column=column,
                kind=PredicateKind.BETWEEN,
                values=(predicate.low.value, predicate.high.value),
            )
        )
        return
    if isinstance(predicate, InList):
        alias, column = resolver.resolve(predicate.column)
        _check_literals(resolver, alias, column, predicate.values)
        scan_predicates[alias].append(
            ScanPredicate(
                alias=alias,
                column=column,
                kind=PredicateKind.IN,
                values=tuple(v.value for v in predicate.values),
            )
        )
        return
    if isinstance(predicate, LikePrefix):
        alias, column = resolver.resolve(predicate.column)
        if not resolver.is_text(alias, column):
            raise PlanError(f"LIKE needs a string column, not {alias}.{column}")
        scan_predicates[alias].append(
            ScanPredicate(
                alias=alias,
                column=column,
                kind=PredicateKind.PREFIX,
                values=(predicate.prefix,),
            )
        )
        return
    raise PlanError(f"unsupported predicate: {predicate!r}")
