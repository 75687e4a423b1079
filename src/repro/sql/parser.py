"""Recursive-descent parser for the supported SQL subset.

Grammar (informal)::

    query      := SELECT select_list FROM table_list [WHERE conjunction]
                  [GROUP BY columns] [ORDER BY order_items] [LIMIT number]
    select_list:= '*' | item (',' item)*
    item       := scalar [AS ident] | agg '(' ['*' | [DISTINCT] scalar] ')'
    scalar     := term (('+'|'-') term)*
    term       := factor (('*'|'/') factor)*
    factor     := literal | column | '(' scalar ')'
    predicate  := column op (literal|column) | column BETWEEN lit AND lit
                | column IN '(' lit, ... ')' | column LIKE 'prefix%'
    conjunction:= predicate (AND predicate)*
"""

from __future__ import annotations

from ..errors import SqlParseError
from .ast import (
    AggCall,
    Arith,
    Between,
    ColumnRef,
    Comparison,
    InList,
    LikePrefix,
    Literal,
    OrderItem,
    Query,
    SelectItem,
    TableRef,
    date_literal_days,
)
from .lexer import Token, TokenType, tokenize

__all__ = ["parse_query"]

_AGG_FUNCS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
_COMPARE_OPS = {"=", "<>", "<", "<=", ">", ">="}


def _number(text: str):
    """Parse a NUMBER token: int when possible, else float."""
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def parse_query(sql: str) -> Query:
    """Parse ``sql`` into a :class:`~repro.sql.ast.Query`."""
    return _Parser(tokenize(sql)).parse()


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers -------------------------------------------------
    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        self._pos += 1
        return token

    def _expect_keyword(self, name: str) -> Token:
        if not self._current.is_keyword(name):
            raise SqlParseError(
                f"expected {name} at position {self._current.position}, "
                f"got {self._current.value!r}"
            )
        return self._advance()

    def _expect(self, ttype: TokenType) -> Token:
        if self._current.type is not ttype:
            raise SqlParseError(
                f"expected {ttype.value} at position {self._current.position}, "
                f"got {self._current.value!r}"
            )
        return self._advance()

    def _accept_keyword(self, *names: str) -> Token | None:
        if self._current.is_keyword(*names):
            return self._advance()
        return None

    # -- grammar -------------------------------------------------------
    def parse(self) -> Query:
        self._expect_keyword("SELECT")
        select_star = False
        items: list[SelectItem] = []
        if self._current.type is TokenType.STAR:
            self._advance()
            select_star = True
        else:
            items.append(self._select_item())
            while self._current.type is TokenType.COMMA:
                self._advance()
                items.append(self._select_item())

        self._expect_keyword("FROM")
        tables = [self._table_ref()]
        while self._current.type is TokenType.COMMA:
            self._advance()
            tables.append(self._table_ref())

        predicates: list[object] = []
        if self._accept_keyword("WHERE"):
            predicates.append(self._predicate())
            while self._accept_keyword("AND"):
                predicates.append(self._predicate())

        group_by: list[ColumnRef] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._column_ref())
            while self._current.type is TokenType.COMMA:
                self._advance()
                group_by.append(self._column_ref())

        order_by: list[OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._order_item())
            while self._current.type is TokenType.COMMA:
                self._advance()
                order_by.append(self._order_item())

        limit = None
        if self._accept_keyword("LIMIT"):
            limit = int(self._expect(TokenType.NUMBER).value)

        if self._current.type is not TokenType.END:
            raise SqlParseError(
                f"trailing input at position {self._current.position}: "
                f"{self._current.value!r}"
            )
        return Query(
            select=items,
            tables=tables,
            predicates=predicates,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
            select_star=select_star,
        )

    def _select_item(self) -> SelectItem:
        if self._current.type is TokenType.KEYWORD and self._current.value in _AGG_FUNCS:
            expression: object = self._agg_call()
        else:
            expression = self._scalar()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect(TokenType.IDENT).value
        return SelectItem(expression=expression, alias=alias)

    def _agg_call(self) -> AggCall:
        func = self._advance().value
        self._expect(TokenType.LPAREN)
        if self._current.type is TokenType.STAR:
            self._advance()
            self._expect(TokenType.RPAREN)
            if func != "COUNT":
                raise SqlParseError(f"{func}(*) is not supported")
            return AggCall(func="COUNT", argument=None)
        distinct = bool(self._accept_keyword("DISTINCT"))
        argument = self._scalar()
        self._expect(TokenType.RPAREN)
        return AggCall(func=func, argument=argument, distinct=distinct)

    def _table_ref(self) -> TableRef:
        table = self._expect(TokenType.IDENT).value
        alias = None
        if self._current.type is TokenType.IDENT:
            alias = self._advance().value
        return TableRef(table=table, alias=alias)

    def _order_item(self) -> OrderItem:
        column = self._column_ref()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return OrderItem(expression=column, descending=descending)

    # -- scalar expressions ---------------------------------------------
    def _scalar(self):
        left = self._term()
        while (
            self._current.type is TokenType.OPERATOR
            and self._current.value in ("+", "-")
        ):
            op = self._advance().value
            left = Arith(op=op, left=left, right=self._term())
        return left

    def _term(self):
        left = self._factor()
        while (
            self._current.type is TokenType.OPERATOR and self._current.value == "/"
        ) or self._current.type is TokenType.STAR:
            op = "*" if self._current.type is TokenType.STAR else "/"
            self._advance()
            left = Arith(op=op, left=left, right=self._factor())
        return left

    def _factor(self):
        token = self._current
        if token.type is TokenType.OPERATOR and token.value == "-":
            self._advance()
            inner = self._factor()
            if isinstance(inner, Literal) and inner.kind == "number":
                return Literal(value=-inner.value, kind="number")
            return Arith(op="-", left=Literal(0, "number"), right=inner)
        if token.type is TokenType.LPAREN:
            self._advance()
            inner = self._scalar()
            self._expect(TokenType.RPAREN)
            return inner
        if token.type is TokenType.NUMBER:
            self._advance()
            return Literal(value=_number(token.value), kind="number")
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(value=token.value, kind="string")
        if token.is_keyword("DATE"):
            return self._date_literal()
        if token.type is TokenType.IDENT:
            return self._column_ref()
        raise SqlParseError(
            f"unexpected token {token.value!r} at position {token.position}"
        )

    def _column_ref(self) -> ColumnRef:
        first = self._expect(TokenType.IDENT).value
        if self._current.type is TokenType.DOT:
            self._advance()
            second = self._expect(TokenType.IDENT).value
            return ColumnRef(name=second, qualifier=first)
        return ColumnRef(name=first)

    # -- predicates -----------------------------------------------------
    def _predicate(self):
        column = self._column_ref()
        token = self._current
        if token.is_keyword("BETWEEN"):
            self._advance()
            low = self._literal()
            self._expect_keyword("AND")
            high = self._literal()
            return Between(column=column, low=low, high=high)
        if token.is_keyword("IN"):
            self._advance()
            self._expect(TokenType.LPAREN)
            values = [self._literal()]
            while self._current.type is TokenType.COMMA:
                self._advance()
                values.append(self._literal())
            self._expect(TokenType.RPAREN)
            return InList(column=column, values=tuple(values))
        if token.is_keyword("LIKE"):
            self._advance()
            pattern = self._expect(TokenType.STRING).value
            if not pattern.endswith("%") or "%" in pattern[:-1] or "_" in pattern:
                raise SqlParseError(
                    f"only prefix LIKE patterns are supported, got {pattern!r}"
                )
            return LikePrefix(column=column, prefix=pattern[:-1])
        if token.type is TokenType.OPERATOR and token.value in _COMPARE_OPS:
            op = self._advance().value
            right_token = self._current
            if right_token.type is TokenType.IDENT:
                right: object = self._column_ref()
            else:
                right = self._literal()
            return Comparison(left=column, op=op, right=right)
        raise SqlParseError(
            f"expected predicate operator at position {token.position}, "
            f"got {token.value!r}"
        )

    def _literal(self) -> Literal:
        token = self._current
        if token.type is TokenType.OPERATOR and token.value == "-":
            self._advance()
            number = self._expect(TokenType.NUMBER)
            return Literal(value=-_number(number.value), kind="number")
        if token.type is TokenType.NUMBER:
            self._advance()
            return Literal(value=_number(token.value), kind="number")
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(value=token.value, kind="string")
        if token.is_keyword("DATE"):
            return self._date_literal()
        raise SqlParseError(
            f"expected literal at position {token.position}, got {token.value!r}"
        )

    def _date_literal(self) -> Literal:
        self._advance()
        token = self._expect(TokenType.STRING)
        try:
            days = date_literal_days(token.value)
        except (ValueError, OverflowError):
            raise SqlParseError(
                f"malformed DATE literal {token.value!r} at position "
                f"{token.position}: expected 'YYYY-MM-DD'"
            ) from None
        return Literal(value=days, kind="date")
