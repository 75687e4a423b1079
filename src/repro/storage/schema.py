"""Table schemas: typed column definitions and derived physical layout."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..errors import SchemaError

__all__ = ["ColumnType", "Column", "Schema", "PAGE_SIZE_BYTES"]

#: Physical page size used by the cost model (PostgreSQL default, 8 KiB).
PAGE_SIZE_BYTES = 8192


class ColumnType(Enum):
    """Supported column types. Dates are stored as integer day numbers."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    DATE = "date"

    @property
    def width_bytes(self) -> int:
        """Approximate on-disk width, used for page-count estimates."""
        if self is ColumnType.STR:
            return 24
        return 8


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    ctype: ColumnType

    def __post_init__(self):
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name: {self.name!r}")


@dataclass
class Schema:
    """An ordered collection of columns with name-based lookup."""

    columns: list[Column]
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {}
        for position, column in enumerate(self.columns):
            if column.name in self._index:
                raise SchemaError(f"duplicate column name: {column.name!r}")
            self._index[column.name] = position

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def column(self, name: str) -> Column:
        """Return the column named ``name`` or raise :class:`SchemaError`."""
        try:
            return self.columns[self._index[name]]
        except KeyError:
            raise SchemaError(f"unknown column: {name!r}") from None

    def position(self, name: str) -> int:
        """Return the ordinal position of column ``name``."""
        if name not in self._index:
            raise SchemaError(f"unknown column: {name!r}")
        return self._index[name]

    @property
    def names(self) -> list[str]:
        return [column.name for column in self.columns]

    @property
    def row_width_bytes(self) -> int:
        """Approximate width of one row, plus a fixed per-tuple header."""
        header = 24
        return header + sum(column.ctype.width_bytes for column in self.columns)
