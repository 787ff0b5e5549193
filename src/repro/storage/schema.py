"""Table schema model for the embedded storage engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..exceptions import ColumnNotFoundError
from ..sql import ast
from .types import ColumnType, make_type


@dataclass
class Column:
    """A column definition within a table schema."""

    name: str
    type: ColumnType
    not_null: bool = False
    auto_increment: bool = False
    default: Any = None
    unique: bool = False

    @classmethod
    def from_ast(cls, definition: ast.ColumnDefinition) -> "Column":
        return cls(
            name=definition.name,
            type=make_type(definition.type_name, definition.length),
            not_null=definition.not_null or definition.primary_key,
            auto_increment=definition.auto_increment,
            default=definition.default,
            unique=definition.unique,
        )


@dataclass
class TableSchema:
    """Column layout and key constraints of one table."""

    name: str
    columns: list[Column]
    primary_key: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_name = {col.name.lower(): col for col in self.columns}
        self._offsets = {col.name.lower(): i for i, col in enumerate(self.columns)}
        for key in self.primary_key:
            if key.lower() not in self._by_name:
                raise ColumnNotFoundError(f"primary key column {key!r} not in table {self.name}")

    @property
    def column_names(self) -> list[str]:
        return [col.name for col in self.columns]

    def column_offset(self, name: str) -> int:
        """Position of a column in schema order — the index of its value
        in a row this schema normalized."""
        try:
            return self._offsets[name.lower()]
        except KeyError:
            raise ColumnNotFoundError(f"column {name!r} not in table {self.name}") from None

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_name

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise ColumnNotFoundError(f"column {name!r} not in table {self.name}") from None

    @classmethod
    def from_ast(cls, stmt: ast.CreateTableStatement) -> "TableSchema":
        columns = [Column.from_ast(col) for col in stmt.columns]
        return cls(name=stmt.table.name, columns=columns, primary_key=list(stmt.primary_key))

    def clone_renamed(self, new_name: str) -> "TableSchema":
        """A copy of this schema under a different table name (AutoTable)."""
        return TableSchema(
            name=new_name,
            columns=[Column(c.name, c.type, c.not_null, c.auto_increment, c.default, c.unique) for c in self.columns],
            primary_key=list(self.primary_key),
        )
