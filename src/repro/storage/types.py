"""Column type system for the embedded storage engine.

Each SQL type name maps to a :class:`ColumnType` that validates and coerces
Python values on INSERT/UPDATE. The mapping is deliberately permissive in
the same places real MySQL is (ints accepted into FLOAT columns, numeric
strings into VARCHAR), and strict where constraint checks matter (length
limits, NOT NULL handled at the schema layer).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Any, Callable

from ..exceptions import TypeCheckError


@dataclass(frozen=True)
class ColumnType:
    """A column type with an optional length (VARCHAR(n), CHAR(n))."""

    name: str
    length: int | None = None

    def coerce(self, value: Any) -> Any:
        """Validate and coerce ``value``; raise TypeCheckError on mismatch."""
        if value is None:
            return None
        handler = _COERCERS.get(self.name)
        if handler is None:
            raise TypeCheckError(f"unknown column type {self.name!r}")
        return handler(self, value)

    def coercer(self) -> Callable[[Any], Any]:
        """:meth:`coerce` as one call per value, resolved once: a value
        already of the column's Python type and in range (an ``int`` in an
        integer column's range, a ``str`` within a character column's
        length) comes back as it is, and any other goes to :meth:`coerce`."""
        handler = _COERCERS.get(self.name)
        coerce = self.coerce
        if handler is _coerce_int:
            low, high = _INT_RANGES.get(self.name, _BIGINT)

            def coerce_int(value: Any) -> Any:
                if type(value) is int and low <= value <= high:
                    return value
                return coerce(value)

            return coerce_int
        if handler is _coerce_str:
            length = self.length if self.length is not None else float("inf")

            def coerce_str(value: Any) -> Any:
                if type(value) is str and len(value) <= length:
                    return value
                return coerce(value)

            return coerce_str
        return coerce

    def __str__(self) -> str:
        if self.length is not None:
            return f"{self.name}({self.length})"
        return self.name


def _coerce_int(col: ColumnType, value: Any) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        _check_int_range(col, value)
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return _coerce_int(col, int(value))
        except ValueError:
            raise TypeCheckError(f"cannot store {value!r} in {col}") from None
    raise TypeCheckError(f"cannot store {type(value).__name__} in {col}")


_BIGINT = (-(2**63), 2**63 - 1)
_INT_RANGES = {
    "SMALLINT": (-(2**15), 2**15 - 1),
    "INT": (-(2**31), 2**31 - 1),
    "INTEGER": (-(2**31), 2**31 - 1),
    "BIGINT": _BIGINT,
}


def _check_int_range(col: ColumnType, value: int) -> None:
    low, high = _INT_RANGES.get(col.name, _BIGINT)
    if not low <= value <= high:
        raise TypeCheckError(f"value {value} out of range for {col}")


def _coerce_float(col: ColumnType, value: Any) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise TypeCheckError(f"cannot store {value!r} in {col}") from None
    raise TypeCheckError(f"cannot store {type(value).__name__} in {col}")


def _coerce_str(col: ColumnType, value: Any) -> str:
    if isinstance(value, (str, int, float)):
        text = str(value)
    else:
        raise TypeCheckError(f"cannot store {type(value).__name__} in {col}")
    if col.length is not None and len(text) > col.length:
        raise TypeCheckError(f"value of length {len(text)} exceeds {col}")
    return text


def _coerce_bool(col: ColumnType, value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    raise TypeCheckError(f"cannot store {value!r} in {col}")


def _coerce_timestamp(col: ColumnType, value: Any) -> Any:
    if isinstance(value, (datetime.datetime, datetime.date)):
        return value
    if isinstance(value, str):
        try:
            return datetime.datetime.fromisoformat(value)
        except ValueError:
            raise TypeCheckError(f"cannot parse {value!r} as {col}") from None
    if isinstance(value, (int, float)):
        return datetime.datetime.fromtimestamp(value, tz=datetime.timezone.utc)
    raise TypeCheckError(f"cannot store {type(value).__name__} in {col}")


_COERCERS = {
    "INT": _coerce_int,
    "INTEGER": _coerce_int,
    "BIGINT": _coerce_int,
    "SMALLINT": _coerce_int,
    "FLOAT": _coerce_float,
    "DOUBLE": _coerce_float,
    "REAL": _coerce_float,
    "DECIMAL": _coerce_float,
    "NUMERIC": _coerce_float,
    "VARCHAR": _coerce_str,
    "CHAR": _coerce_str,
    "TEXT": _coerce_str,
    "BLOB": _coerce_str,
    "BOOLEAN": _coerce_bool,
    "BOOL": _coerce_bool,
    "DATE": _coerce_timestamp,
    "TIME": _coerce_timestamp,
    "TIMESTAMP": _coerce_timestamp,
    "DATETIME": _coerce_timestamp,
}

SUPPORTED_TYPE_NAMES = frozenset(_COERCERS)

#: the Python types a stored value of the numeric family may have
NUMBER = (int, float, bool)
#: declared type -> the Python types of its family: the bound types an
#: index on such a column answers for exactly (``repro.storage.plans``)
FAMILY_OF_TYPE = {
    **dict.fromkeys(("INT", "INTEGER", "BIGINT", "SMALLINT", "FLOAT", "DOUBLE",
                     "REAL", "DECIMAL", "NUMERIC", "BOOLEAN", "BOOL"), NUMBER),
    **dict.fromkeys(("VARCHAR", "CHAR", "TEXT", "BLOB"), (str,)),
    **dict.fromkeys(("DATE", "TIME", "TIMESTAMP", "DATETIME"),
                    (datetime.datetime, datetime.date)),
}


def make_type(name: str, length: int | None = None) -> ColumnType:
    """Build a ColumnType from a SQL type name, validating the name."""
    upper = name.upper()
    if upper not in _COERCERS:
        raise TypeCheckError(f"unsupported column type {name!r}")
    return ColumnType(upper, length)
