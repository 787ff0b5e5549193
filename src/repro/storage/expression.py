"""SQL value primitives shared by compiled plans, the merger and the test oracle.

Three-valued logic (the ``UNKNOWN`` sentinel and its normalisation),
MySQL-style cross-type comparison, LIKE matching, CAST, arithmetic, the
scalar function table, NULLs-first sort keys, the one rule that makes a
value a dict key (:func:`hashable`, and DISTINCT over rows) and the one
rule that folds an aggregate's values (:func:`aggregate`). The compiler
(:mod:`repro.storage.compiler`) builds closures over these; the reference
interpreter under ``tests/oracle`` imports the same objects, so the two
sides cannot drift on 3VL or coercion.
"""

from __future__ import annotations

import datetime
import operator
import re
from functools import lru_cache, reduce
from typing import Any, Callable, Sequence

from .. import clock
from ..exceptions import TypeCheckError

UNKNOWN = object()
"""Sentinel for SQL's three-valued UNKNOWN truth value."""

Binary = Callable[[Any, Any], Any]


def _number(value: Any, name: str) -> Any:
    """An arithmetic operand: a number string is a float, as it is to a
    comparison (:func:`_compare_values`); any other string is an error."""
    if not isinstance(value, str):
        return value
    try:
        return float(value)
    except ValueError:
        raise TypeCheckError(f"{name}: {value!r} is not a number") from None


def _arithmetic(op: str, apply: Binary, divides: bool = False) -> Binary:
    def arithmetic(left: Any, right: Any) -> Any:
        if isinstance(left, str) or isinstance(right, str):
            left, right = _number(left, op), _number(right, op)
        if divides and right == 0:
            return None  # SQL: division by zero yields NULL (MySQL default)
        return apply(left, right)

    return arithmetic


#: binary value operators over two non-NULL operands
ARITHMETIC: dict[str, Binary] = {
    "+": _arithmetic("+", operator.add),
    "-": _arithmetic("-", operator.sub),
    "*": _arithmetic("*", operator.mul),
    "/": _arithmetic("/", operator.truediv, divides=True),
    "%": _arithmetic("%", operator.mod, divides=True),
    "||": lambda a, b: f"{a}{b}",
}


def _checked(name: str, handler: Callable[[list[Any]], Any]) -> Callable[[list[Any]], Any]:
    """``handler``, raising a :class:`TypeCheckError` that names the function
    for a value it cannot take, not Python's own exception."""
    def function(args: list[Any]) -> Any:
        try:
            return handler(args)
        except TypeCheckError:
            raise
        except (TypeError, ValueError) as exc:
            raise TypeCheckError(f"{name}(): {exc}") from None

    return function


_SCALAR_FUNCTIONS = {name: _checked(name, handler) for name, handler in {
    "ABS": lambda args: None if args[0] is None else abs(_number(args[0], "ABS")),
    "LOWER": lambda args: None if args[0] is None else str(args[0]).lower(),
    "UPPER": lambda args: None if args[0] is None else str(args[0]).upper(),
    "LENGTH": lambda args: None if args[0] is None else len(str(args[0])),
    "COALESCE": lambda args: next((a for a in args if a is not None), None),
    "IFNULL": lambda args: args[0] if args[0] is not None else args[1],
    "ROUND": lambda args: None if args[0] is None else round(
        _number(args[0], "ROUND"), int(args[1]) if len(args) > 1 else 0),
    "FLOOR": lambda args: None if args[0] is None else int(_number(args[0], "FLOOR") // 1),
    "CEIL": lambda args: None if args[0] is None else -int(-_number(args[0], "CEIL") // 1),
    "MOD": lambda args: None if args[0] is None or args[1] is None else ARITHMETIC["%"](
        _number(args[0], "MOD"), _number(args[1], "MOD")),
    "CONCAT": lambda args: None if any(a is None for a in args) else "".join(str(a) for a in args),
    "SUBSTRING": lambda args: _substring(args),
    "NOW": lambda args: datetime.datetime.fromtimestamp(clock.wall()),
}.items()}


def _substring(args: list[Any]) -> Any:
    if args[0] is None:
        return None
    text = str(args[0])
    start = int(args[1]) - 1 if len(args) > 1 else 0
    if len(args) > 2:
        return text[start : start + int(args[2])]
    return text[start:]


_CASTS = (dict.fromkeys(("INT", "INTEGER", "BIGINT", "SIGNED", "UNSIGNED"), int)
          | dict.fromkeys(("FLOAT", "DOUBLE", "DECIMAL", "REAL"), float))


def _cast(value: Any, target: str) -> Any:
    if value is None:
        return None
    try:
        return _CASTS.get(target.upper(), str)(value)
    except (TypeError, ValueError) as exc:
        raise TypeCheckError(f"CAST({value!r} AS {target.upper()}): {exc}") from None


def _as_tvl(value: Any) -> Any:
    """Normalize a value to True/False/UNKNOWN."""
    if value is UNKNOWN or value is None:
        return UNKNOWN
    return bool(value)


@lru_cache(maxsize=1024)
def _like_regex(pattern: str) -> re.Pattern[str]:
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.compile(f"^{regex}$", re.IGNORECASE | re.DOTALL)


def _like_match(value: str, pattern: str) -> bool:
    return _like_regex(pattern).match(value) is not None


def _compare_values(left: Any, right: Any) -> int:
    """Three-way compare with numeric/string cross-coercion like MySQL."""
    if isinstance(left, bool):
        left = int(left)
    if isinstance(right, bool):
        right = int(right)
    if isinstance(left, (int, float)) and isinstance(right, str):
        try:
            right = float(right)
        except ValueError:
            left = str(left)
    elif isinstance(left, str) and isinstance(right, (int, float)):
        try:
            left = float(left)
        except ValueError:
            right = str(right)
    if isinstance(left, datetime.datetime) and isinstance(right, str):
        right = datetime.datetime.fromisoformat(right)
    elif isinstance(right, datetime.datetime) and isinstance(left, str):
        left = datetime.datetime.fromisoformat(left)
    if left < right:
        return -1
    if left > right:
        return 1
    return 0


def hashable(value: Any) -> Any:
    """``value`` as a dict key: a list, dict or set by its ``str``. Hash
    index keys, join and group buckets and DISTINCT all key this way."""
    if isinstance(value, (list, dict, set)):
        return str(value)
    return value


def distinct_rows(rows: list) -> list:
    """SQL DISTINCT over whole output rows: the first of equal rows, in
    order. A row holding a list, dict or set compares by :func:`hashable`."""
    try:
        return list(dict.fromkeys(rows))
    except TypeError:
        first: dict[tuple, Any] = {}
        for row in rows:
            first.setdefault(tuple(map(hashable, row)), row)
        return list(first.values())


def aggregate(name: str, values: list, native: bool = False) -> Any:
    """Aggregate ``name`` over one group's non-NULL ``values``: COUNT is
    their number; SUM and AVG add them left to right (``sum()`` only when
    the caller knows they are ``native`` ints: on floats it may compensate,
    3.12's does) and MIN and MAX keep the first of equal extremes under
    :func:`sort_key`. Over no values, every aggregate but COUNT is NULL.
    Compiled plans fold rows by it and the merger folds shard partials."""
    if name == "COUNT":
        return len(values)
    if not values:
        return None
    if name in ("SUM", "AVG"):
        total = sum(values) if native else reduce(operator.add, values)
        return total if name == "SUM" else total / len(values)
    pick = min if name == "MIN" else max
    return pick(values) if native else pick(values, key=sort_key)


def sort_key(value: Any):
    """A key usable to sort mixed NULL/typed values (NULLs first)."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, datetime.datetime):
        return (2, value.isoformat())
    return (2, str(value))


class OrderToken:
    """Sort token honoring per-key direction (desc inverts comparisons).

    Lets a single composite-key sort handle mixed ASC/DESC ORDER BY
    instead of one stable sort pass per key. Shared by compiled storage
    plans and the engine's merge layer.
    """

    __slots__ = ("key", "desc")

    def __init__(self, value: Any, desc: bool):
        self.key = sort_key(value)
        self.desc = desc

    def __lt__(self, other: "OrderToken") -> bool:
        if self.desc:
            return other.key < self.key
        return self.key < other.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OrderToken) and self.key == other.key


def order_key(read: Callable[[Any], Any], descs: Sequence[bool],
              native: bool = False) -> tuple[Callable[[Any], Any], bool]:
    """The one ORDER BY rule: ``(key, reverse)`` for ``list.sort`` and
    ``heapq.merge`` over rows whose ORDER BY values ``read(row)`` returns —
    a tuple, or the bare value when there is one key (as
    ``operator.itemgetter`` does).

    Every key in one direction: ``read`` itself when the caller knows the
    values are ``native`` (never NULL, and of one type family that orders
    as :func:`sort_key` does — storage's NOT NULL integer and string
    columns), else :func:`sort_key` tuples; ``reverse`` for descending.
    Mixed directions: :class:`OrderToken` tuples, ascending. Either way rows with equal keys
    keep their input order (both sorts are stable and ``heapq.merge``
    takes the earlier input first), so every form orders rows identically.
    """
    if all(descs) or not any(descs):
        if native:
            return read, descs[0]
        if len(descs) == 1:
            return (lambda row: sort_key(read(row))), descs[0]
        return (lambda row: tuple(map(sort_key, read(row)))), descs[0]
    return (lambda row: tuple(map(OrderToken, read(row), descs))), False
