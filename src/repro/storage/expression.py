"""SQL value primitives shared by compiled plans, the merger and the test oracle.

Three-valued logic (the ``UNKNOWN`` sentinel and its normalisation),
MySQL-style cross-type comparison, LIKE matching, CAST, the scalar
function table, NULLs-first sort keys, and the one rule that makes a
value a dict key (:func:`hashable`, and DISTINCT over rows). The compiler
(:mod:`repro.storage.compiler`) builds closures over these; the reference
interpreter under ``tests/oracle`` imports the same objects, so the two
sides cannot drift on 3VL or coercion.
"""

from __future__ import annotations

import datetime
import re
from functools import lru_cache
from typing import Any, Callable, Sequence

from .. import clock

UNKNOWN = object()
"""Sentinel for SQL's three-valued UNKNOWN truth value."""


_SCALAR_FUNCTIONS = {
    "ABS": lambda args: None if args[0] is None else abs(args[0]),
    "LOWER": lambda args: None if args[0] is None else str(args[0]).lower(),
    "UPPER": lambda args: None if args[0] is None else str(args[0]).upper(),
    "LENGTH": lambda args: None if args[0] is None else len(str(args[0])),
    "COALESCE": lambda args: next((a for a in args if a is not None), None),
    "IFNULL": lambda args: args[0] if args[0] is not None else args[1],
    "ROUND": lambda args: None if args[0] is None else round(args[0], int(args[1]) if len(args) > 1 else 0),
    "FLOOR": lambda args: None if args[0] is None else int(args[0] // 1),
    "CEIL": lambda args: None if args[0] is None else -int(-args[0] // 1),
    "MOD": lambda args: None if args[0] is None or not args[1] else args[0] % args[1],
    "CONCAT": lambda args: None if any(a is None for a in args) else "".join(str(a) for a in args),
    "SUBSTRING": lambda args: _substring(args),
    "NOW": lambda args: datetime.datetime.fromtimestamp(clock.wall()),
}


def _substring(args: list[Any]) -> Any:
    if args[0] is None:
        return None
    text = str(args[0])
    start = int(args[1]) - 1 if len(args) > 1 else 0
    if len(args) > 2:
        return text[start : start + int(args[2])]
    return text[start:]


def _cast(value: Any, target: str) -> Any:
    if value is None:
        return None
    target = target.upper()
    if target in ("INT", "INTEGER", "BIGINT", "SIGNED", "UNSIGNED"):
        return int(value)
    if target in ("FLOAT", "DOUBLE", "DECIMAL", "REAL"):
        return float(value)
    return str(value)


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
    as :func:`sort_key` does — storage's NOT NULL integer columns), else
    :func:`sort_key` tuples; ``reverse`` for descending. Mixed directions:
    :class:`OrderToken` tuples, ascending. Either way rows with equal keys
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
