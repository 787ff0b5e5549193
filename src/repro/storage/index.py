"""Secondary index structures for the embedded storage engine.

A :class:`HashIndex` gives O(1) point lookups (the dominant operation in
OLTP benchmarks); a :class:`SortedIndex` supports range scans via bisect.
Both map an indexed key to the set of row ids holding it.
"""

from __future__ import annotations

import bisect
from typing import Any, Hashable

from ..exceptions import DuplicateKeyError
from .expression import sort_key


def _hashable(value: Any) -> Hashable:
    if isinstance(value, (list, dict, set)):
        return str(value)
    return value


class HashIndex:
    """Equality index: key -> set of row ids."""

    def __init__(self, name: str, columns: list[str], unique: bool = False):
        self.name = name
        self.columns = columns
        self.unique = unique
        self._map: dict[Hashable, set[int]] = {}

    def key_of(self, row: dict[str, Any]) -> Hashable:
        if len(self.columns) == 1:
            return _hashable(row[self.columns[0]])
        return tuple(_hashable(row[c]) for c in self.columns)

    def insert(self, row_id: int, row: dict[str, Any]) -> None:
        key = self.key_of(row)
        bucket = self._map.setdefault(key, set())
        if self.unique and bucket:
            raise DuplicateKeyError(
                f"duplicate key {key!r} for unique index {self.name!r}"
            )
        bucket.add(row_id)

    def remove(self, row_id: int, row: dict[str, Any]) -> None:
        key = self.key_of(row)
        bucket = self._map.get(key)
        if bucket is not None:
            bucket.discard(row_id)
            if not bucket:
                del self._map[key]

    def lookup(self, key: Any) -> set[int]:
        return self._map.get(_hashable(key), set())

    def lookup_values(self, values_by_column: dict[str, Any]) -> set[int]:
        """Lookup from a lower-cased column->value mapping (composite keys)."""
        if len(self.columns) == 1:
            key: Any = _hashable(values_by_column[self.columns[0].lower()])
        else:
            key = tuple(_hashable(values_by_column[c.lower()]) for c in self.columns)
        return self._map.get(key, set())

    def __len__(self) -> int:
        return len(self._map)


class SortedIndex:
    """Ordered index over a single column supporting range scans."""

    def __init__(self, name: str, column: str, unique: bool = False):
        self.name = name
        self.column = column
        self.unique = unique
        # Parallel arrays kept sorted by key.
        self._keys: list[Any] = []
        self._row_ids: list[int] = []

    def _key(self, value: Any):
        return sort_key(value)

    def insert(self, row_id: int, row: dict[str, Any]) -> None:
        key = self._key(row[self.column])
        index = bisect.bisect_left(self._keys, key)
        if self.unique and index < len(self._keys) and self._keys[index] == key:
            raise DuplicateKeyError(
                f"duplicate key {row[self.column]!r} for unique index {self.name!r}"
            )
        self._keys.insert(index, key)
        self._row_ids.insert(index, row_id)

    def remove(self, row_id: int, row: dict[str, Any]) -> None:
        key = self._key(row[self.column])
        index = bisect.bisect_left(self._keys, key)
        while index < len(self._keys) and self._keys[index] == key:
            if self._row_ids[index] == row_id:
                del self._keys[index]
                del self._row_ids[index]
                return
            index += 1

    def range(self, low: Any = None, high: Any = None,
              include_low: bool = True, include_high: bool = True) -> list[int]:
        """Row ids with key in [low, high] (open/closed per flags).

        Readers take no lock, so this is one slice — one atomic copy — and
        not a generator walking ``_row_ids`` while a writer inserts into
        and deletes from it: that could skip or repeat an id, or run off
        the end of a list that shrank."""
        if low is None:
            start = 0
        else:
            key = self._key(low)
            start = bisect.bisect_left(self._keys, key) if include_low else bisect.bisect_right(self._keys, key)
        if high is None:
            stop = len(self._keys)
        else:
            key = self._key(high)
            stop = bisect.bisect_right(self._keys, key) if include_high else bisect.bisect_left(self._keys, key)
        return self._row_ids[start:stop]

    def __len__(self) -> int:
        return len(self._keys)
