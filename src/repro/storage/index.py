"""Secondary index structures for the embedded storage engine.

A :class:`HashIndex` gives O(1) point lookups (the dominant operation in
OLTP benchmarks); a :class:`SortedIndex` supports range scans via bisect.
Both map an indexed key to the row ids holding it, and read a row — the
table's value tuple (:class:`repro.storage.table.Table`) — at the column
offsets they were built with.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Hashable, Sequence

from ..exceptions import DuplicateKeyError
from .expression import hashable, sort_key


class HashIndex:
    """Equality index: key -> set of row ids."""

    def __init__(self, name: str, columns: list[str], offsets: Sequence[int],
                 unique: bool = False):
        self.name = name
        self.columns = columns
        self.offsets = tuple(offsets)
        self.unique = unique
        self._map: dict[Hashable, set[int]] = {}

    def key_of(self, row: Sequence[Any]) -> Hashable:
        if len(self.offsets) == 1:
            return hashable(row[self.offsets[0]])
        return tuple(hashable(row[i]) for i in self.offsets)

    def insert(self, row_id: int, row: Sequence[Any]) -> None:
        key = self.key_of(row)
        bucket = self._map.setdefault(key, set())
        if self.unique and bucket:
            raise DuplicateKeyError(
                f"duplicate key {key!r} for unique index {self.name!r}"
            )
        bucket.add(row_id)

    def remove(self, row_id: int, row: Sequence[Any]) -> None:
        key = self.key_of(row)
        bucket = self._map.get(key)
        if bucket is not None:
            bucket.discard(row_id)
            if not bucket:
                del self._map[key]

    def lookup(self, key: Any) -> set[int]:
        return self._map.get(hashable(key), set())

    def lookup_values(self, values_by_column: dict[str, Any]) -> set[int]:
        """Lookup from a lower-cased column->value mapping (composite keys)."""
        if len(self.columns) == 1:
            key: Any = hashable(values_by_column[self.columns[0].lower()])
        else:
            key = tuple(hashable(values_by_column[c.lower()]) for c in self.columns)
        return self._map.get(key, set())

    def __len__(self) -> int:
        return len(self._map)


class SortedIndex:
    """Ordered index over a single column supporting range scans.

    A key is the column's value made comparable by ``key``: ``sort_key``
    (NULLs first, then numbers, then the rest) by default. The table builds
    an index on a NOT NULL column of the numeric family with ``key=None``,
    keyed by the value itself: ``int``, ``float`` and ``bool`` — every bound
    type such a column's index answers (``repro.storage.types.FAMILY_OF_TYPE``)
    — order among themselves as their ``sort_key`` does, and no call is
    made per key.
    """

    def __init__(self, name: str, offset: int, unique: bool = False,
                 key: Callable[[Any], Any] | None = sort_key):
        self.name = name
        self.offset = offset
        self.unique = unique
        self._key = key
        # Parallel arrays kept sorted by key.
        self._keys: list[Any] = []
        self._row_ids: list[int] = []

    def insert(self, row_id: int, row: Sequence[Any]) -> None:
        value = row[self.offset]
        key = value if self._key is None else self._key(value)
        index = bisect.bisect_left(self._keys, key)
        if self.unique and index < len(self._keys) and self._keys[index] == key:
            raise DuplicateKeyError(
                f"duplicate key {value!r} for unique index {self.name!r}"
            )
        self._keys.insert(index, key)
        self._row_ids.insert(index, row_id)

    def remove(self, row_id: int, row: Sequence[Any]) -> None:
        key = row[self.offset]
        if self._key is not None:
            key = self._key(key)
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
        keys, key = self._keys, self._key
        if low is None:
            start = 0
        else:
            if key is not None:
                low = key(low)
            start = (bisect.bisect_left if include_low else bisect.bisect_right)(keys, low)
        if high is None:
            stop = len(keys)
        else:
            if key is not None:
                high = key(high)
            stop = (bisect.bisect_right if include_high else bisect.bisect_left)(keys, high)
        return self._row_ids[start:stop]

    def __len__(self) -> int:
        return len(self._keys)
