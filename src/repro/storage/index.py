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
    """Equality index: key -> the id of the one row holding it, or the
    ``set`` of row ids while two or more rows share the key (never in a
    unique index). A row id is an ``int``, so ``type(held) is int`` tells
    the two apart.

    Readers take no lock. A key that drops back to one row gets a new map
    entry and its old set is left as it was, so a reader that fetched the
    set just before still finds the surviving row in it (and the deleted
    one, which the heap read skips). A set of three or more shrinks in
    place, as it always did.
    """

    def __init__(self, name: str, columns: list[str], offsets: Sequence[int],
                 unique: bool = False):
        self.name = name
        self.columns = columns
        self.offsets = tuple(offsets)
        self.unique = unique
        self._map: dict[Hashable, int | set[int]] = {}

    def key_of(self, row: Sequence[Any]) -> Hashable:
        if len(self.offsets) == 1:
            return hashable(row[self.offsets[0]])
        return tuple(hashable(row[i]) for i in self.offsets)

    def insert(self, row_id: int, row: Sequence[Any]) -> None:
        key = self.key_of(row)
        held = self._map.get(key)
        if held is None:
            self._map[key] = row_id
        elif self.unique:
            raise DuplicateKeyError(
                f"duplicate key {key!r} for unique index {self.name!r}"
            )
        elif type(held) is int:
            if held != row_id:  # a set always holds two ids or more
                self._map[key] = {held, row_id}
        else:
            held.add(row_id)

    def remove(self, row_id: int, row: Sequence[Any]) -> None:
        key = self.key_of(row)
        held = self._map.get(key)
        if held is None:
            return
        if type(held) is int:
            if held == row_id:
                del self._map[key]
        elif len(held) > 2:
            held.discard(row_id)
        elif row_id in held:
            first, second = held
            self._map[key] = second if first == row_id else first

    def lookup(self, key: Any) -> Sequence[int]:
        """The ids of the rows holding ``key``, ascending; a miss returns
        the empty tuple, so it allocates nothing."""
        held = self._map.get(hashable(key))
        if held is None:
            return ()
        if type(held) is int:
            return [held]
        return sorted(held)

    def lookup_values(self, values_by_column: dict[str, Any]) -> Sequence[int]:
        """:meth:`lookup` from a lower-cased column->value mapping (composite keys)."""
        if len(self.columns) == 1:
            return self.lookup(values_by_column[self.columns[0].lower()])
        return self.lookup(tuple(hashable(values_by_column[c.lower()]) for c in self.columns))

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
