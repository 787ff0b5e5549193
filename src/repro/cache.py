"""Shared cache utilities: a bounded LRU and the counters every cache reports.

:class:`LruCache` backs the SQL engine's parse cache, the prepared-statement
plan cache and each database's storage-plan cache. The previous parse cache
wholesale-``clear()``-ed itself when full, so one burst of distinct SQL
texts (a migration script, an ad-hoc analytics session) evicted every hot
statement at once. A proper LRU keeps hot entries resident: only the
least-recently-used entry leaves. It counts nothing; :meth:`LruCache.put`
tells its owner when an entry was evicted.

:class:`CacheStats` is the one place a cache's hit / miss / bypass /
eviction / invalidation counters live: the engine's plan cache, the
storage-plan cache and the result cache derive from it, so their hit rate,
``stats()`` counters, ``*_events_total`` metric family and ``SHOW``
message are computed one way.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Iterator, TypeVar

K = TypeVar("K")
V = TypeVar("V")

#: (metric ``event`` label, counter attribute), in export order
_EVENTS = (("hit", "hits"), ("miss", "misses"), ("bypass", "bypasses"),
           ("invalidation", "invalidations"), ("eviction", "evictions"))


def hit_rate(hits: int, misses: int, bypasses: int = 0) -> float:
    """Hits over every lookup, bypasses included."""
    total = hits + misses + bypasses
    return hits / total if total else 0.0


class CacheStats:
    """The counters of one cache, incremented inline by its owner.

    Plain ints mutated under the GIL: a lost update is possible but benign,
    as in the executor's ExecutionMetrics.
    """

    #: counter names in ``stats()`` order
    COUNTERS = ("hits", "misses", "bypasses", "evictions", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.evictions = 0
        self.invalidations = 0

    def hit_rate(self) -> float:
        return hit_rate(self.hits, self.misses, self.bypasses)

    def counters(self, *names: str) -> dict[str, int]:
        """The named counters (all of :attr:`COUNTERS` by default), in order."""
        return {name: getattr(self, name) for name in names or self.COUNTERS}

    def events_family(self, name: str, help_text: str,
                      labels: dict[str, str] | None = None) -> tuple[str, str, str, list]:
        """The ``*_events_total`` counter family: one sample per event kind."""
        return (name, "counter", help_text,
                [({**(labels or {}), "event": event}, float(getattr(self, attr)))
                 for event, attr in _EVENTS])

    def summary(self, size: int, capacity: int, noun: str, *names: str) -> str:
        """``SHOW``'s one-line account: fill, hit rate and the named counters."""
        counts = ", ".join(f"{name}={value}" for name, value in self.counters(*names).items())
        return f"{size}/{capacity} {noun}, hit rate {self.hit_rate():.1%} ({counts})"


class LruCache(Generic[K, V]):
    """Bounded mapping with least-recently-used eviction."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("LruCache capacity must be >= 1")
        self.capacity = capacity
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: K, default: V | None = None) -> V | None:
        """Look up ``key``, refreshing its recency on a hit."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                return default
            self._data.move_to_end(key)
            return value

    def put(self, key: K, value: V) -> bool:
        """Insert/replace ``key``, evicting the LRU entry when full; True
        when an entry was evicted."""
        with self._lock:
            if key in self._data:
                self._data[key] = value
                self._data.move_to_end(key)
                return False
            evicted = len(self._data) >= self.capacity
            if evicted:
                self._data.popitem(last=False)
            self._data[key] = value
            return evicted

    def get_or_create(self, key: K, factory: Callable[[], V]) -> V:
        """Return the cached value, creating it outside the lock on a miss.

        The factory may run more than once under contention; the first
        stored value wins so all callers observe one instance.
        """
        found = self.get(key)
        if found is not None:
            return found
        created = factory()
        with self._lock:
            existing = self._data.get(key)
            if existing is not None:
                return existing
            if len(self._data) >= self.capacity:
                self._data.popitem(last=False)
            self._data[key] = created
        return created

    def peek(self, key: K, default: V | None = None) -> V | None:
        """Look up ``key`` without a recency update."""
        with self._lock:
            return self._data.get(key, default)

    def discard(self, key: K) -> None:
        with self._lock:
            self._data.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def items(self) -> list[tuple[K, V]]:
        """Snapshot of entries, least-recently-used first."""
        with self._lock:
            return list(self._data.items())

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._data

    def __iter__(self) -> Iterator[K]:
        with self._lock:
            return iter(list(self._data))
