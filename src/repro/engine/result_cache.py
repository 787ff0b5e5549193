"""Engine-level result cache for hot point reads.

Cache-aside with a bounded LRU, per-entry TTL and single-flight loading.
Keys are ``(sql, params, plan_epoch)``; values are fully materialized
(small) result sets. A fully-hot cached point select does **zero** storage
work — no routing, no connection checkout, no storage execute.

Correctness rests on three guards checked on every lookup:

* **data-version guards** — each entry records the ``(database, table,
  data_version)`` triples it read; any committed write to those tables
  (from this engine, a peer runtime sharing the storage, or replication
  apply on a replica) bumps the version and invalidates by comparison.
  The same versions are captured *before* execution and re-validated at
  store time, closing the classic cache-aside race where a slow reader
  stores a pre-invalidation result after the write landed.
* **causal guards** — entries served from replica-group members record
  the group LSN their snapshot covered; a session whose causal token
  exceeds it bypasses the cache (read-your-writes holds through the
  cache, not just through routing).
* **TTL** — bounds staleness against writers the version guards cannot
  see (e.g. a different process).

Metadata epoch bumps clear the cache wholesale (and retire old keys,
which embed the epoch).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Sequence

from .. import clock


class _Entry:
    __slots__ = ("columns", "rows", "expires_at", "guards", "causal")

    def __init__(self, columns: list[str], rows: tuple, expires_at: float,
                 guards: tuple, causal: tuple):
        self.columns = columns
        self.rows = rows
        self.expires_at = expires_at
        self.guards = guards  # ((database, table_name, data_version), ...)
        self.causal = causal  # ((group_name, covered_lsn), ...)


class ResultCache:
    """Bounded LRU of materialized SELECT results with guarded lookups."""

    def __init__(self, capacity: int = 32768, ttl: float = 30.0,
                 max_rows: int = 128, single_flight_timeout: float = 0.05):
        self.capacity = capacity
        self.ttl = ttl
        #: result sets larger than this are never cached (they are not
        #: the hot point reads this cache exists for)
        self.max_rows = max_rows
        self.single_flight_timeout = single_flight_timeout
        self.enabled = False
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._lock = threading.Lock()
        #: in-flight loads: key -> Event set when the leader finishes
        self._loading: dict[Hashable, threading.Event] = {}
        # counters (read by SHOW RESULT CACHE and bench --profile)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0
        self.causal_bypasses = 0
        self.clears = 0

    # -- lookup --------------------------------------------------------------

    def lookup(self, key: Hashable,
               session_token: Any = None) -> _Entry | None:
        """Guarded cache read; None on miss/expiry/invalidation/bypass."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if entry.expires_at < clock.now():
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                return None
            for database, table, version in entry.guards:
                if database.data_version(table) != version:
                    del self._entries[key]
                    self.invalidations += 1
                    self.misses += 1
                    return None
            if session_token is not None:
                for group, lsn in entry.causal:
                    if session_token(group) > lsn:
                        # Entry predates this session's write: not stale
                        # for *other* sessions, so bypass without evicting.
                        self.causal_bypasses += 1
                        self.misses += 1
                        return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    # -- single-flight -------------------------------------------------------

    def lease(self, key: Hashable) -> tuple[bool, threading.Event]:
        """Claim the load for ``key``. Returns (is_leader, event): the
        leader executes and must call :meth:`release`; followers wait on
        the event (bounded) and re-lookup."""
        with self._lock:
            event = self._loading.get(key)
            if event is not None:
                return False, event
            event = threading.Event()
            self._loading[key] = event
            return True, event

    def release(self, key: Hashable) -> None:
        """Finish a leased load (store done, store skipped, or error)."""
        with self._lock:
            event = self._loading.pop(key, None)
        if event is not None:
            event.set()

    # -- store ---------------------------------------------------------------

    def store(self, key: Hashable, columns: Sequence[str], rows: Sequence[tuple],
              guards: Sequence[tuple], causal: Sequence[tuple]) -> bool:
        """Insert iff every guard still holds (validated store)."""
        if len(rows) > self.max_rows:
            return False
        expires_at = clock.now() + self.ttl
        with self._lock:
            for database, table, version in guards:
                if database.data_version(table) != version:
                    # A write landed while we were reading: storing now
                    # would resurrect the pre-write rows. Count it as an
                    # invalidation of the would-be entry.
                    self.invalidations += 1
                    return False
            self._entries[key] = _Entry(
                list(columns), tuple(rows), expires_at,
                tuple(guards), tuple(causal),
            )
            self._entries.move_to_end(key)
            self.stores += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return True

    # -- maintenance ---------------------------------------------------------

    def clear(self, reason: str = "") -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.clears += 1
        return dropped

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, Any]:
        return {
            "enabled": self.enabled,
            "entries": len(self._entries),
            "capacity": self.capacity,
            "ttl_s": self.ttl,
            "max_rows": self.max_rows,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 6),
            "stores": self.stores,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "causal_bypasses": self.causal_bypasses,
            "clears": self.clears,
        }
