"""Bounded connection pool for a data source.

The sharding executor acquires whole batches of connections atomically
(Section VI-D of the paper: deadlock-free acquisition under MaxCon), so the
pool exposes both single acquire/release and :meth:`~ConnectionPool.try_acquire_many`,
which takes a whole batch or nothing under the pool's mutex.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Iterator

from .. import clock
from ..exceptions import ConnectionPoolExhaustedError

if TYPE_CHECKING:
    from .connection import Connection
    from .engine import DataSource


class ConnectionPool:
    """Fixed-capacity pool of connections to one data source."""

    def __init__(self, data_source: "DataSource", max_size: int = 32):
        if max_size < 1:
            raise ValueError("pool max_size must be >= 1")
        self.data_source = data_source
        self.max_size = max_size
        self._idle: list["Connection"] = []
        self._in_use = 0
        self._mutex = threading.Lock()
        self._available = threading.Condition(self._mutex)
        #: observability hook: (weight stream, observe); after every
        #: successful acquire, single or batch, the next weight is drawn and
        #: a sampled one calls ``observe(wait seconds, weight)``; None = not
        #: monitored
        self.wait_observer: tuple[Iterator[int], Callable[[float, int], None]] | None = None

    # -- metrics ---------------------------------------------------------

    @property
    def in_use(self) -> int:
        with self._mutex:
            return self._in_use

    @property
    def idle(self) -> int:
        with self._mutex:
            return len(self._idle)

    # -- acquisition ------------------------------------------------------

    def acquire(self, timeout: float = 10.0) -> "Connection":
        """Acquire one connection, waiting up to ``timeout`` seconds."""
        start = clock.now()
        taken = self._take(1, timeout)
        if taken is None:
            waited = clock.now() - start
            raise ConnectionPoolExhaustedError(
                f"connection pool {self.data_source.name!r} exhausted: "
                f"{self._in_use}/{self.max_size} connections in use, "
                f"waited {waited * 1000:.0f}ms",
                pool_name=self.data_source.name,
                in_use=self._in_use,
                max_size=self.max_size,
                waited=waited,
            )
        return taken[0]

    def try_acquire_many(self, count: int, timeout: float = 0.0) -> list["Connection"] | None:
        """Atomically acquire ``count`` connections, waiting up to ``timeout``
        seconds for that many to be free at once (None if they never were):
        taken whole, which avoids the two-query deadlock of the paper."""
        return self._take(count, timeout)

    def release(self, connection: "Connection") -> None:
        """Return a connection to the pool (rolls back any open work)."""
        self.release_many([connection])

    def release_many(self, connections: list["Connection"]) -> None:
        """:meth:`release` for a batch, under one hold of the pool lock. A
        connection whose last window still runs (``free_at``) is handed
        out after the free ones: whoever takes it queues behind it."""
        for connection in connections:
            if connection.in_transaction:
                connection.rollback()
        now = clock.now()
        with self._available:
            self._in_use -= len(connections)
            for connection in connections:
                if connection.closed:
                    continue
                if connection.free_at > now:
                    self._idle.insert(0, connection)
                else:
                    self._idle.append(connection)
            self._available.notify_all()  # a batch may be waiting for more than one

    def close(self) -> None:
        with self._mutex:
            for conn in self._idle:
                conn.close()
            self._idle.clear()

    # -- internals -----------------------------------------------------------

    def _take(self, count: int, timeout: float) -> list["Connection"] | None:
        """``count`` connections, or None after ``timeout`` seconds waiting."""
        start = clock.now()
        with self._available:
            while self.max_size - self._in_use < count:
                remaining = start + timeout - clock.now()
                if remaining <= 0:
                    return None
                self._available.wait(remaining)
            self._in_use += count
            taken: list["Connection"] = []
            while len(taken) < count:
                conn = self._idle.pop() if self._idle else self.data_source.connect_raw()
                if not conn.closed:
                    taken.append(conn)
        # the observer runs outside the pool lock (it may take a registry
        # lock), and only for a checkout its weight stream samples
        if self.wait_observer is not None:
            weights, observe = self.wait_observer
            weight = next(weights)
            if weight:
                observe(clock.now() - start, weight)
        return taken
