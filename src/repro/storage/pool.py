"""Bounded connection pool for a data source.

The sharding executor acquires whole batches of connections atomically
(Section VI-D of the paper: deadlock-free acquisition under MaxCon), so the
pool exposes both single acquire/release and ``acquire_many`` used with the
data-source lock held by the execution engine.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

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
        #: observability hook: called with the measured checkout wait
        #: (seconds) after every successful acquire; None = not monitored
        self.wait_observer: Callable[[float], None] | None = None

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
        deadline = start + timeout
        with self._available:
            while True:
                conn = self._try_take_locked()
                if conn is not None:
                    break
                remaining = deadline - clock.now()
                if remaining <= 0:
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
                self._available.wait(remaining)
        # observer runs outside the pool lock (it may take a registry lock)
        if self.wait_observer is not None:
            self.wait_observer(clock.now() - start)
        return conn

    def try_acquire_many(self, count: int) -> list["Connection"] | None:
        """Atomically acquire ``count`` connections or none at all.

        Non-blocking: returns None if fewer than ``count`` are free. The
        execution engine uses this under its per-data-source lock to avoid
        the two-query deadlock described in the paper.
        """
        with self._mutex:
            free = self.max_size - self._in_use
            if free < count:
                return None
            return [self._take_one_locked() for _ in range(count)]

    def release(self, connection: "Connection") -> None:
        """Return a connection to the pool (rolls back any open work)."""
        if connection.in_transaction:
            connection.rollback()
        with self._available:
            self._in_use -= 1
            if not connection.closed:
                self._idle.append(connection)
            self._available.notify()

    def release_many(self, connections: list["Connection"]) -> None:
        """:meth:`release` for a batch, under one hold of the pool lock."""
        for connection in connections:
            if connection.in_transaction:
                connection.rollback()
        with self._available:
            self._in_use -= len(connections)
            for connection in connections:
                if not connection.closed:
                    self._idle.append(connection)
            self._available.notify(len(connections))

    def close(self) -> None:
        with self._mutex:
            for conn in self._idle:
                conn.close()
            self._idle.clear()

    # -- internals -----------------------------------------------------------

    def _try_take_locked(self) -> "Connection | None":
        if self._in_use >= self.max_size:
            return None
        return self._take_one_locked()

    def _take_one_locked(self) -> "Connection":
        self._in_use += 1
        while self._idle:
            conn = self._idle.pop()
            if not conn.closed:
                return conn
        return self.data_source.connect_raw()
