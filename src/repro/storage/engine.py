"""Data source facade: one "database server" in the sharded fleet.

A :class:`DataSource` bundles a database, its dialect, its latency model
and a connection pool — everything the middleware sees of one underlying
MySQL/PostgreSQL instance. ``network_hop`` adds a per-request delay that
stands in for the client<->server network distance; it is what makes
"every routed SQL crosses the network once" physically true in benchmarks.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Sequence

from ..sql import ast
from ..sql.dialects import MYSQL, Dialect
from .connection import Connection
from .database import Database
from .latency import IOTimeline, LatencyModel, pay
from .pool import ConnectionPool

if TYPE_CHECKING:
    from .faults import FaultInjector


class DataSource:
    """One underlying database server instance."""

    def __init__(
        self,
        name: str,
        dialect: Dialect = MYSQL,
        latency: LatencyModel | None = None,
        network_hop: float = 0.0,
        pool_size: int = 64,
        io_channels: int = 4,
    ):
        self.name = name
        self.dialect = dialect
        self.database = Database(name, latency=latency)
        self.network_hop = network_hop
        self.pool = ConnectionPool(self, max_size=pool_size)
        # Finite server capacity: at most ``io_channels`` statements pay
        # their simulated I/O concurrently on this server. This is what
        # makes "more data servers -> more aggregate throughput" (Fig. 12)
        # physically true in the simulation.
        self.io_channels = io_channels
        self.io_timeline = IOTimeline(io_channels)
        # Lock used by the automatic execution engine for atomic multi-
        # connection acquisition (deadlock avoidance, Section VI-D).
        self.acquisition_lock = threading.Lock()
        # -- replica-group role (see repro.storage.replication) --------
        #: True once a dead primary is fenced during promotion: further
        #: DML/DDL raises DataSourceUnavailableError.
        self.fenced = False
        #: ReplicaState when this source serves as a read replica.
        self.replica = None
        #: ReplicaGroup this source belongs to (as primary or replica).
        self.replica_group = None

    # -- fault injection ---------------------------------------------------

    def set_fault_injector(self, injector: "FaultInjector | None") -> None:
        """Attach (or detach, with None) a chaos source to this server."""
        self.database.fault_injector = injector

    @property
    def fault_injector(self) -> "FaultInjector | None":
        return self.database.fault_injector

    # -- connections ------------------------------------------------------

    def connect_raw(self) -> Connection:
        """A brand-new connection, bypassing the pool."""
        return _NetworkedConnection(self) if self.network_hop > 0 else Connection(self)

    def connect(self) -> Connection:
        """Pooled connection acquisition."""
        return self.pool.acquire()

    def release(self, connection: Connection) -> None:
        self.pool.release(connection)

    def on_connection_closed(self, connection: Connection) -> None:
        """Hook invoked when a connection closes (metrics in subclasses)."""

    # -- convenience ---------------------------------------------------------

    def execute(self, sql: str | ast.Statement, params: Sequence[Any] = ()):
        """Run one statement on a throwaway pooled connection."""
        connection = self.connect()
        try:
            cursor = connection.execute(sql, params)
            if cursor.description is not None:
                rows = cursor.fetchall()
                result = rows
            else:
                result = cursor.rowcount
            return result
        finally:
            self.release(connection)

    @property
    def latency(self) -> LatencyModel:
        return self.database.latency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataSource({self.name!r}, dialect={self.dialect.name})"


class _NetworkedConnection(Connection):
    """Connection that pays a network round-trip per statement."""

    def _run(self, stmt: ast.Statement, params: Sequence[Any], wait: bool = True):
        hop = self.data_source.network_hop
        if wait:
            pay(hop)
            return super()._run(stmt, params)
        # not waited for here: the statement's I/O starts that much later
        result = super()._run(stmt, params, False)
        result.delay += hop
        return result
