"""Data source facade: one "database server" in the sharded fleet.

A :class:`DataSource` bundles a database, its dialect, its latency model
and a connection pool — everything the middleware sees of one underlying
MySQL/PostgreSQL instance. ``network_hop`` adds a per-request delay that
stands in for the client<->server network distance; it is what makes
"every routed SQL crosses the network once" physically true in benchmarks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from ..sql import ast
from ..sql.dialects import MYSQL, Dialect
from .connection import Connection
from .database import Database
# Nothing here calls ``pay`` (a statement's network hop is part of its
# window, see ``Connection._run``); the name stays bound because
# benchmarks/perf/tracing.py wraps ``pay`` by name in this module, in
# ``connection`` and in ``latency``.
from .latency import IOTimeline, LatencyModel, pay  # noqa: F401
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
        self.database.set_fault_injector(injector)

    @property
    def fault_injector(self) -> "FaultInjector | None":
        return self.database.fault_injector

    # -- connections ------------------------------------------------------

    def connect_raw(self) -> Connection:
        """A brand-new connection, bypassing the pool."""
        return Connection(self)

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
