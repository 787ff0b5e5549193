"""The systems under test used throughout Section VIII.

Real systems we cannot run (MySQL, Vitess, Citus, TiDB, CockroachDB,
Aurora) are *analogues*: configurations of the same substrate exhibiting
the architectural property the paper attributes to each system (DESIGN.md,
substitution #7). The ShardingSphere configurations (SSJ/SSP) run the
actual pipeline of this library.

+----------------------+---------------------------------------------------------------+
| class                | architectural model                                           |
+----------------------+---------------------------------------------------------------+
| SingleNodeSystem     | MS / PG: one data source holding all rows in one table       |
| ShardingJDBCSystem   | SSJ: in-process pipeline, direct connections to sources      |
| ShardingProxySystem  | SSP: same pipeline behind a real TCP proxy                   |
| MiddlewareSystem     | Vitess/Citus-like: proxy-style middleware, no binding-table  |
|                      | optimization, serial per-source execution, forwarding delay  |
| NewSQLSystem         | TiDB/CRDB-like: sharded storage with consensus write         |
|                      | amplification, KV round trips, always-2PC transactions       |
| AuroraLikeSystem     | Aurora: single compute node, storage-offloaded fast commits, |
|                      | request hop to the cloud endpoint                            |
+----------------------+---------------------------------------------------------------+
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Sequence

from .. import clock
from ..adaptors import ShardingDataSource, ShardingProxyServer, ShardingRuntime
from ..protocol import ProxyClient
from ..storage import DataSource, LatencyModel, ReplicaGroup
from ..transaction import TransactionType
from .base import SystemUnderTest
from .topology import make_grid_sharding, make_sources

DEFAULT_LATENCY = LatencyModel()

#: latency profile used by the paper-reproduction benchmarks: reads served
#: from buffer pool (cheap), DML paying a WAL/dirty-page write (expensive,
#: serialized per table) — the asymmetry behind Table IV's "requests on
#: smaller tables are much faster".
BENCH_LATENCY = LatencyModel(write_io=2e-3, commit_io=2e-3, buffer_pool_rows=30_000)


# ---------------------------------------------------------------------------
# Session wrappers
# ---------------------------------------------------------------------------


class _RawSession:
    """Session over one storage connection (single-node systems)."""

    def __init__(self, source: DataSource, overhead: float = 0.0):
        self.source = source
        self.connection = source.pool.acquire()
        self.overhead = overhead

    def execute(self, sql: str, params: Sequence[Any] = ()):
        if self.overhead:
            clock.sleep(self.overhead)
        cursor = self.connection.execute(sql, params)
        if cursor.description is not None:
            return cursor.fetchall()
        return cursor.rowcount

    def execute_pipeline(self, statements: Sequence[tuple[str, Sequence[Any]]]):
        """Batch of statements in one storage round trip (write-I/O
        coalesced per written table); per-statement rows/rowcount out."""
        if self.overhead:
            clock.sleep(self.overhead)
        results = self.connection.execute_pipeline(statements)
        return [
            list(r.rows) if r.columns else r.rowcount
            for r in results
        ]

    def begin(self) -> None:
        self.connection.begin()

    def commit(self) -> None:
        self.connection.commit()

    def rollback(self) -> None:
        self.connection.rollback()

    def close(self) -> None:
        self.source.pool.release(self.connection)


class _JdbcSession:
    """Session over a ShardingConnection (engine-based systems)."""

    def __init__(self, data_source: ShardingDataSource, overhead: float = 0.0):
        self.connection = data_source.get_connection()
        self.overhead = overhead

    def execute(self, sql: str, params: Sequence[Any] = ()):
        if self.overhead:
            clock.sleep(self.overhead)
        result = self.connection.execute(sql, params)
        if result.description is not None:
            return result.fetchall()
        return result.rowcount

    def execute_pipeline(self, statements: Sequence[tuple[str, Sequence[Any]]]):
        """Batch of statements through the engine's fused pipeline;
        per-statement rows/rowcount out (see SQLEngine.execute_pipeline)."""
        if self.overhead:
            clock.sleep(self.overhead)
        results = self.connection.execute_pipeline(statements)
        return [
            r.fetchall() if r.description is not None else r.rowcount
            for r in results
        ]

    def begin(self) -> None:
        self.connection.begin()

    def commit(self) -> None:
        self.connection.commit()

    def rollback(self) -> None:
        self.connection.rollback()

    def close(self) -> None:
        self.connection.close()


class _ProxySession:
    """Session over the wire protocol (proxy systems)."""

    def __init__(self, host: str, port: int):
        self.client = ProxyClient(host, port)

    def execute(self, sql: str, params: Sequence[Any] = ()):
        result = self.client.execute(sql, params)
        if result.description is not None:
            return result.fetchall()
        return result.rowcount

    def begin(self) -> None:
        self.client.begin()

    def commit(self) -> None:
        self.client.commit()

    def rollback(self) -> None:
        self.client.rollback()

    def close(self) -> None:
        self.client.close()


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------


class SingleNodeSystem(SystemUnderTest):
    """MS / PG analogue: everything in one data source, no sharding."""

    def __init__(self, name: str = "SingleNode", latency: LatencyModel = DEFAULT_LATENCY,
                 pool_size: int = 256, io_channels: int = 4):
        self.name = name
        self.source = DataSource(name.lower(), latency=latency, pool_size=pool_size,
                                 io_channels=io_channels)

    def session(self) -> _RawSession:
        return _RawSession(self.source)

    def close(self) -> None:
        self.source.pool.close()


class ShardingJDBCSystem(SystemUnderTest):
    """SSJ: the library's in-process adaptor (the paper's fastest mode)."""

    def __init__(
        self,
        tables: Sequence[tuple[str, str]],
        num_sources: int = 4,
        tables_per_source: int = 10,
        binding_groups: Sequence[Sequence[str]] = (),
        broadcast_tables: Sequence[str] = (),
        layout: str = "hash",
        key_space: int = 0,
        max_connections_per_query: int = 10,
        transaction_type: TransactionType = TransactionType.LOCAL,
        latency: LatencyModel = DEFAULT_LATENCY,
        name: str = "SSJ",
        pool_size: int = 128,
        io_channels: int = 4,
        replicas: int = 0,
        replication_lag: float = 0.0,
        replication_jitter: float = 0.0,
        result_cache: bool = False,
    ):
        self.name = name
        source_names = [f"ds{i}" for i in range(num_sources)]
        sources = make_sources(source_names, latency=latency, pool_size=pool_size,
                               io_channels=io_channels)
        self.replica_groups: list[ReplicaGroup] = []
        if replicas:
            for index, primary_name in enumerate(source_names):
                replica_sources = make_sources(
                    [f"{primary_name}_r{j}" for j in range(replicas)],
                    latency=latency, pool_size=pool_size, io_channels=io_channels,
                )
                group = ReplicaGroup(
                    sources[primary_name], list(replica_sources.values()),
                    lag=replication_lag, jitter=replication_jitter, seed=index,
                )
                sources.update(replica_sources)
                self.replica_groups.append(group)
        rule = make_grid_sharding(
            tables, source_names, tables_per_source, binding_groups, broadcast_tables,
            layout=layout, key_space=key_space,
        )
        self.runtime = ShardingRuntime(
            sources, rule,
            max_connections_per_query=max_connections_per_query,
            transaction_type=transaction_type,
        )
        for group in self.replica_groups:
            self.runtime.apply_rwsplit_rule(group.name, group.name, group.replica_names)
        if result_cache:
            self.runtime.engine.result_cache.enabled = True
        self.data_source = ShardingDataSource(self.runtime)

    def sync_replicas(self) -> None:
        """Force all replicas fully caught up (post-prepare barrier)."""
        for group in self.replica_groups:
            group.sync()

    def session(self) -> _JdbcSession:
        return _JdbcSession(self.data_source)

    def close(self) -> None:
        self.data_source.close()


class ShardingProxySystem(ShardingJDBCSystem):
    """SSP: the same runtime behind a real TCP proxy server."""

    def __init__(self, *args: Any, name: str = "SSP", **kwargs: Any):
        super().__init__(*args, name=name, **kwargs)
        self.server = ShardingProxyServer(self.runtime).start()

    def session(self) -> _ProxySession:
        assert self.server.port is not None
        return _ProxySession("127.0.0.1", self.server.port)

    def close(self) -> None:
        self.server.stop()
        super().close()


class MiddlewareSystem(SystemUnderTest):
    """Vitess/Citus analogue: a generic proxy-style sharding middleware.

    Differences from SSP that match the paper's characterization:
    no binding-table optimization (joins go cartesian), serial execution
    per source (MaxCon=1), and a fixed forwarding delay standing in for
    its (leaner, compiled) proxy hop instead of our JSON socket.
    """

    def __init__(
        self,
        tables: Sequence[tuple[str, str]],
        num_sources: int = 4,
        tables_per_source: int = 10,
        forwarding_delay: float = 1.2e-3,
        broadcast_tables: Sequence[str] = (),
        layout: str = "hash",
        key_space: int = 0,
        latency: LatencyModel = DEFAULT_LATENCY,
        name: str = "Middleware",
        pool_size: int = 128,
    ):
        self.name = name
        source_names = [f"ds{i}" for i in range(num_sources)]
        sources = make_sources(source_names, latency=latency, pool_size=pool_size)
        rule = make_grid_sharding(
            tables, source_names, tables_per_source, binding_groups=(),
            broadcast_tables=broadcast_tables, layout=layout, key_space=key_space,
        )
        self.runtime = ShardingRuntime(
            sources, rule, max_connections_per_query=1,
            transaction_type=TransactionType.LOCAL,
        )
        self.data_source = ShardingDataSource(self.runtime)
        self.forwarding_delay = forwarding_delay

    def session(self) -> _JdbcSession:
        return _JdbcSession(self.data_source, overhead=self.forwarding_delay)

    def close(self) -> None:
        self.data_source.close()


class NewSQLSystem(SystemUnderTest):
    """TiDB/CockroachDB analogue: consensus-replicated distributed SQL.

    Writes pay Raft-style majority replication (amplified commit I/O);
    every statement pays a KV round trip between the SQL layer and the
    storage layer; transactions are always two-phase (Percolator-style),
    which our XA manager models.
    """

    def __init__(
        self,
        tables: Sequence[tuple[str, str]],
        num_sources: int = 4,
        tables_per_source: int = 8,
        kv_rtt: float = 900e-6,
        replication_factor: int = 3,
        broadcast_tables: Sequence[str] = (),
        layout: str = "hash",
        key_space: int = 0,
        latency: LatencyModel = DEFAULT_LATENCY,
        name: str = "NewSQL",
        pool_size: int = 128,
    ):
        self.name = name
        source_names = [f"kv{i}" for i in range(num_sources)]
        # Majority replication: commits wait for ceil(RF/2) follower
        # acknowledgements; follower log writes are pipelined, so the
        # effective write amplification is sub-linear in RF.
        followers = replication_factor // 2
        consensus_latency = replace(
            latency,
            commit_io=latency.commit_io * (1 + followers),
            write_io=latency.write_io * (1 + 0.5 * followers),
            base=latency.base * 1.5,
        )
        sources = make_sources(source_names, latency=consensus_latency, pool_size=pool_size)
        rule = make_grid_sharding(
            tables, source_names, tables_per_source, binding_groups=(),
            broadcast_tables=broadcast_tables, layout=layout, key_space=key_space,
        )
        self.runtime = ShardingRuntime(
            sources, rule, max_connections_per_query=4,
            transaction_type=TransactionType.XA,
        )
        self.data_source = ShardingDataSource(self.runtime)
        self.kv_rtt = kv_rtt

    def session(self) -> _JdbcSession:
        return _JdbcSession(self.data_source, overhead=self.kv_rtt)

    def close(self) -> None:
        self.data_source.close()


class AuroraLikeSystem(SystemUnderTest):
    """Aurora analogue: one compute node over an offloaded storage service.

    Only redo logs cross the network on commit (cheap commits), storage
    bandwidth is effectively unlimited (low row cost), but every request
    pays the hop to the cloud endpoint.
    """

    def __init__(
        self,
        request_hop: float = 100e-6,
        latency: LatencyModel = DEFAULT_LATENCY,
        name: str = "AuroraLike",
        pool_size: int = 256,
    ):
        self.name = name
        storage_latency = replace(
            latency,
            commit_io=latency.commit_io * 0.4,
            write_io=latency.write_io * 0.4,
            row_cost=latency.row_cost * 0.5,
        )
        # "the storage power of Aurora can be seen as unlimited": a wide
        # storage service, not a single disk.
        self.source = DataSource(
            name.lower(), latency=storage_latency, pool_size=pool_size, io_channels=32
        )
        self.request_hop = request_hop

    def session(self) -> _RawSession:
        return _RawSession(self.source, overhead=self.request_hop)

    def close(self) -> None:
        self.source.pool.close()
