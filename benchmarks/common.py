"""Shared helpers for the paper-reproduction benchmarks.

Every bench module reproduces one table or figure of Section VIII. The
systems are built here with the evaluation's default layout (Table II
scaled down): data sharded across data sources and, within each source,
into 10 tables; contiguous range layout so sysbench's small BETWEEN
ranges stay shard-local (see EXPERIMENTS.md, layout note); the
BENCH_LATENCY profile (buffer-pool reads, WAL-priced writes).

Absolute numbers are Python-process numbers; the benches assert and print
the paper's *shapes* (who wins, roughly by how much, where curves bend).
"""

from __future__ import annotations

from repro.transaction import TransactionType

from paper.base import SystemUnderTest
from paper.runner import Measurement, run_benchmark
from paper.sysbench import SysbenchConfig, SysbenchWorkload
from paper.systems import (
    BENCH_LATENCY,
    AuroraLikeSystem,
    MiddlewareSystem,
    NewSQLSystem,
    ShardingJDBCSystem,
    ShardingProxySystem,
    SingleNodeSystem,
)

#: default evaluation scale (paper: 40M rows, 12 servers; here: laptop)
TABLE_SIZE = 20_000
NUM_SOURCES = 4
TABLES_PER_SOURCE = 10
THREADS = 8
DURATION = 1.5
WARMUP = 0.3

SBTEST = [("sbtest", "id")]

#: reproduced paper tables accumulate here; conftest's terminal-summary
#: hook replays them so they land in bench_output.txt despite capture.
REPORT_BUFFER: list[str] = []


def report(*parts: object) -> None:
    text = " ".join(str(p) for p in parts)
    print(text)
    REPORT_BUFFER.append(text)


def sysbench_workload(table_size: int = TABLE_SIZE) -> SysbenchWorkload:
    return SysbenchWorkload(SysbenchConfig(table_size=table_size))


def grid_kwargs(table_size: int = TABLE_SIZE) -> dict:
    return dict(layout="range", key_space=table_size + 1, latency=BENCH_LATENCY)


def make_ssj(table_size: int = TABLE_SIZE, num_sources: int = NUM_SOURCES,
             tables_per_source: int = TABLES_PER_SOURCE,
             transaction_type: TransactionType = TransactionType.LOCAL,
             max_connections_per_query: int = 10, name: str = "SSJ",
             io_channels: int = 4) -> ShardingJDBCSystem:
    return ShardingJDBCSystem(
        SBTEST, num_sources=num_sources, tables_per_source=tables_per_source,
        transaction_type=transaction_type,
        max_connections_per_query=max_connections_per_query,
        name=name, io_channels=io_channels, **grid_kwargs(table_size),
    )


def make_ssp(table_size: int = TABLE_SIZE, num_sources: int = NUM_SOURCES,
             tables_per_source: int = TABLES_PER_SOURCE, name: str = "SSP",
             io_channels: int = 4) -> ShardingProxySystem:
    return ShardingProxySystem(
        SBTEST, num_sources=num_sources, tables_per_source=tables_per_source,
        name=name, io_channels=io_channels, **grid_kwargs(table_size),
    )


def make_middleware(table_size: int = TABLE_SIZE, num_sources: int = NUM_SOURCES,
                    name: str = "Vitess-like") -> MiddlewareSystem:
    return MiddlewareSystem(
        SBTEST, num_sources=num_sources, tables_per_source=TABLES_PER_SOURCE,
        name=name, **grid_kwargs(table_size),
    )


def make_newsql(table_size: int = TABLE_SIZE, num_sources: int = NUM_SOURCES,
                name: str = "TiDB-like", **kw) -> NewSQLSystem:
    return NewSQLSystem(
        SBTEST, num_sources=num_sources, name=name, **grid_kwargs(table_size), **kw
    )


def make_crdb(table_size: int = TABLE_SIZE, num_sources: int = NUM_SOURCES,
              name: str = "CRDB-like") -> NewSQLSystem:
    """CockroachDB analogue: geo-style RTTs and RF=5 serializability cost."""
    return NewSQLSystem(
        SBTEST, num_sources=num_sources, name=name,
        kv_rtt=4e-3, replication_factor=5, **grid_kwargs(table_size),
    )


def make_single(name: str = "MS") -> SingleNodeSystem:
    return SingleNodeSystem(name, latency=BENCH_LATENCY)


def make_aurora(name: str = "Aurora-like") -> AuroraLikeSystem:
    return AuroraLikeSystem(latency=BENCH_LATENCY, name=name)


def measure(system: SystemUnderTest, workload: SysbenchWorkload, scenario: str,
            threads: int = THREADS, duration: float = DURATION) -> Measurement:
    """Prepare + run + close one system for one sysbench scenario."""
    workload.prepare(system)
    try:
        return run_benchmark(
            system,
            lambda session, rng: workload.run_transaction(scenario, session, rng),
            scenario=scenario, threads=threads, duration=duration, warmup=WARMUP,
        )
    finally:
        system.close()
