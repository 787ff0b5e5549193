"""Fig. 9 — TPC-C comparison (TPS and accumulated 90th-percentile time).

Paper: native TPC-C, 200 warehouses, all tables sharded into 5 sources,
bmsql_order_line further sharded into 10 tables per source. SSJ has the
best TPS and smallest 90T; SSP trails Vitess/Citus; TiDB takes the most
time overall.

Here: the same layout at laptop scale (fewer warehouses, 2 sources).
Asserted shape: SSJ best TPS and best 90T among the sharded systems;
the TiDB analogue has the largest 90T.
"""

from repro.__main__ import format_table

from paper.runner import run_benchmark, tpcc_row
from paper.systems import (
    BENCH_LATENCY,
    MiddlewareSystem,
    NewSQLSystem,
    ShardingJDBCSystem,
    ShardingProxySystem,
)
from paper.tpcc import TPCC_BROADCAST_TABLES, TPCC_SHARDED_TABLES, TPCCConfig, TPCCWorkload
from common import report

NUM_SOURCES = 2
BINDINGS = [[
    "bmsql_warehouse", "bmsql_district", "bmsql_customer",
    "bmsql_stock", "bmsql_oorder", "bmsql_new_order",
]]


def build_systems():
    common = dict(
        num_sources=NUM_SOURCES, tables_per_source=1,
        broadcast_tables=TPCC_BROADCAST_TABLES, latency=BENCH_LATENCY,
    )
    return [
        ShardingJDBCSystem(TPCC_SHARDED_TABLES, binding_groups=BINDINGS, name="SSJ(MS)", **common),
        ShardingProxySystem(TPCC_SHARDED_TABLES, binding_groups=BINDINGS, name="SSP(MS)", **common),
        MiddlewareSystem(TPCC_SHARDED_TABLES, name="Vitess-like",
                         num_sources=NUM_SOURCES, tables_per_source=1,
                         broadcast_tables=TPCC_BROADCAST_TABLES, latency=BENCH_LATENCY),
        NewSQLSystem(TPCC_SHARDED_TABLES, name="TiDB-like",
                     num_sources=NUM_SOURCES, tables_per_source=1,
                     broadcast_tables=TPCC_BROADCAST_TABLES, latency=BENCH_LATENCY),
    ]


def run_fig9():
    config = TPCCConfig(warehouses=4)
    workload = TPCCWorkload(config)
    results = {}
    for system in build_systems():
        workload.prepare(system)
        try:
            results[system.name] = run_benchmark(
                system,
                lambda session, rng: workload.run_transaction(
                    workload.pick_transaction(rng), session, rng
                ),
                scenario="tpcc", threads=6, duration=2.0, warmup=0.4,
            )
        finally:
            system.close()
    return results


def test_fig9_tpcc(benchmark):
    results = benchmark.pedantic(run_fig9, rounds=1, iterations=1)
    report("")
    report("== Fig. 9 (TPC-C) ==")
    report(format_table(["System", "TPS", "90T(ms)"], [tpcc_row(m) for m in results.values()]))

    tps = {name: m.tps for name, m in results.items()}
    p90 = {name: m.p90_ms for name, m in results.items()}
    assert tps["SSJ(MS)"] == max(tps.values()), tps
    assert p90["SSJ(MS)"] == min(p90.values()), p90
    # the NewSQL analogue takes the most time
    assert p90["TiDB-like"] == max(p90.values()), p90
    # every transaction type executed without errors
    assert all(m.errors == 0 for m in results.values())
