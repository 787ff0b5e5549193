"""Fig. 14 — Effects of binding tables.

Paper: joining two identically-sharded logical tables with vs without a
binding relationship; binding is ~10x faster in TPS because the join is
routed shard-locally (one SQL per node) instead of as a cartesian product
(tables_per_source^2 SQLs per source).

Here: two tables over 2 sources x 10 tables. Binding routes 20 units; the
cartesian route produces 200 — the same 10x unit blow-up, asserted both on
the routing itself and on the measured TPS gap.
"""

from repro.__main__ import format_table

from paper.runner import run_benchmark, sysbench_row
from paper.systems import BENCH_LATENCY, ShardingJDBCSystem
from common import report

NUM_SOURCES = 2
TABLES_PER_SOURCE = 10
ROWS_PER_TABLE = 2_000

JOIN_SQL = (
    "SELECT COUNT(*) FROM t_left l JOIN t_right r ON l.id = r.id WHERE l.k > 0"
)


def build(binding: bool) -> ShardingJDBCSystem:
    system = ShardingJDBCSystem(
        [("t_left", "id"), ("t_right", "id")],
        num_sources=NUM_SOURCES,
        tables_per_source=TABLES_PER_SOURCE,
        binding_groups=[["t_left", "t_right"]] if binding else [],
        latency=BENCH_LATENCY,
        max_connections_per_query=10,
        name="Binding" if binding else "Common",
    )
    session = system.session()
    try:
        for table in ("t_left", "t_right"):
            session.execute(
                f"CREATE TABLE {table} (id INT NOT NULL, k INT DEFAULT 1, PRIMARY KEY (id))"
            )
            batch = []
            for row_id in range(ROWS_PER_TABLE):
                batch.append(f"({row_id}, {row_id % 97 + 1})")
                if len(batch) == 500:
                    session.execute(f"INSERT INTO {table} (id, k) VALUES " + ", ".join(batch))
                    batch = []
            if batch:
                session.execute(f"INSERT INTO {table} (id, k) VALUES " + ", ".join(batch))
    finally:
        session.close()
    return system


def run_fig14():
    results = {}
    units = {}
    for binding in (True, False):
        system = build(binding)
        # routing-level check: how many SQLs does the join produce?
        diag = system.data_source.get_connection()
        result = diag.execute(JOIN_SQL)
        units[system.name] = result.diagnostics.unit_count
        diag.close()
        try:
            results[system.name] = run_benchmark(
                system,
                lambda session, rng: session.execute(JOIN_SQL),
                scenario=system.name, threads=4, duration=2.0, warmup=0.3,
            )
        finally:
            system.close()
    return results, units


def test_fig14_binding_table(benchmark):
    (results, units) = benchmark.pedantic(run_fig14, rounds=1, iterations=1)
    report("")
    report("== Fig. 14 (binding vs common join) ==")
    rows = [
        sysbench_row(m) + [units[name]] for name, m in results.items()
    ]
    report(format_table(["Config", "TPS", "99T(ms)", "AvgT(ms)", "routed SQLs"], rows))

    # the paper's routing blow-up: cartesian = binding x tables_per_source
    assert units["Binding"] == NUM_SOURCES * TABLES_PER_SOURCE
    assert units["Common"] == NUM_SOURCES * TABLES_PER_SOURCE ** 2

    # "the performance of binding tables is about 10 times better":
    # accept anything >= 4x as reproducing the order-of-magnitude claim.
    ratio = results["Binding"].tps / max(results["Common"].tps, 1e-9)
    assert ratio > 4.0, ratio
