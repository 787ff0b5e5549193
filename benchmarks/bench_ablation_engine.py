"""Ablations for the SQL engine's design choices (DESIGN.md, last section).

Not a paper figure — these quantify the optimizations the paper describes
qualitatively, by disabling each one:

1. statement parse cache (Section VI-A's "parse once" motivation);
2. the stream-merger optimization rewrite (Section VI-C: adding ORDER BY
   to GROUP BY queries turns memory merge into stream merge);
3. binding-table route vs cartesian on a point join (Section V-B: when
   conditions pin the shard, both collapse to one unit — the optimization
   matters exactly when they don't).
"""

import random

from repro.__main__ import format_table

from paper.runner import run_benchmark
from paper.systems import BENCH_LATENCY, ShardingJDBCSystem
from common import report

TABLE_SIZE = 8_000


def build(name="ablate"):
    system = ShardingJDBCSystem(
        [("t_a", "id"), ("t_b", "id")],
        num_sources=2, tables_per_source=5,
        binding_groups=[["t_a", "t_b"]],
        latency=BENCH_LATENCY, max_connections_per_query=10, name=name,
    )
    session = system.session()
    for table in ("t_a", "t_b"):
        session.execute(
            f"CREATE TABLE {table} (id INT NOT NULL, grp INT, v INT, PRIMARY KEY (id))"
        )
        batch = ", ".join(
            f"({i}, {i % 7}, {i % 101})" for i in range(TABLE_SIZE)
        )
        for start in range(0, TABLE_SIZE, 500):
            chunk = ", ".join(
                f"({i}, {i % 7}, {i % 101})" for i in range(start, min(start + 500, TABLE_SIZE))
            )
            session.execute(f"INSERT INTO {table} (id, grp, v) VALUES {chunk}")
    session.close()
    return system


def run_ablations():
    results = {}

    # -- 1. parse cache ------------------------------------------------------
    system = build()
    point = "SELECT v FROM t_a WHERE id = ?"

    def txn(session, rng):
        session.execute(point, (rng.randrange(TABLE_SIZE),))

    with_cache = run_benchmark(system, txn, scenario="cache-on",
                               threads=4, duration=1.0, warmup=0.2)
    original = system.runtime.engine._parse_cached

    def no_cache(sql):
        from repro.sql import parse
        return parse(sql)

    system.runtime.engine._parse_cached = no_cache
    without_cache = run_benchmark(system, txn, scenario="cache-off",
                                  threads=4, duration=1.0, warmup=0.2)
    system.runtime.engine._parse_cached = original
    results["parse_cache"] = (with_cache.tps, without_cache.tps)

    # -- 2. stream-merger optimization (GROUP BY gains ORDER BY) -------------
    group_sql = "SELECT grp, SUM(v) FROM t_a GROUP BY grp"
    conn = system.data_source.get_connection()
    probe = conn.execute(group_sql)
    probe.fetchall()
    stream_kind = probe.diagnostics.merger_kind
    # ablate by ordering on a different column: forces memory group merge
    memory_sql = "SELECT grp, SUM(v) AS s FROM t_a GROUP BY grp ORDER BY s"
    probe = conn.execute(memory_sql)
    probe.fetchall()
    memory_kind = probe.diagnostics.merger_kind
    conn.close()

    stream_m = run_benchmark(
        system, lambda s, r: s.execute(group_sql),
        scenario="group-stream", threads=4, duration=1.0, warmup=0.2,
    )
    memory_m = run_benchmark(
        system, lambda s, r: s.execute(memory_sql),
        scenario="group-memory", threads=4, duration=1.0, warmup=0.2,
    )
    results["merger"] = (stream_kind, memory_kind, stream_m.tps, memory_m.tps)

    # -- 3. binding route collapses with a pinning condition -----------------
    join = ("SELECT COUNT(*) FROM t_a a JOIN t_b b ON a.id = b.id "
            "WHERE a.id = ?")
    conn = system.data_source.get_connection()
    result = conn.execute(join, (5,))
    result.fetchall()
    results["point_join_units"] = result.diagnostics.unit_count
    conn.close()

    system.close()
    return results


def test_ablation_engine(benchmark):
    results = benchmark.pedantic(run_ablations, rounds=1, iterations=1)
    cache_on, cache_off = results["parse_cache"]
    stream_kind, memory_kind, stream_tps, memory_tps = results["merger"]
    report("")
    report("== Engine ablations ==")
    report(format_table(
        ["ablation", "optimized", "ablated"],
        [
            ["parse cache (TPS)", round(cache_on, 1), round(cache_off, 1)],
            ["group merge (TPS)", round(stream_tps, 1), round(memory_tps, 1)],
            ["group merge (kind)", stream_kind, memory_kind],
        ],
    ))

    # the cache must help, not hurt
    assert cache_on > cache_off * 0.95
    # the optimization rewrite really selects the stream merger
    assert stream_kind == "group-by-stream"
    assert memory_kind == "group-by-memory"
    # a pinning condition collapses a binding join to a single unit
    assert results["point_join_units"] == 1
