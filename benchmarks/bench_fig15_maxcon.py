"""Fig. 15 — Effects of MaxCon (maxConnectionsizePerQuery).

Paper: one request thread, a range query producing multiple routed SQLs.
Small MaxCon forces connection-strictly mode (routed SQLs execute one by
one on few connections); raising MaxCon to ~5 lets them run concurrently
and TPS improves; past that the bottleneck moves to the data sources and
the curve flattens.

Here: a range query spanning one data source's full block -> 10 routed
SQLs against network-distant sources (3ms/request latency profile, which
is what the knob trades off). Asserted shape: MaxCon=5 clearly beats
MaxCon=1; MaxCon=10 gains little over MaxCon=5.
"""

from dataclasses import replace

from repro.__main__ import format_table

from paper.runner import run_benchmark
from paper.sysbench import SysbenchConfig, SysbenchWorkload
from paper.systems import BENCH_LATENCY, ShardingJDBCSystem
from common import report

TABLE_SIZE = 20_000
NUM_SOURCES = 4
TABLES_PER_SOURCE = 10
#: one source's contiguous block: the range fans out to its 10 tables
BLOCK = TABLE_SIZE // NUM_SOURCES
#: remote data sources: a fixed per-request cost dominates (Fig 15's knob
#: is precisely about overlapping these per-SQL waits)
REMOTE_LATENCY = replace(BENCH_LATENCY, base=3e-3)

MAXCON_STEPS = [1, 2, 5, 10]

RANGE_SQL = "SELECT SUM(k) FROM sbtest WHERE id BETWEEN ? AND ?"


def run_fig15():
    workload = SysbenchWorkload(SysbenchConfig(table_size=TABLE_SIZE))
    results = {}
    modes = {}
    for maxcon in MAXCON_STEPS:
        system = ShardingJDBCSystem(
            [("sbtest", "id")],
            num_sources=NUM_SOURCES, tables_per_source=TABLES_PER_SOURCE,
            layout="range", key_space=TABLE_SIZE + 1,
            latency=REMOTE_LATENCY,
            max_connections_per_query=maxcon,
            name=f"MaxCon={maxcon}",
        )
        workload.prepare(system)
        diag = system.data_source.get_connection()
        probe = diag.execute(RANGE_SQL, (1, BLOCK - 1))
        probe.fetchall()
        modes[maxcon] = (probe.diagnostics.unit_count,
                         {k: v.value for k, v in probe.diagnostics.modes.items()})
        diag.close()
        try:
            results[maxcon] = run_benchmark(
                system,
                lambda session, rng: session.execute(
                    RANGE_SQL, (1, BLOCK - 1)
                ),
                scenario=f"maxcon={maxcon}", threads=1, duration=1.5, warmup=0.3,
            )
        finally:
            system.close()
    return results, modes


def test_fig15_maxcon(benchmark):
    results, modes = benchmark.pedantic(run_fig15, rounds=1, iterations=1)
    report("")
    report("== Fig. 15 (MaxCon, single-thread range query) ==")
    rows = [
        [maxcon, round(m.tps, 1), round(m.p99_ms, 2), modes[maxcon][0], str(modes[maxcon][1])]
        for maxcon, m in results.items()
    ]
    report(format_table(["MaxCon", "TPS", "99T(ms)", "routed SQLs", "mode"], rows))

    tps = {maxcon: m.tps for maxcon, m in results.items()}

    # the θ rule: MaxCon below the 10 routed SQLs -> connection strictly
    assert "connection_strictly" in modes[1][1].values()
    assert "memory_strictly" in modes[10][1].values()

    # performance improves as MaxCon grows to 5 ...
    assert tps[5] > tps[1] * 2, tps
    # ... and keeps stable afterwards (gain < 60%)
    assert tps[10] < tps[5] * 1.6, tps
