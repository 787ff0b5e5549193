"""Table III — Sysbench comparison of distributed systems.

Paper: four scenarios (Point Select, Read Only, Write Only, Read Write) x
{SSJ, SSP, Vitess, TiDB, CRDB} reporting TPS / 99T / AvgT. SS-based
systems win every scenario; SSJ ~5x the best non-SS system on Read Write;
Read Write is the slowest scenario for everyone.

Here: the same grid (4 sources x 10 tables) over the analogues. The
asserted shape: SSJ best in every scenario; SSP beats the CRDB analogue
everywhere; read-write is each system's slowest scenario.
"""

from repro.__main__ import format_table

from paper.runner import sysbench_row
from paper.sysbench import SCENARIOS

from common import (
    make_crdb,
    make_middleware,
    make_newsql,
    make_ssj,
    make_ssp,
    measure,
    sysbench_workload,
)
from common import report

#: moderate concurrency so throughput tracks per-statement latency (round
#: trips, proxy hops) rather than the driver process's CPU ceiling — the
#: regime the paper's 32-vCore load generators operate in.
THREADS = 4

SYSTEM_FACTORIES = [
    ("SSJ(MS)", make_ssj),
    ("SSP(MS)", make_ssp),
    ("Vitess-like", make_middleware),
    ("TiDB-like", make_newsql),
    ("CRDB-like", make_crdb),
]


def run_table3() -> dict[str, dict[str, object]]:
    workload = sysbench_workload()
    results: dict[str, dict[str, object]] = {}
    for scenario in SCENARIOS:
        results[scenario] = {}
        for name, factory in SYSTEM_FACTORIES:
            system = factory(name=name)
            results[scenario][name] = measure(system, workload, scenario, threads=THREADS)
    return results


def test_table3_sysbench_distributed(benchmark):
    results = benchmark.pedantic(run_table3, rounds=1, iterations=1)
    for scenario, measurements in results.items():
        rows = [sysbench_row(m) for m in measurements.values()]
        report("")
        report(f"== Table III ({scenario}) ==")
        report(format_table(["System", "TPS", "99T(ms)", "AvgT(ms)"], rows))

    for scenario, by_system in results.items():
        tps = {name: m.tps for name, m in by_system.items()}
        # SS-JDBC performs the best in all scenarios.
        assert tps["SSJ(MS)"] == max(tps.values()), (scenario, tps)
        # The CRDB analogue trails the middlewares, as in the paper.
        assert tps["SSP(MS)"] > tps["CRDB-like"], (scenario, tps)

    # "The 'Read Write' scenario performs the worst" (per system).
    for name, _ in SYSTEM_FACTORIES:
        per_scenario = {s: results[s][name].tps for s in SCENARIOS}
        assert per_scenario["read_write"] == min(per_scenario.values()), (name, per_scenario)
