"""Table IV — Sysbench comparison with standalone (one-server) systems.

Paper: one virtual server for everything. MS=574 TPS, SSJ(MS)=4751,
SSP(MS)=380, Citus=621, Aurora(MS)=1543-ish / Aurora(PG)=2043 on
Read Write. Key claims reproduced here:

1. SSJ beats the plain single node *on the same resources* because the
   data lives in 10 small tables instead of one big one;
2. SSP falls below the single node (the proxy hop costs more than the
   sharding gains at one server);
3. Aurora-like beats the single node (storage-offloaded commits) but
   loses to SSJ;
4. TPS and AvgT rank systems consistently.
"""

from repro.__main__ import format_table

from paper.runner import sysbench_row

from common import make_aurora, make_single, make_ssj, make_ssp, measure, sysbench_workload
from common import report


def run_table4():
    workload = sysbench_workload()
    systems = [
        ("MS", lambda: make_single("MS")),
        ("SSJ(MS)", lambda: make_ssj(num_sources=1, name="SSJ(MS)")),
        ("SSP(MS)", lambda: make_ssp(num_sources=1, name="SSP(MS)")),
        ("Aurora-like", lambda: make_aurora("Aurora-like")),
    ]
    return {name: measure(factory(), workload, "read_write") for name, factory in systems}


def test_table4_standalone(benchmark):
    results = benchmark.pedantic(run_table4, rounds=1, iterations=1)
    report("")
    report("== Table IV (standalone, Read Write) ==")
    report(format_table(["System", "TPS", "99T(ms)", "AvgT(ms)"],
                       [sysbench_row(m) for m in results.values()]))

    tps = {name: m.tps for name, m in results.items()}
    avg = {name: m.avg_ms for name, m in results.items()}

    # (1) sharding into 10 small tables beats one big table on one server
    assert tps["SSJ(MS)"] > tps["MS"] * 1.5, tps
    # (2) the proxy hop erases the gains at a single server
    assert tps["SSP(MS)"] < tps["SSJ(MS)"], tps
    # (3) Aurora-like beats the plain single node but not SSJ
    assert tps["Aurora-like"] > tps["MS"], tps
    assert tps["SSJ(MS)"] > tps["Aurora-like"], tps
    # (4) TPS and AvgT are consistent: the TPS winner has the lowest AvgT
    best_tps = max(tps, key=tps.get)
    best_avg = min(avg, key=avg.get)
    assert best_tps == best_avg, (tps, avg)
