"""Fig. 13 — Effects of the three transaction types.

Paper: LOCAL always best (1PC, no waiting); XA worse (2PC, strong
consistency); BASE worst on these short transactions (TC round trips +
synchronous returns, as the paper discusses).

Here: write-only sysbench transactions under each manager. Asserted
shape: TPS(LOCAL) > TPS(XA) > TPS(BASE); 99T ordering is the reverse.
"""

from repro.__main__ import format_table
from repro.transaction import TransactionType

from paper.runner import run_benchmark, sysbench_row

from common import WARMUP, make_ssj, sysbench_workload
from common import report


def run_fig13():
    results = {}
    for txn_type in (TransactionType.LOCAL, TransactionType.XA, TransactionType.BASE):
        workload = sysbench_workload()
        system = make_ssj(transaction_type=txn_type, name=txn_type.value)
        workload.prepare(system)
        try:
            results[txn_type.value] = run_benchmark(
                system,
                lambda s, r: workload.run_transaction("write_only", s, r),
                # moderate concurrency: throughput must track per-transaction
                # latency, not the driver's CPU ceiling
                scenario=f"wo@{txn_type.value}", threads=3, duration=2.5, warmup=WARMUP,
            )
        finally:
            system.close()
    return results


def test_fig13_transaction_types(benchmark):
    results = benchmark.pedantic(run_fig13, rounds=1, iterations=1)
    report("")
    report("== Fig. 13 (transaction types, Write Only) ==")
    report(format_table(["Type", "TPS", "99T(ms)", "AvgT(ms)"],
                       [sysbench_row(m) for m in results.values()]))

    tps = {name: m.tps for name, m in results.items()}
    assert tps["LOCAL"] > tps["XA"], tps
    assert tps["XA"] > tps["BASE"], tps

    avg = {name: m.avg_ms for name, m in results.items()}
    assert avg["LOCAL"] < avg["XA"] < avg["BASE"], avg
