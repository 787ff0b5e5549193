"""Fig. 10 — Scalability with different data sizes.

Paper: 20M -> 200M rows; all systems roughly stable until the largest
size, where TPS drops and 99T grows (taller trees, more disk); SSJ best
at every size.

Here: 5k -> 50k rows (same 10x span). Asserted shape: SSJ beats the
single node at every size; TPS at the largest size is below TPS at the
smallest for the single node (degradation), and SSJ degrades by less.
"""

from repro.__main__ import format_table

from paper.runner import run_benchmark, sysbench_row

from common import THREADS, WARMUP, make_single, make_ssj, sysbench_workload
from common import report

SIZES = [5_000, 10_000, 25_000, 50_000]


def run_fig10():
    results: dict[int, dict[str, object]] = {}
    for size in SIZES:
        workload = sysbench_workload(size)
        results[size] = {}
        for name, factory in (
            ("SSJ(MS)", lambda: make_ssj(table_size=size, name="SSJ(MS)")),
            ("MS", lambda: make_single("MS")),
        ):
            system = factory()
            workload.prepare(system)
            try:
                results[size][name] = run_benchmark(
                    system,
                    lambda s, r: workload.run_transaction("read_write", s, r),
                    scenario=f"rw@{size}", threads=THREADS, duration=1.2, warmup=WARMUP,
                )
            finally:
                system.close()
    return results


def test_fig10_data_size(benchmark):
    results = benchmark.pedantic(run_fig10, rounds=1, iterations=1)
    report("")
    report("== Fig. 10 (data size, Read Write) ==")
    rows = []
    for size, by_system in results.items():
        for m in by_system.values():
            rows.append([size] + sysbench_row(m))
    report(format_table(["rows", "System", "TPS", "99T(ms)", "AvgT(ms)"], rows))

    for size, by_system in results.items():
        assert by_system["SSJ(MS)"].tps > by_system["MS"].tps, (size,)

    # the single node degrades from smallest to largest size
    assert results[SIZES[-1]]["MS"].tps < results[SIZES[0]]["MS"].tps
    # SSJ's relative degradation is smaller (its per-shard tables stay small)
    ssj_drop = results[SIZES[0]]["SSJ(MS)"].tps / max(results[SIZES[-1]]["SSJ(MS)"].tps, 1e-9)
    ms_drop = results[SIZES[0]]["MS"].tps / max(results[SIZES[-1]]["MS"].tps, 1e-9)
    assert ssj_drop <= ms_drop * 1.2, (ssj_drop, ms_drop)
