"""Fig. 11 — Scalability with different request concurrency.

Paper: threads 20 -> 500. TPS rises then plateaus once the servers
saturate; 99T stays flat at low concurrency then climbs sharply past the
knee (requests queue for resources).

Here: 1 -> 24 threads against SSJ. Asserted shape: TPS grows
significantly from 1 thread to the mid range, then gains flatten
(sub-linear); p99 at the highest concurrency exceeds p99 at the lowest.
"""

from repro.__main__ import format_table

from paper.runner import run_benchmark, sysbench_row

from common import WARMUP, make_ssj, sysbench_workload
from common import report

THREAD_STEPS = [1, 4, 8, 16, 24]


def run_fig11():
    workload = sysbench_workload()
    results = {}
    system = make_ssj()
    workload.prepare(system)
    try:
        for threads in THREAD_STEPS:
            results[threads] = run_benchmark(
                system,
                lambda s, r: workload.run_transaction("read_write", s, r),
                scenario=f"rw@{threads}t", threads=threads, duration=1.2, warmup=WARMUP,
            )
    finally:
        system.close()
    return results


def test_fig11_concurrency(benchmark):
    results = benchmark.pedantic(run_fig11, rounds=1, iterations=1)
    report("")
    report("== Fig. 11 (concurrency, Read Write, SSJ) ==")
    rows = [[threads] + sysbench_row(m)[1:] for threads, m in results.items()]
    report(format_table(["threads", "TPS", "99T(ms)", "AvgT(ms)"], rows))

    tps = {t: m.tps for t, m in results.items()}
    p99 = {t: m.p99_ms for t, m in results.items()}

    # TPS first increases...
    assert tps[4] > tps[1] * 1.5, tps
    # ...then saturates: the last doubling of threads gains < 50%
    assert tps[THREAD_STEPS[-1]] < tps[8] * 1.5, tps
    # past saturation the tail latency climbs
    assert p99[THREAD_STEPS[-1]] > p99[1], p99
