"""Fig. 12 — Scalability with different numbers of data servers.

Paper: 1 -> 5 data servers. SSJ's TPS grows with more servers (smaller
per-source slices, more parallel I/O); SSP's TPS rises slightly then
plateaus past ~3 servers — the single proxy becomes the bottleneck; 99T
drops then flattens.

Here: 1 -> 5 sources, each with tight I/O capacity (2 channels) so a
single server saturates, as in the paper's hardware. Asserted shape:
SSJ grows from 1 -> 5 servers (the paper's own Fig. 12a growth is ~1.3x)
and beats SSP at every scale; SSP gains less than SSJ from more servers.
"""

from repro.__main__ import format_table

from paper.runner import run_benchmark, sysbench_row

from common import THREADS, WARMUP, make_ssj, make_ssp, sysbench_workload
from common import report

SOURCE_STEPS = [1, 2, 3, 4, 5]


def run_fig12():
    results: dict[int, dict[str, object]] = {}
    for sources in SOURCE_STEPS:
        workload = sysbench_workload()
        results[sources] = {}
        for name, factory in (
            ("SSJ(MS)", lambda: make_ssj(num_sources=sources, name="SSJ(MS)", io_channels=2)),
            ("SSP(MS)", lambda: make_ssp(num_sources=sources, name="SSP(MS)", io_channels=2)),
        ):
            system = factory()
            workload.prepare(system)
            try:
                results[sources][name] = run_benchmark(
                    system,
                    lambda s, r: workload.run_transaction("read_write", s, r),
                    scenario=f"rw@{sources}ds", threads=12, duration=1.5, warmup=WARMUP,
                )
            finally:
                system.close()
    return results


def test_fig12_data_servers(benchmark):
    results = benchmark.pedantic(run_fig12, rounds=1, iterations=1)
    report("")
    report("== Fig. 12 (number of data servers, Read Write) ==")
    rows = []
    for sources, by_system in results.items():
        for m in by_system.values():
            rows.append([sources] + sysbench_row(m))
    report(format_table(["servers", "System", "TPS", "99T(ms)", "AvgT(ms)"], rows))

    ssj = {s: by["SSJ(MS)"].tps for s, by in results.items()}
    ssp = {s: by["SSP(MS)"].tps for s, by in results.items()}

    # SSJ scales with more data servers (paper's own growth is ~1.3x)
    assert ssj[5] > ssj[1] * 1.15, ssj
    # SSJ beats SSP at every scale
    for sources in SOURCE_STEPS:
        assert ssj[sources] > ssp[sources], (sources, ssj, ssp)
    # the proxy plateaus: SSP's 1->5 gain is below SSJ's
    assert (ssp[5] / max(ssp[1], 1e-9)) < (ssj[5] / max(ssj[1], 1e-9)) * 1.05, (ssj, ssp)
