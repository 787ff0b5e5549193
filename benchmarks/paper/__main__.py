"""Command-line benchmark runner: ``PYTHONPATH=benchmarks python -m paper``.

Runs a sysbench scenario or the TPC-C mix against one of the systems
under test and prints the paper-style row. Examples::

    python -m paper --system ssj --scenario read_write --threads 8
    python -m paper --system ms --scenario point_select --duration 3
    python -m paper --workload tpcc --system ssp --threads 4
    python -m paper --proxy --connections 500 --duration 5

Fixed, not flags: the sysbench grid is laid out in ranges (small BETWEEN
ranges stay shard-local); the engine systems run LOCAL transactions with
maxConnectionSizePerQuery 10 (``ShardingJDBCSystem``'s defaults); TPC-C
loads ``TPCCConfig``'s 2 warehouses; ``--skew zipfian`` draws with
``SysbenchConfig``'s exponent 1.2; ``--chaos`` uses ``CHAOS_SEED`` and
``CHAOS_TRANSIENT_RATE``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.__main__ import format_table
from repro.cache import CacheStats, hit_rate

from .runner import run_benchmark, sysbench_row, tpcc_row
from .sysbench import SCENARIOS, SysbenchConfig, SysbenchWorkload
from .systems import (
    BENCH_LATENCY,
    AuroraLikeSystem,
    MiddlewareSystem,
    NewSQLSystem,
    ShardingJDBCSystem,
    ShardingProxySystem,
    SingleNodeSystem,
)
from .tpcc import TPCC_BROADCAST_TABLES, TPCC_SHARDED_TABLES, TPCCConfig, TPCCWorkload

SYSTEMS = ("ssj", "ssp", "ms", "middleware", "newsql", "aurora")

#: --chaos's fault schedule: its seed and per-statement transient fault rate
CHAOS_SEED = 7
CHAOS_TRANSIENT_RATE = 0.02


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m paper",
        description="Run a paper-style benchmark against one system under test.",
    )
    parser.add_argument("--workload", choices=("sysbench", "tpcc"), default="sysbench")
    parser.add_argument("--system", choices=SYSTEMS, default="ssj")
    parser.add_argument("--scenario", choices=SCENARIOS, default="read_write",
                        help="sysbench scenario (ignored for tpcc)")
    parser.add_argument("--table-size", type=int, default=20_000)
    parser.add_argument("--sources", type=int, default=4, help="number of data sources")
    parser.add_argument("--tables-per-source", type=int, default=10)
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--duration", type=float, default=2.0, help="seconds")
    parser.add_argument("--warmup", type=float, default=0.3, help="seconds")
    parser.add_argument("--chaos", action="store_true",
                        help="inject seeded transient faults and enable the "
                             "resilience policy (retries + per-source breakers)")
    parser.add_argument("--profile", action="store_true",
                        help="record per-stage latency histograms during the "
                             "measured run, print the breakdown and write "
                             "BENCH_profile.json")
    parser.add_argument("--profile-output", default="BENCH_profile.json",
                        help="where --profile writes its JSON report")
    parser.add_argument("--profile-sample-every", type=int, default=1,
                        help="stage-sampling stride under --profile (1 = exact "
                             "histograms; 8 = production-style 1-in-8 sampling)")
    parser.add_argument("--skew", choices=("uniform", "zipfian"), default="uniform",
                        help="point/update key distribution (sysbench --rand-type); "
                             "zipfian skews toward low ids to create hot shards")
    parser.add_argument("--no-workload-analytics", action="store_true",
                        help="disable the workload-intelligence layer (digests, "
                             "heat maps, hot keys, SLO tracking) for overhead "
                             "comparisons")
    parser.add_argument("--no-pipeline", action="store_true",
                        help="disable fused statement pipelining in the TPC-C "
                             "transactions (serial statement-at-a-time path)")
    parser.add_argument("--replicas", type=int, default=0,
                        help="read replicas per data source (engine systems); "
                             "reads split off to replicas via lag-aware "
                             "load balancing")
    parser.add_argument("--replication-lag-ms", type=float, default=0.0,
                        help="simulated async replication lag per replica "
                             "(jittered ±25%%); read-your-writes still holds "
                             "via causal session tokens")
    parser.add_argument("--no-result-cache", action="store_true",
                        help="disable the engine result cache (on by default "
                             "for engine systems) for ablations")
    parser.add_argument("--proxy", action="store_true",
                        help="run the proxy-reactor concurrency benchmark "
                             "instead of a workload: N concurrent sessions "
                             "on a bounded server thread pool, with a "
                             "read-your-writes check per operation")
    parser.add_argument("--connections", type=int, default=200,
                        help="concurrently-open proxy sessions (--proxy)")
    parser.add_argument("--proxy-output", default="BENCH_proxy.json",
                        help="where --proxy writes its JSON report")
    return parser


def enable_chaos(system):
    """Wire a seeded FaultInjector + ResiliencePolicy into a sharding system.

    Returns the injector, or None when the system has no runtime to wire
    (single-node baselines run without fault injection).
    """
    runtime = getattr(system, "runtime", None)
    if runtime is None:
        print(f"warning: --chaos ignored: {system.name} has no sharding runtime",
              file=sys.stderr)
        return None
    from repro.engine import ResiliencePolicy
    from repro.storage import FaultInjector

    injector = FaultInjector(seed=CHAOS_SEED)
    for name, source in runtime.data_sources.items():
        injector.configure(
            name,
            transient_rate=CHAOS_TRANSIENT_RATE,
            latency_rate=0.005,
            latency_spike=0.002,
        )
        source.set_fault_injector(injector)
    runtime.engine.executor.enable_resilience(
        ResiliencePolicy(max_retries=4, retry_writes=True, seed=CHAOS_SEED)
    )
    return injector


def enable_profile(system, args: argparse.Namespace):
    """Attach a fresh Observability to the system's runtime (post-prepare).

    A new registry means the stage histograms cover only the measured run,
    not data loading. Returns the Observability, or None when the system
    has no sharding runtime to instrument.
    """
    runtime = getattr(system, "runtime", None)
    if runtime is None:
        print(f"warning: --profile ignored: {system.name} has no sharding runtime",
              file=sys.stderr)
        return None
    from repro.observability import Observability

    observability = Observability()
    observability.stage_sample_every = max(1, args.profile_sample_every)
    runtime.observability = observability
    runtime.engine.attach_observability(observability)
    return observability


def apply_workload_analytics(system, args: argparse.Namespace) -> None:
    """Honor --no-workload-analytics on whatever Observability is live.

    Called after enable_profile so the toggle survives the profile's
    registry swap.
    """
    runtime = getattr(system, "runtime", None)
    observability = getattr(runtime, "observability", None)
    if observability is None:
        if args.no_workload_analytics:
            print(f"warning: --no-workload-analytics ignored: {system.name} "
                  "has no sharding runtime", file=sys.stderr)
        return
    observability.workload.enabled = not args.no_workload_analytics


def _engine(system):
    """The system's SQL engine, or None for systems without one."""
    return getattr(getattr(system, "runtime", None), "engine", None)


def _plan_cache_stats(system):
    """Current plan-cache counters, or None for systems without the engine."""
    engine = _engine(system)
    return engine.plan_cache.stats() if engine is not None else None


def _result_cache_stats(system):
    """Current result-cache counters, or None for systems without the engine."""
    engine = _engine(system)
    return engine.result_cache.stats() if engine is not None else None


def _storage_plan_stats(system):
    """Storage plan-cache counters summed across data sources, or None."""
    sources = getattr(getattr(system, "runtime", None), "data_sources", None)
    if not sources:
        return None
    total = dict.fromkeys(("size", "capacity", *CacheStats.COUNTERS), 0)
    for source in sources.values():
        stats = source.database.plan_cache.stats()
        for key in total:
            total[key] += stats[key]
    return total


def _cache_report(title: str, after: dict, before: dict | None, keys: tuple[str, ...],
                  shown: tuple[str, ...], size_key: str = "size") -> dict:
    """One cache's counters over the run (``after`` minus ``before``): print
    its line and return its payload entry."""
    before = before or {}
    delta = {key: after[key] - before.get(key, 0) for key in keys}
    rate = hit_rate(delta["hits"], delta["misses"], delta.get("bypasses", 0))
    counts = "".join(f"{key}={delta[key]}, " for key in shown)
    print(f"{title}: hit rate {rate:.1%} ({counts}{size_key}={after[size_key]})")
    return {**delta, size_key: after[size_key], "capacity": after["capacity"],
            "hit_rate": round(rate, 4)}


def print_profile_report(system, observability, measurement, args,
                         plan_before=None, storage_before=None,
                         result_cache_before=None) -> None:
    profile = observability.stage_profile()
    rows = [
        (stage, int(stats["count"]), round(stats["avg"] * 1000, 3),
         round(stats["p50"] * 1000, 3), round(stats["p95"] * 1000, 3),
         round(stats["p99"] * 1000, 3))
        for stage, stats in profile.items()
    ]
    print(format_table(
        ["Stage", "Count", "Avg(ms)", "p50(ms)", "p95(ms)", "p99(ms)"], rows
    ))
    sources = {
        labels.get("source", "-"): value
        for labels, value in observability.registry.get("storage_queries_total").samples()
    }
    payload = {
        "system": measurement.system,
        "scenario": measurement.scenario,
        "transactions": measurement.transactions,
        "errors": measurement.errors,
        "tps": round(measurement.tps, 2),
        "avg_ms": round(measurement.avg_ms, 3),
        "p99_ms": round(measurement.p99_ms, 3),
        "stages": profile,
        "per_source_queries": sources,
    }
    plan_after = _plan_cache_stats(system)
    if plan_after is not None:
        # Delta vs the pre-run snapshot so prepare-phase compiles/bypasses
        # (bulk INSERTs) don't dilute the measured hit rate.
        payload["plan_cache"] = _cache_report(
            "plan cache", plan_after, plan_before, CacheStats.COUNTERS,
            ("hits", "misses", "bypasses"))
    storage_after = _storage_plan_stats(system)
    if storage_after is not None:
        payload["storage_plan_cache"] = _cache_report(
            "storage plan cache", storage_after, storage_before, CacheStats.COUNTERS,
            ("hits", "misses", "bypasses", "invalidations"))
    cache_after = _result_cache_stats(system)
    if cache_after is not None and cache_after["enabled"]:
        payload["result_cache"] = _cache_report(
            "result cache", cache_after, result_cache_before,
            ("hits", "misses", "stores", "evictions", "invalidations", "causal_bypasses"),
            ("hits", "misses", "stores", "invalidations", "causal_bypasses"), "entries")
    groups = getattr(system, "replica_groups", None)
    if groups:
        payload["replication"] = {
            "lag": [row for group in groups for row in group.lag_report()],
            "promotions": [
                {
                    "group": event.group,
                    "old_primary": event.old_primary,
                    "new_primary": event.new_primary,
                    "lsn": event.lsn,
                }
                for group in groups for event in group.promotions
            ],
        }
        total_lag = sum(
            row["lag_records"] for row in payload["replication"]["lag"]
        )
        print(
            f"replication: {len(groups)} group(s), "
            f"{sum(len(g.states) for g in groups)} replica(s), "
            f"{total_lag} unapplied record(s), "
            f"{len(payload['replication']['promotions'])} promotion(s)"
        )
    workload = getattr(observability, "workload", None)
    if workload is not None and workload.enabled:
        digests = workload.digest_report(limit=10)
        heat = workload.heat_report()
        skew = workload.table_skew()
        hot_keys = workload.hot_key_report(limit=10)
        payload["digests"] = digests
        payload["shard_heat"] = {"nodes": heat, "tables": skew}
        payload["hot_keys"] = hot_keys
        payload["slo"] = {
            "objectives": workload.slo_report(),
            "alerts": workload.alert_report(),
        }
        if digests:
            top = digests[0]
            print(
                f"workload: {len(digests)} digest(s); top by time: "
                f"{top['sql'][:60]!r} calls={top['calls']} "
                f"avg={top['avg_ms']}ms p95={top['p95_ms']}ms"
            )
        for table, info in skew.items():
            print(
                f"workload: table {table} imbalance {info['imbalance']}x "
                f"across {info['nodes']} node(s), hottest {info['hottest']}"
            )
        if hot_keys:
            head = hot_keys[0]
            print(
                f"workload: hottest key {head['table']}.{head['column']}="
                f"{head['key']} (count {head['count']}, "
                f"share {head['share']:.1%})"
            )
    with open(args.profile_output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"profile written to {args.profile_output}")


def print_chaos_report(system, injector) -> None:
    metrics = system.runtime.engine.executor.metrics.snapshot()
    print("chaos: injected =", dict(injector.snapshot()))
    print("chaos: absorbed = "
          + ", ".join(f"{key}={metrics[key]}" for key in
                      ("retries", "reroutes", "timeouts", "giveups",
                       "degraded_statements", "breaker_rejections")))


def build_system(args: argparse.Namespace, tables, broadcast=()):
    grid = dict(
        num_sources=args.sources,
        tables_per_source=args.tables_per_source,
        latency=BENCH_LATENCY,
    )
    if args.workload == "sysbench":
        grid.update(layout="range", key_space=args.table_size + 1)
    engine_grid = dict(
        grid,
        replicas=args.replicas,
        replication_lag=args.replication_lag_ms / 1000.0,
        replication_jitter=0.25 if args.replication_lag_ms else 0.0,
        result_cache=not args.no_result_cache,
    )
    if args.replicas and args.system not in ("ssj", "ssp"):
        print(f"warning: --replicas ignored: {args.system} has no replica groups",
              file=sys.stderr)
    if args.system == "ssj":
        return ShardingJDBCSystem(
            tables, broadcast_tables=broadcast, name="SSJ", **engine_grid,
        )
    if args.system == "ssp":
        return ShardingProxySystem(
            tables, broadcast_tables=broadcast, name="SSP", **engine_grid,
        )
    if args.system == "middleware":
        return MiddlewareSystem(tables, broadcast_tables=broadcast, name="Vitess-like", **grid)
    if args.system == "newsql":
        return NewSQLSystem(tables, broadcast_tables=broadcast, name="TiDB-like", **grid)
    if args.system == "ms":
        return SingleNodeSystem("MS", latency=BENCH_LATENCY)
    if args.system == "aurora":
        return AuroraLikeSystem(latency=BENCH_LATENCY, name="Aurora-like")
    raise SystemExit(f"unknown system {args.system!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.proxy:
        from .proxy import run_proxy_bench

        return run_proxy_bench(args)

    if args.workload == "sysbench":
        workload = SysbenchWorkload(SysbenchConfig(
            table_size=args.table_size,
            key_distribution=args.skew,
        ))
        system = build_system(args, [("sbtest", "id")])
        print(f"preparing {args.system} with {args.table_size} rows ...", file=sys.stderr)
        workload.prepare(system)
        if hasattr(system, "sync_replicas"):
            system.sync_replicas()
        injector = enable_chaos(system) if args.chaos else None
        observability = enable_profile(system, args) if args.profile else None
        apply_workload_analytics(system, args)
        plan_before = _plan_cache_stats(system) if args.profile else None
        storage_before = _storage_plan_stats(system) if args.profile else None
        cache_before = _result_cache_stats(system) if args.profile else None
        try:
            measurement = run_benchmark(
                system,
                lambda session, rng: workload.run_transaction(args.scenario, session, rng),
                scenario=args.scenario, threads=args.threads,
                duration=args.duration, warmup=args.warmup,
            )
        finally:
            system.close()
        print(format_table(["System", "TPS", "99T(ms)", "AvgT(ms)"], [sysbench_row(measurement)]))
        print(f"({measurement.transactions} transactions, {measurement.errors} errors, "
              f"scenario={args.scenario}, threads={args.threads})")
        if injector is not None:
            print_chaos_report(system, injector)
        if observability is not None:
            print_profile_report(system, observability, measurement, args,
                                 plan_before, storage_before, cache_before)
        return 0

    workload = TPCCWorkload(TPCCConfig(use_pipeline=not args.no_pipeline))
    system = build_system(
        args, TPCC_SHARDED_TABLES, broadcast=TPCC_BROADCAST_TABLES
    ) if args.system not in ("ms", "aurora") else build_system(args, [])
    print(f"preparing TPC-C with {workload.config.warehouses} warehouses ...", file=sys.stderr)
    workload.prepare(system)
    if hasattr(system, "sync_replicas"):
        system.sync_replicas()
    injector = enable_chaos(system) if args.chaos else None
    observability = enable_profile(system, args) if args.profile else None
    apply_workload_analytics(system, args)
    plan_before = _plan_cache_stats(system) if args.profile else None
    storage_before = _storage_plan_stats(system) if args.profile else None
    cache_before = _result_cache_stats(system) if args.profile else None
    try:
        measurement = run_benchmark(
            system,
            lambda session, rng: workload.run_transaction(
                workload.pick_transaction(rng), session, rng
            ),
            scenario="tpcc", threads=args.threads,
            duration=args.duration, warmup=args.warmup,
        )
    finally:
        system.close()
    print(format_table(["System", "TPS", "90T(ms)"], [tpcc_row(measurement)]))
    print(f"({measurement.transactions} transactions, {measurement.errors} errors, "
          f"threads={args.threads})")
    if injector is not None:
        print_chaos_report(system, injector)
    if observability is not None:
        print_profile_report(system, observability, measurement, args,
                             plan_before, storage_before, cache_before)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
