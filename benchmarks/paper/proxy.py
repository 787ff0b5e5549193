"""Proxy concurrency benchmark: ``python -m paper --proxy``.

Measures the session-multiplexing reactor front-end the way the paper's
Fig. 14 measures ShardingSphere-Proxy — but the quantity under test here
is *session scalability*, not raw TPS: N concurrently-open client
sessions are served by a fixed ``1 + workers`` server threads, and every
session must keep read-your-writes through lagging replicas because its
causal tokens travel with the session, not with any OS thread.

Each measured operation is a write/read pair on the session's own key:
an UPDATE through the proxy followed by a SELECT that must observe it
(the replicas lag far behind, so a violation means session state leaked
between sessions or got lost between pool workers). The emitted
``BENCH_proxy.json`` records throughput, latency percentiles, the
server's thread budget, and its backpressure counters.
"""

from __future__ import annotations

import json
import sys
import threading
from typing import Any

from repro import clock
from repro.adaptors import ShardingProxyServer, ShardingRuntime
from repro.distsql import execute_distsql
from repro.exceptions import ServerBusyError, ShardingSphereError
from repro.protocol import ProxyClient
from repro.storage import DataSource, LatencyModel, ReplicaGroup

BENCH_TABLE = "t_bench"


def _percentile(sorted_values: list[float], p: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(p * (len(sorted_values) - 1)))
    return sorted_values[index]


def build_proxy_runtime(shards: int, replicas: int, lag: float,
                        connections: int,
                        latency: LatencyModel | None = None) -> ShardingRuntime:
    """A replicated, sharded runtime seeded with one row per session."""
    latency = latency if latency is not None else LatencyModel.off()
    sources: dict[str, DataSource] = {}
    groups: list[ReplicaGroup] = []
    for i in range(shards):
        primary = DataSource(f"ds{i}", latency=latency)
        sources[f"ds{i}"] = primary
        group = ReplicaGroup(primary, seed=i)
        for r in range(replicas):
            replica = DataSource(f"ds{i}_r{r}", latency=latency)
            sources[f"ds{i}_r{r}"] = replica
            group.add_replica(replica, lag=lag)
        groups.append(group)
    runtime = ShardingRuntime(sources)
    resources = ", ".join(f"ds{i}" for i in range(shards))
    execute_distsql(
        f"CREATE SHARDING TABLE RULE {BENCH_TABLE} (RESOURCES({resources}), "
        f"SHARDING_COLUMN=uid, TYPE=hash_mod, "
        f"PROPERTIES('sharding-count'={shards}))",
        runtime,
    )
    runtime.engine.execute(
        f"CREATE TABLE {BENCH_TABLE} (uid INT PRIMARY KEY, v INT)")
    for uid in range(connections):
        runtime.engine.execute(
            f"INSERT INTO {BENCH_TABLE} (uid, v) VALUES ({uid}, 0)")
    if replicas:
        for i in range(shards):
            runtime.apply_rule("readwrite_splitting", f"ds{i}", {
                "source": f"ds{i}", "primary": f"ds{i}",
                "replicas": [f"ds{i}_r{r}" for r in range(replicas)]})
        for group in groups:
            group.sync()
    return runtime


class _Driver:
    """One driver thread pumping a fixed slice of the open sessions."""

    def __init__(self, clients: list[tuple[int, ProxyClient]], deadline: float):
        self.clients = clients
        self.deadline = deadline
        self.ops = 0
        self.errors = 0
        self.busy = 0
        self.violations = 0
        self.latencies: list[float] = []
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        round_no = 0
        while clock.now() < self.deadline:
            round_no += 1
            for uid, client in self.clients:
                if clock.now() >= self.deadline:
                    break
                started = clock.now()
                try:
                    client.execute(
                        f"UPDATE {BENCH_TABLE} SET v = {round_no} "
                        f"WHERE uid = {uid}")
                    rows = client.execute(
                        f"SELECT v FROM {BENCH_TABLE} WHERE uid = {uid}"
                    ).fetchall()
                except ServerBusyError:
                    self.busy += 1
                    continue
                except ShardingSphereError:
                    self.errors += 1
                    continue
                self.latencies.append(clock.now() - started)
                self.ops += 1
                if rows != [(round_no,)]:
                    self.violations += 1


def run_proxy_bench(args: Any) -> int:
    connections = args.connections
    shards = args.sources
    replicas = args.replicas if args.replicas else 1
    lag = (args.replication_lag_ms / 1000.0) if args.replication_lag_ms else 30.0
    print(f"preparing proxy bench: {shards} shard(s) x {replicas} replica(s), "
          f"lag {lag:g}s, {connections} session(s) ...", file=sys.stderr)
    runtime = build_proxy_runtime(shards, replicas, lag, connections)
    server = ShardingProxyServer(runtime).start()
    clients: list[ProxyClient] = []
    try:
        connect_started = clock.now()
        for _ in range(connections):
            clients.append(ProxyClient("127.0.0.1", server.port))
        connect_s = clock.now() - connect_started
        server_threads = sum(
            1 for t in threading.enumerate()
            if t.is_alive() and t.name.startswith("ss-proxy"))

        deadline = clock.now() + args.duration
        numbered = list(enumerate(clients))
        drivers = [
            _Driver(numbered[i::args.threads], deadline)
            for i in range(args.threads)
        ]
        for driver in drivers:
            driver.thread.start()
        for driver in drivers:
            driver.thread.join(timeout=args.duration + 60)

        ops = sum(d.ops for d in drivers)
        latencies = sorted(x for d in drivers for x in d.latencies)
        stats = server.stats()
        payload = {
            "benchmark": "proxy-reactor",
            "connections": connections,
            "driver_threads": args.threads,
            "duration_s": args.duration,
            "shards": shards,
            "replicas_per_shard": replicas,
            "replication_lag_s": lag,
            "connect_s": round(connect_s, 4),
            "connects_per_s": round(connections / connect_s, 1) if connect_s else None,
            "ops": ops,
            "ops_per_s": round(ops / args.duration, 2),
            "errors": sum(d.errors for d in drivers),
            "busy_rejections_seen": sum(d.busy for d in drivers),
            "read_your_writes_violations": sum(d.violations for d in drivers),
            "avg_ms": round(sum(latencies) / len(latencies) * 1000, 3) if latencies else 0.0,
            "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
            "p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
            "server_threads": server_threads,
            "workers": server.workers,
            "server": stats,
        }
    finally:
        for client in clients:
            try:
                client.close()
            except Exception:
                pass
        server.stop()
        runtime.close()

    print(f"proxy: {payload['ops']} op(s) in {args.duration:g}s "
          f"({payload['ops_per_s']} op/s) over {connections} session(s) on "
          f"{payload['server_threads']} server thread(s); "
          f"avg {payload['avg_ms']}ms p99 {payload['p99_ms']}ms")
    print(f"proxy: errors={payload['errors']} "
          f"busy={payload['busy_rejections_seen']} "
          f"read_your_writes_violations={payload['read_your_writes_violations']}")
    with open(args.proxy_output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"proxy report written to {args.proxy_output}")
    if payload["read_your_writes_violations"] or payload["errors"]:
        return 1
    return 0
