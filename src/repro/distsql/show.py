"""The ``SHOW`` forms of DistSQL, declared once.

Each :class:`ShowForm` is one ``SHOW <phrase>`` statement: the words after
``SHOW``, the subject the parser records, the result columns, the row
builder and the outcome message. :func:`repro.distsql.is_distsql` takes the
``SHOW`` words it knows from this table, the parser matches the longest phrase in
it, and the executor runs the matched form; a new ``SHOW`` form is one more
entry here.

A row builder takes ``(runtime, argument)`` and returns a list of tuples,
or a list of report dicts whose keys include the column names (the
executor picks the columns). A message is a string or a function of
``(runtime, rows)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from ..observability.metrics import Histogram, like_to_matcher
from ..sharding import available_algorithms

if TYPE_CHECKING:
    from ..adaptors.runtime import ShardingRuntime

Rows = list[Any]


class ShowForm(NamedTuple):
    phrase: str  # the words after SHOW
    subject: str
    columns: str  # space-separated column names
    rows: Callable[[ShardingRuntime, str], Rows]
    message: str | Callable[[ShardingRuntime, Rows], str] = "OK"
    #: "" (none), "LIKE" / "FOR" (optional ``<word> <value>``) or "NAME"
    #: (a required name)
    argument: str = ""


def _labels_text(labels: dict[str, str]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"


def _metric_rows(runtime: ShardingRuntime, pattern: str) -> Rows:
    """One row per (family, label set); histograms expand to percentiles.

    Counter/gauge rows carry the value; histogram rows carry the
    observation count as value plus avg/p50/p95/p99 (in the metric's base
    unit, i.e. seconds for latency histograms).
    """
    registry = runtime.observability.registry
    matcher = like_to_matcher(pattern)
    rows: Rows = []
    for name, kind, _help, samples in registry.collect():
        if not matcher(name):
            continue
        if kind == "histogram":
            family = registry.get(name)
            if isinstance(family, Histogram):
                for labels in family.label_sets():
                    stats = family.stats(**labels)
                    rows.append(
                        (
                            name,
                            _labels_text(labels),
                            kind,
                            int(stats["count"]),
                            round(stats["avg"], 6),
                            round(stats["p50"], 6),
                            round(stats["p95"], 6),
                            round(stats["p99"], 6),
                        )
                    )
                continue
        for labels, value in samples:
            rows.append((name, _labels_text(labels), kind, value, "", "", "", ""))
    return rows


def _sharding_rules(runtime: ShardingRuntime, _: str) -> Rows:
    return [
        (
            rule.logic_table,
            ", ".join(str(n) for n in rule.data_nodes),
            ", ".join(sorted(rule.sharding_columns)) or "-",
            "auto" if rule.auto else "standard",
        )
        for rule in runtime.rule.table_rules()
    ]


def _failovers(runtime: ShardingRuntime, _: str) -> Rows:
    detector = runtime.health_detector
    events = detector.failover_events if detector is not None else []
    return [(e.group, e.old_primary, e.new_primary, round(e.latency * 1000, 3)) for e in events]


def _traces(runtime: ShardingRuntime, _: str) -> Rows:
    return [
        (
            trace.trace_id,
            trace.name,
            round(trace.wall * 1000, 3),
            round(trace.simulated * 1000, 3),
            len(trace.spans),
            trace.error or "",
        )
        for trace in runtime.observability.tracer.recent()
    ]


def _traces_message(runtime: ShardingRuntime, rows: Rows) -> str:
    if not runtime.observability.tracer.enabled and not rows:
        return "tracing is disabled; SET VARIABLE tracing = on, or use TRACE <sql>"
    return "OK"


def _slow_queries(runtime: ShardingRuntime, _: str) -> Rows:
    return [
        (
            entry.trace_id,
            entry.kind,
            entry.sql,
            round(entry.wall * 1000, 3),
            round(entry.simulated * 1000, 3),
            entry.route_type,
            entry.spans,
            entry.error or "",
        )
        for entry in runtime.observability.slow_log.entries()
    ]


def _slow_queries_message(runtime: ShardingRuntime, rows: Rows) -> str:
    if rows:
        return "OK"
    threshold_ms = runtime.observability.slow_log.threshold * 1000
    return f"no slow queries recorded (threshold {threshold_ms:g}ms; traced statements only)"


def _slow_queries_by_digest(runtime: ShardingRuntime, _: str) -> Rows:
    by_digest: dict[str, list[Any]] = {}
    for entry in runtime.observability.slow_log.entries():
        by_digest.setdefault(entry.digest or "-", []).append(entry)
    rows = []
    for digest, group in by_digest.items():
        walls = [e.wall for e in group]
        route_types = sorted({e.route_type for e in group if e.route_type})
        rows.append((
            digest,
            len(group),
            sum(1 for e in group if e.kind == "slow"),
            round(sum(walls) / len(walls) * 1000, 3),
            round(max(walls) * 1000, 3),
            ", ".join(route_types) or "-",
            group[0].sql,  # entries() is newest-first
        ))
    rows.sort(key=lambda r: r[4], reverse=True)
    return rows


def _plan_cache_message(runtime: ShardingRuntime, _: Rows) -> str:
    plan_cache = runtime.engine.plan_cache
    stats = plan_cache.stats()
    message = plan_cache.summary(stats["size"], stats["capacity"], "plans")
    if not plan_cache.enabled:
        message += "; plan cache is DISABLED (SET VARIABLE plan_cache = on)"
    return message


def _metadata(runtime: ShardingRuntime, _: str) -> Rows:
    snap = runtime.metadata.current()
    return [
        ("version", snap.version),
        ("plan_epoch", snap.plan_epoch),
        ("reason", snap.reason),
        ("data_sources", ", ".join(sorted(snap.data_sources)) or "-"),
        ("sharded_tables", ", ".join(snap.rule.logic_tables()) or "-"),
        ("broadcast_tables", ", ".join(sorted(snap.rule.broadcast_tables)) or "-"),
        ("features", ", ".join(f.name for f in snap.features) or "-"),
        ("plan_cache_safe", snap.plan_cache_safe),
        ("rule_frozen", snap.rule.frozen),
    ]


def _workload_message(runtime: ShardingRuntime, _: Rows) -> str:
    if runtime.observability.workload.enabled:
        return "OK"
    return "workload analytics are OFF (SET VARIABLE workload_analytics = on)"


def _shard_heat(runtime: ShardingRuntime, _: str) -> Rows:
    workload = runtime.observability.workload
    skew = workload.table_skew()
    return [dict(h, imbalance=skew.get(h["table"], {}).get("imbalance", 0.0))
            for h in workload.heat_report()]


def _hot_keys(runtime: ShardingRuntime, table: str) -> Rows:
    return [
        (h["table"], h["column"], h["key"], h["count"], h["max_error"], h["share"])
        for h in runtime.observability.workload.hot_key_report(table=table)
    ]


def _read_resources(runtime: ShardingRuntime, _: str) -> Rows:
    feature = runtime.rwsplit_feature
    if feature is None:
        return []
    return [
        (
            name,
            group.primary,
            ", ".join(group.replicas) or "-",
            type(group.load_balancer).__name__,
            "yes" if group.replication is not None else "no",
        )
        for name, group in sorted(feature.groups.items())
    ]


def _replica_groups(runtime: ShardingRuntime) -> list[Any]:
    groups = {id(s.replica_group): s.replica_group for s in runtime.data_sources.values()
              if s.replica_group is not None}
    return list(groups.values())


def _result_cache_message(runtime: ShardingRuntime, rows: Rows) -> str:
    stats = dict(rows)
    message = runtime.engine.result_cache.summary(
        stats["entries"], stats["capacity"], "entries", "hits", "misses", "invalidations")
    if not stats["enabled"]:
        message += "; result cache is DISABLED (SET VARIABLE result_cache = on)"
    return message


def _sessions(runtime: ShardingRuntime, _: str) -> Rows:
    return [
        (
            info["id"],
            info["kind"],
            info["client"] or "-",
            info["age_s"],
            info["statements"],
            "yes" if info["in_transaction"] else "no",
            "yes" if info["pinned_primary"] else "no",
            info["causal_groups"],
            info["last_sql"] or "-",
        )
        for info in runtime.sessions.rows()
    ]


#: every SHOW form, by subject
SHOW_FORMS: dict[str, ShowForm] = {form.subject: form for form in (
    ShowForm(
        "RESOURCES", "resources", "name dialect database",
        lambda rt, _: [(name, source.dialect.name, source.database.name)
                       for name, source in sorted(rt.data_sources.items())],
    ),
    ShowForm(
        "SHARDING TABLE RULES", "sharding_rules",
        "table actual_data_nodes sharding_column kind", _sharding_rules,
    ),
    ShowForm(
        "SHARDING BINDING TABLE RULES", "binding_rules", "binding_tables",
        lambda rt, _: [(", ".join(sorted(group)),) for group in rt.rule.binding_groups],
    ),
    ShowForm(
        "BROADCAST TABLE RULES", "broadcast_rules", "broadcast_table",
        lambda rt, _: [(t,) for t in sorted(rt.rule.broadcast_tables)],
    ),
    ShowForm(
        "SHARDING ALGORITHMS", "algorithms", "algorithm",
        lambda rt, _: [(a,) for a in available_algorithms()],
    ),
    ShowForm(
        "CIRCUIT BREAKERS", "circuit_breakers", "data_source state failures open_seconds",
        lambda rt, _: (rt.engine.executor.breakers.snapshot_rows()
                       if rt.engine.executor.breakers is not None else []),
        lambda rt, _: ("no resilience policy enabled"
                       if rt.engine.executor.breakers is None else "OK"),
    ),
    # Compatibility alias: same counters as SHOW METRICS LIKE 'executor_%'
    # (the executor's ExecutionMetrics is folded into the registry).
    ShowForm(
        "EXECUTION METRICS", "execution_metrics", "metric value",
        lambda rt, _: sorted(rt.engine.executor.metrics.snapshot().items()),
        "alias of SHOW METRICS LIKE 'executor_%'",
    ),
    ShowForm(
        "FAILOVER EVENTS", "failovers", "group old_primary new_primary failover_ms",
        _failovers,
        lambda rt, _: "no health detector attached" if rt.health_detector is None else "OK",
    ),
    ShowForm(
        "METRICS", "metrics", "metric labels kind value avg p50 p95 p99", _metric_rows,
        argument="LIKE",
    ),
    ShowForm(
        "TRACES", "traces", "trace_id sql wall_ms simulated_ms spans error",
        _traces, _traces_message,
    ),
    ShowForm(
        "SLOW QUERIES", "slow_queries",
        "trace_id kind sql wall_ms simulated_ms route_type spans error",
        _slow_queries, _slow_queries_message,
    ),
    ShowForm(
        "SLOW QUERIES GROUP BY DIGEST", "slow_queries_by_digest",
        "digest entries slow wall_avg_ms wall_max_ms route_types last_sql",
        _slow_queries_by_digest,
    ),
    ShowForm(
        "PLAN CACHE", "plan_cache", "sql hits templates state",
        lambda rt, _: rt.engine.plan_cache.snapshot_rows(), _plan_cache_message,
    ),
    ShowForm(
        "METADATA", "metadata", "field value", _metadata,
        lambda rt, rows: "metadata context v{version} ({reason})".format(**dict(rows)),
    ),
    ShowForm(
        "STATEMENT DIGESTS", "statement_digests",
        "digest calls errors rows avg_ms p95_ms max_ms fanout_avg plan_hit_rate "
        "storage_plan_hit_rate exemplar_ms sql",
        lambda rt, _: rt.observability.workload.digest_report(), _workload_message,
    ),
    ShowForm(
        "SHARD HEAT", "shard_heat",
        "table data_source actual_table reads writes rows wall_ms simulated_ms share "
        "imbalance",
        _shard_heat, _workload_message,
    ),
    ShowForm(
        "HOT KEYS", "hot_keys", "table column key estimated_count max_error share",
        _hot_keys, _workload_message, argument="FOR",
    ),
    ShowForm(
        "SLO", "slo",
        "route_type threshold_ms target statements breaches compliance budget_burn state",
        lambda rt, _: rt.observability.workload.slo_report(), _workload_message,
    ),
    ShowForm(
        "SLO ALERTS", "slo_alerts",
        "seq route_type burn_rate statements breaches threshold_ms",
        lambda rt, _: rt.observability.workload.alert_report(), _workload_message,
    ),
    ShowForm(
        "READ RESOURCES", "read_resources",
        "group primary replicas load_balancer replicated", _read_resources,
        lambda rt, _: ("no read-write splitting rule configured"
                       if rt.rwsplit_feature is None else "OK"),
    ),
    ShowForm(
        "REPLICATION LAG", "replication_lag",
        "group replica applied_lsn last_lsn lag_records staleness_s configured_lag_s",
        lambda rt, _: [entry for group in _replica_groups(rt) for entry in group.lag_report()],
        lambda rt, _: "no replica groups attached" if not _replica_groups(rt) else "OK",
    ),
    ShowForm(
        "RESULT CACHE", "result_cache", "stat value",
        lambda rt, _: sorted(rt.engine.result_cache.stats().items()),
        _result_cache_message,
    ),
    ShowForm(
        "SESSIONS", "sessions",
        "id kind client age_s statements in_transaction pinned_primary causal_groups "
        "last_sql",
        _sessions, lambda rt, rows: f"{len(rows)} session(s)",
    ),
    ShowForm(
        "VARIABLE", "variable", "variable value",
        lambda rt, name: [(name.lower(), rt.variable(name))], argument="NAME",
    ),
)}
