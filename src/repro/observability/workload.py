"""Workload intelligence: statement digests, shard heat, hot keys, SLOs.

The base observability suite (tracing, metrics, slow log) answers "how is
the system doing"; this module answers "what is the workload doing to it":

- **Statement digests** — SQL normalized to a fingerprint (literals
  become ``?``), with a bounded per-digest stats table in the style of
  ``pg_stat_statements``: calls, errors, rows, a latency histogram, route
  fanout, plan/storage-plan cache hit rates, and the slowest trace kept
  as an exemplar for drill-down.
- **Shard heat maps** — reads/writes/rows plus simulated and wall time
  accounted per data node (data source + actual table) and rolled up per
  logical table, with a max/mean imbalance ratio that flags skew.
- **Hot keys** — a space-saving (Misra–Gries) top-K sketch per
  (table, sharding column) over routed shard-key values. The sketch
  over-counts by at most ``error`` per entry, so ``count - error`` is a
  lower bound and any key with a true share above ``1/capacity`` of the
  stream is guaranteed to be in the table.
- **SLO tracking** — per-route-type latency objectives with error-budget
  burn accounting and a bounded alert ring.

Recording piggybacks on the engine's weighted 1-in-N statement sampling
(``Observability.weights``): ``Observability.on_statement`` hands a
sampled statement over once with its sample weight, unsampled statements
pay nothing, and a disabled tracker (``enabled = False`` /
``SET VARIABLE workload_analytics = off``) costs one attribute check per
sampled statement. Counts are therefore *estimates* of
the full population, exact while sampling is exact (warmup, ``--profile``).
"""

from __future__ import annotations

import hashlib
import re
import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..cache import LruCache
from ..engine.router import shard_key_values
from ..sql import normalize
from .metrics import DEFAULT_LATENCY_BUCKETS, SampleFamily, _HistogramChild

if TYPE_CHECKING:
    from ..engine.context import StatementContext
    from ..engine.rewriter import ExecutionUnit
    from .trace import Trace

__all__ = [
    "WorkloadIntelligence",
    "DigestTable",
    "ShardHeatMap",
    "SpaceSaving",
    "SLOTracker",
    "SLObjective",
    "normalize_sql",
    "digest_of",
]


# ---------------------------------------------------------------------------
# Digest normalization
# ---------------------------------------------------------------------------

_WS_RE = re.compile(r"\s+")
#: (?, ?, ?) -> (?): IN lists and VALUES rows of any arity share a digest
_PLACEHOLDER_LIST_RE = re.compile(r"\(\s*\?\s*(?:,\s*\?\s*)+\)")
#: (?), (?), (?) -> (?): multi-row INSERT batches of any size share a digest
_ROW_RUN_RE = re.compile(r"\(\?\)(?:\s*,\s*\(\?\))+")


def normalize_sql(sql: str) -> str:
    """Collapse one SQL text to its digest form (literals -> ``?``)."""
    text = normalize(sql.strip().rstrip(";").strip(), every=True)[0]
    text = _WS_RE.sub(" ", text)
    text = _PLACEHOLDER_LIST_RE.sub("(?)", text)
    text = _ROW_RUN_RE.sub("(?)", text)
    return text


def digest_of(sql: str) -> tuple[str, str]:
    """(digest id, normalized text) for one SQL text (case-insensitive id)."""
    normalized = normalize_sql(sql)
    digest = hashlib.sha1(normalized.lower().encode("utf-8")).hexdigest()[:12]
    return digest, normalized


# ---------------------------------------------------------------------------
# Statement digests (pg_stat_statements style)
# ---------------------------------------------------------------------------


class DigestStats:
    """Accumulated statistics for one statement fingerprint."""

    __slots__ = (
        "digest", "text", "calls", "errors", "rows", "latency",
        "fanout_sum", "fanout_max", "plan_hits",
        "storage_units", "storage_hits",
        "route_types", "exemplar", "exemplar_wall", "last_seen",
    )

    def __init__(self, digest: str, text: str):
        self.digest = digest
        self.text = text
        self.calls = 0.0
        self.errors = 0.0
        self.rows = 0.0
        #: timed calls only: an error is counted in ``calls`` untimed
        self.latency = _HistogramChild(DEFAULT_LATENCY_BUCKETS)
        self.fanout_sum = 0.0
        self.fanout_max = 0
        self.plan_hits = 0.0
        self.storage_units = 0.0
        self.storage_hits = 0.0
        self.route_types: dict[str, float] = {}
        self.exemplar: "Trace | None" = None
        self.exemplar_wall = 0.0
        self.last_seen = 0

    def observe(self, seconds: float, weight: float, fanout: int,
                route_type: str, plan_hit: bool,
                storage_units: int, storage_hits: int) -> None:
        self.calls += weight
        self.latency.observe(seconds, weight)
        self.fanout_sum += fanout * weight
        if fanout > self.fanout_max:
            self.fanout_max = fanout
        if plan_hit:
            self.plan_hits += weight
        self.storage_units += storage_units * weight
        self.storage_hits += storage_hits * weight
        if route_type:
            self.route_types[route_type] = self.route_types.get(route_type, 0.0) + weight


class DigestTable:
    """Bounded digest -> stats map; overflows evict the least-recently-seen."""

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("digest table capacity must be >= 1")
        self.capacity = capacity
        self.entries: dict[str, DigestStats] = {}
        self.evicted = 0
        self._stamp = 0

    def touch(self, digest: str, text: str) -> DigestStats:
        stats = self.entries.get(digest)
        if stats is None:
            if len(self.entries) >= self.capacity:
                victim = min(self.entries.values(), key=lambda s: s.last_seen)
                del self.entries[victim.digest]
                self.evicted += 1
            stats = self.entries[digest] = DigestStats(digest, text)
        self._stamp += 1
        stats.last_seen = self._stamp
        return stats

    def clear(self) -> None:
        self.entries.clear()
        self.evicted = 0


# ---------------------------------------------------------------------------
# Shard heat map
# ---------------------------------------------------------------------------


class NodeHeat:
    """Accumulated load for one data node (source + actual table)."""

    __slots__ = ("logic_table", "data_source", "table",
                 "reads", "writes", "rows", "wall", "simulated")

    def __init__(self, logic_table: str, data_source: str, table: str):
        self.logic_table = logic_table
        self.data_source = data_source
        self.table = table
        self.reads = 0.0
        self.writes = 0.0
        self.rows = 0.0
        self.wall = 0.0
        self.simulated = 0.0

    @property
    def statements(self) -> float:
        return self.reads + self.writes


class ShardHeatMap:
    """Per-node load accounting with per-logical-table skew rollups."""

    def __init__(self) -> None:
        self.nodes: dict[tuple[str, str, str], NodeHeat] = {}

    def node(self, key: tuple[str, str, str]) -> NodeHeat:
        heat = self.nodes.get(key)
        if heat is None:
            source, logic, actual = key
            heat = self.nodes[key] = NodeHeat(logic, source, actual)
        return heat

    def table_skew(self) -> dict[str, dict[str, Any]]:
        """Per logical table: max/mean statement imbalance + hottest node."""
        by_table: dict[str, list[NodeHeat]] = {}
        for heat in self.nodes.values():
            by_table.setdefault(heat.logic_table, []).append(heat)
        skew: dict[str, dict[str, Any]] = {}
        for table, heats in sorted(by_table.items()):
            loads = [h.statements for h in heats]
            total = sum(loads)
            mean = total / len(loads) if loads else 0.0
            hottest = max(heats, key=lambda h: h.statements)
            skew[table] = {
                "nodes": len(heats),
                "statements": round(total, 1),
                "imbalance": round(max(loads) / mean, 3) if mean > 0 else 0.0,
                "hottest": f"{hottest.data_source}.{hottest.table}",
            }
        return skew

    def clear(self) -> None:
        self.nodes.clear()


# ---------------------------------------------------------------------------
# Hot keys: space-saving (Misra–Gries) top-K sketch
# ---------------------------------------------------------------------------


class SpaceSaving:
    """Space-saving sketch: top-K heavy hitters in O(capacity) memory.

    Each monitored key holds ``(count, error)``: ``count`` never
    undercounts the true frequency and overcounts by at most ``error``
    (the evicted minimum it inherited), so ``count - error`` is a certain
    lower bound. Any key whose true share exceeds ``1/capacity`` of the
    stream weight is guaranteed to be monitored.
    """

    __slots__ = ("capacity", "counts", "errors", "total")

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("sketch capacity must be >= 1")
        self.capacity = capacity
        #: key -> estimated count, and key -> the error it inherited; two
        #: parallel dicts so that eviction is one C-level ``min`` over
        #: ``counts`` (the victim is the first minimum in insertion order)
        self.counts: dict[Any, float] = {}
        self.errors: dict[Any, float] = {}
        self.total = 0.0

    def offer(self, key: Any, weight: float = 1.0) -> None:
        self.total += weight
        counts = self.counts
        count = counts.get(key)
        if count is not None:
            counts[key] = count + weight
            return
        if len(counts) < self.capacity:
            counts[key] = weight
            self.errors[key] = 0.0
            return
        victim = min(counts, key=counts.__getitem__)
        floor = counts.pop(victim)
        del self.errors[victim]
        counts[key] = floor + weight
        self.errors[key] = floor

    def top(self, limit: int | None = None) -> list[tuple[Any, float, float]]:
        """(key, estimated count, max error) ordered hottest-first."""
        errors = self.errors
        ranked = sorted(
            ((key, count, errors[key]) for key, count in self.counts.items()),
            key=lambda item: item[1], reverse=True,
        )
        return ranked[:limit] if limit is not None else ranked


# ---------------------------------------------------------------------------
# SLO tracking
# ---------------------------------------------------------------------------


class SLObjective:
    """A latency objective: fraction ``target`` under ``threshold`` seconds."""

    __slots__ = ("route_type", "threshold", "target")

    def __init__(self, route_type: str, threshold: float, target: float):
        if not 0.0 < target < 1.0:
            raise ValueError("SLO target must be a fraction in (0, 1)")
        self.route_type = route_type
        self.threshold = threshold
        self.target = target


#: single-shard traffic is held to a tight objective; scatter-gather and
#: federation pay their fan-out, so their objectives are looser
DEFAULT_OBJECTIVES: tuple[SLObjective, ...] = (
    SLObjective("standard", 0.005, 0.999),
    SLObjective("unicast", 0.005, 0.999),
    SLObjective("broadcast", 0.050, 0.99),
    SLObjective("cartesian", 0.100, 0.99),
    SLObjective("federation", 0.250, 0.99),
    SLObjective("*", 0.250, 0.99),
)


class _RouteSLO:
    __slots__ = ("objective", "statements", "breaches", "alerting")

    def __init__(self, objective: SLObjective):
        self.objective = objective
        self.statements = 0.0
        self.breaches = 0.0
        self.alerting = False

    @property
    def burn_rate(self) -> float:
        """Error-budget burn: bad fraction / allowed bad fraction (>1 = burning)."""
        if self.statements <= 0:
            return 0.0
        budget = 1.0 - self.objective.target
        return (self.breaches / self.statements) / budget


class SLOTracker:
    """Per-route-type objectives + burn accounting + alert ring buffer."""

    #: weighted statements required before burn can raise an alert
    min_statements = 100.0

    def __init__(self, objectives: Sequence[SLObjective] = DEFAULT_OBJECTIVES,
                 alert_capacity: int = 64):
        self._objectives = {o.route_type: o for o in objectives}
        if "*" not in self._objectives:
            self._objectives["*"] = SLObjective("*", 0.25, 0.99)
        self.routes: dict[str, _RouteSLO] = {}
        self.alerts: deque[dict[str, Any]] = deque(maxlen=alert_capacity)
        self.alerts_total = 0
        self._alert_seq = 0

    def route(self, route_type: str) -> _RouteSLO:
        slo = self.routes.get(route_type)
        if slo is None:
            objective = self._objectives.get(route_type, self._objectives["*"])
            slo = self.routes[route_type] = _RouteSLO(objective)
        return slo

    def record(self, route_type: str, seconds: float, weight: float) -> None:
        slo = self.route(route_type or "*")
        slo.statements += weight
        if seconds > slo.objective.threshold:
            slo.breaches += weight
        if slo.statements < self.min_statements:
            return
        burn = slo.burn_rate
        if burn > 1.0:
            if not slo.alerting:
                # alert on the crossing, not on every burning statement
                slo.alerting = True
                self._alert_seq += 1
                self.alerts_total += 1
                self.alerts.append({
                    "seq": self._alert_seq,
                    "route_type": route_type or "*",
                    "burn_rate": round(burn, 3),
                    "statements": round(slo.statements, 1),
                    "breaches": round(slo.breaches, 1),
                    "threshold_ms": slo.objective.threshold * 1000.0,
                    "target": slo.objective.target,
                })
        else:
            slo.alerting = False

    def clear(self) -> None:
        self.routes.clear()
        self.alerts.clear()
        self._alert_seq = 0
        self.alerts_total = 0


# ---------------------------------------------------------------------------
# The tracker
# ---------------------------------------------------------------------------


class _HeatSample:
    """Per-statement carrier handed to the executor for unit accounting.

    The executor calls :meth:`unit_done` once per completed execution
    unit with the unit's wall time and cursor; node heat (wall, simulated
    cost, rows when known) and storage-plan hit counters accumulate here.
    """

    __slots__ = ("workload", "weight", "storage_units", "storage_hits",
                 "unknown_rows_key")

    def __init__(self, workload: "WorkloadIntelligence", weight: float):
        self.workload = workload
        self.weight = weight
        self.storage_units = 0
        self.storage_hits = 0
        #: node key of a streaming unit whose row count is only known once
        #: the merged iterator is drained (single-unit point reads)
        self.unknown_rows_key: tuple[str, str, str] | None = None

    def unit_done(self, unit: "ExecutionUnit", wall: float,
                  cursor: Any, rows: int) -> None:
        cost = getattr(cursor, "cost", 0.0) or 0.0
        plan_status = getattr(cursor, "plan", "")
        workload = self.workload
        key = _unit_key(unit)
        weight = self.weight
        with workload._lock:
            node = workload.heat.node(key)
            node.wall += wall * weight
            node.simulated += cost * weight
            if rows >= 0:
                node.rows += rows * weight
            elif self.unknown_rows_key is None:
                self.unknown_rows_key = key
        self.storage_units += 1
        if plan_status == "hit":
            self.storage_hits += 1


def _unit_key(unit: "ExecutionUnit") -> tuple[str, str, str]:
    """(data source, logic table, actual table) for one execution unit.

    The first table-map entry is the routed primary table (binding-join
    companions follow it); units with no table map (DAL, defaults) fall
    into a per-source ``-`` bucket.
    """
    table_map = unit.unit.table_map
    if table_map:
        logic, actual = next(iter(table_map.items()))
        return (unit.data_source, logic, actual)
    return (unit.data_source, "-", "-")


class WorkloadIntelligence:
    """Digests + shard heat + hot keys + SLOs behind one lock.

    All mutation happens on sampled statements only (see module docstring),
    so the single lock sees 1-in-N of the statement rate; views snapshot
    under the same lock.
    """

    def __init__(self, max_digests: int = 512, hot_key_capacity: int = 64,
                 objectives: Sequence[SLObjective] = DEFAULT_OBJECTIVES):
        #: master switch (SET VARIABLE workload_analytics = on|off)
        self.enabled = True
        self._lock = threading.Lock()
        self.digests = DigestTable(max_digests)
        self.heat = ShardHeatMap()
        self.hot_key_capacity = hot_key_capacity
        self.hot_keys: dict[tuple[str, str], SpaceSaving] = {}
        self.slo = SLOTracker(objectives)
        self._digest_cache: LruCache[str, tuple[str, str]] = LruCache(4096)

    # -- recording (engine pipeline/executor) ---------------------------

    def digest_of(self, sql: str) -> tuple[str, str]:
        """Cached (digest id, normalized text), memoised by the engine's
        statement identity: ``context.sql`` is found as it is, the literal
        text of an error or trace record under its shape."""
        cached = self._digest_cache.get(sql)
        if cached is None:
            shape = normalize(sql)[0]
            cached = self._digest_cache.get_or_create(shape, lambda: digest_of(shape))
        return cached

    def record_statement(
        self,
        context: "StatementContext",
        route_type: str,
        units: Sequence["ExecutionUnit"],
        stages: dict[str, float],
        weight: float,
        update_count: int,
        is_query: bool,
        heat_sample: _HeatSample | None = None,
    ) -> Callable[[int], None] | None:
        """Record one sampled statement after execute+merge.

        Returns a row sink for queries — the pipeline wraps the merged
        iterator with it so consumed row counts flow back — or None for
        writes (whose row counts are already exact in ``update_count``).
        """
        digest, text = self.digest_of(context.sql)
        seconds = sum(stages.values())
        plan_hit = "plan_cache_hit" in stages
        shard_keys = shard_key_values(context)
        storage_units = heat_sample.storage_units if heat_sample is not None else 0
        storage_hits = heat_sample.storage_hits if heat_sample is not None else 0
        with self._lock:
            stats = self.digests.touch(digest, text)
            stats.observe(
                seconds, weight, fanout=len(units), route_type=route_type,
                plan_hit=plan_hit, storage_units=storage_units,
                storage_hits=storage_hits,
            )
            if not is_query:
                stats.rows += max(update_count, 0) * weight
            for unit in units:
                node = self.heat.node(_unit_key(unit))
                if is_query:
                    node.reads += weight
                else:
                    node.writes += weight
            for table, column, value in shard_keys:
                sketch_key = (table, column)
                sketch = self.hot_keys.get(sketch_key)
                if sketch is None:
                    sketch = self.hot_keys[sketch_key] = SpaceSaving(self.hot_key_capacity)
                sketch.offer(value, weight)
            self.slo.record(route_type, seconds, weight)
        if not is_query:
            return None
        unknown_key = heat_sample.unknown_rows_key if heat_sample is not None else None

        def row_sink(consumed: int) -> None:
            with self._lock:
                stats.rows += consumed * weight
                if unknown_key is not None:
                    self.heat.node(unknown_key).rows += consumed * weight

        return row_sink

    def record_error(self, sql: str) -> None:
        """Exact per-digest error accounting (errors bypass sampling)."""
        digest, text = self.digest_of(sql)
        with self._lock:
            stats = self.digests.touch(digest, text)
            stats.calls += 1
            stats.errors += 1

    def note_trace(self, trace: "Trace") -> str:
        """Keep the slowest trace per digest as an exemplar; returns the id."""
        digest, text = self.digest_of(trace.name)
        with self._lock:
            stats = self.digests.touch(digest, text)
            if trace.wall >= stats.exemplar_wall:
                stats.exemplar = trace
                stats.exemplar_wall = trace.wall
        return digest

    def reset(self) -> None:
        """Drop all accumulated state (DistSQL ``RESET WORKLOAD``)."""
        with self._lock:
            self.digests.clear()
            self.heat.clear()
            self.hot_keys.clear()
            self.slo.clear()

    # -- views ----------------------------------------------------------

    def digest_report(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Digests ordered by total time, JSON-safe (pg_stat_statements view)."""
        with self._lock:
            entries = sorted(
                self.digests.entries.values(),
                key=lambda s: s.latency.sum, reverse=True,
            )
            if limit is not None:
                entries = entries[:limit]
            report = []
            for s in entries:
                storage_total = s.storage_units
                report.append({
                    "digest": s.digest,
                    "sql": s.text,
                    "calls": round(s.calls, 1),
                    "errors": round(s.errors, 1),
                    "rows": round(s.rows, 1),
                    "total_ms": round(s.latency.sum * 1000, 3),
                    "avg_ms": round(s.latency.sum / s.calls * 1000, 4) if s.calls else 0.0,
                    "p95_ms": round(s.latency.percentile(95) * 1000, 4),
                    "max_ms": round(s.latency.max * 1000, 3),
                    "fanout_avg": round(s.fanout_sum / s.calls, 2) if s.calls else 0.0,
                    "fanout_max": s.fanout_max,
                    "plan_hit_rate": round(s.plan_hits / s.calls, 4) if s.calls else 0.0,
                    "storage_plan_hit_rate": (
                        round(s.storage_hits / storage_total, 4) if storage_total else 0.0
                    ),
                    "route_types": dict(s.route_types),
                    "exemplar_trace_id": (
                        s.exemplar.trace_id if s.exemplar is not None else None
                    ),
                    "exemplar_ms": round(s.exemplar_wall * 1000, 3),
                })
        return report

    def exemplar(self, digest: str) -> "Trace | None":
        with self._lock:
            stats = self.digests.entries.get(digest)
            return stats.exemplar if stats is not None else None

    def heat_report(self) -> list[dict[str, Any]]:
        """Per-node heat, hottest node first, with in-table share."""
        with self._lock:
            nodes = sorted(
                self.heat.nodes.values(),
                key=lambda h: h.statements, reverse=True,
            )
            totals: dict[str, float] = {}
            for h in nodes:
                totals[h.logic_table] = totals.get(h.logic_table, 0.0) + h.statements
            return [
                {
                    "table": h.logic_table,
                    "data_source": h.data_source,
                    "actual_table": h.table,
                    "reads": round(h.reads, 1),
                    "writes": round(h.writes, 1),
                    "rows": round(h.rows, 1),
                    "wall_ms": round(h.wall * 1000, 3),
                    "simulated_ms": round(h.simulated * 1000, 3),
                    "share": (
                        round(h.statements / totals[h.logic_table], 4)
                        if totals[h.logic_table] else 0.0
                    ),
                }
                for h in nodes
            ]

    def table_skew(self) -> dict[str, dict[str, Any]]:
        with self._lock:
            return self.heat.table_skew()

    def hot_key_report(self, table: str = "",
                       limit: int = 10) -> list[dict[str, Any]]:
        """Top-K keys per (table, column) sketch, hottest first."""
        table = table.lower()
        with self._lock:
            report = []
            for (sketch_table, column), sketch in sorted(self.hot_keys.items()):
                if table and sketch_table != table:
                    continue
                for key, count, error in sketch.top(limit):
                    report.append({
                        "table": sketch_table,
                        "column": column,
                        "key": key if isinstance(key, (int, float, str)) else repr(key),
                        "count": round(count, 1),
                        "max_error": round(error, 1),
                        "share": round(count / sketch.total, 4) if sketch.total else 0.0,
                    })
        report.sort(key=lambda r: r["count"], reverse=True)
        return report

    def slo_report(self) -> list[dict[str, Any]]:
        with self._lock:
            return [
                {
                    "route_type": route_type,
                    "threshold_ms": slo.objective.threshold * 1000.0,
                    "target": slo.objective.target,
                    "statements": round(slo.statements, 1),
                    "breaches": round(slo.breaches, 1),
                    "compliance": (
                        round(1.0 - slo.breaches / slo.statements, 5)
                        if slo.statements else 1.0
                    ),
                    "budget_burn": round(slo.burn_rate, 3),
                    "state": "BURNING" if slo.alerting else "OK",
                }
                for route_type, slo in sorted(self.slo.routes.items())
            ]

    def alert_report(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self.slo.alerts)[::-1]

    # -- Prometheus export (pull-time collector) -------------------------

    def families(self) -> Iterable[SampleFamily]:
        """Metrics-registry collector: shard heat, skew, hot keys, SLOs."""
        if not self.enabled and not self.heat.nodes and not self.slo.routes:
            return []
        with self._lock:
            nodes = sorted(self.heat.nodes.values(),
                           key=lambda h: (h.logic_table, h.data_source, h.table))
            skew = self.heat.table_skew()
            hot = [
                ({"table": t, "column": c,
                  "key": str(key) if isinstance(key, (int, float, str)) else repr(key)},
                 float(count))
                for (t, c), sketch in sorted(self.hot_keys.items())
                for key, count, _err in sketch.top(5)
            ]
            slos = sorted(self.slo.routes.items())
            slo_samples = [
                [({"route_type": rt}, getattr(slo, attr)) for rt, slo in slos]
                for attr in ("statements", "breaches", "burn_rate")
            ]
            digest_count = float(len(self.digests.entries))
            digest_evicted = float(self.digests.evicted)
            alerts_total = float(self.slo.alerts_total)

        def node_samples(attr: str) -> list[tuple[dict[str, str], float]]:
            return [
                ({"table": h.logic_table, "source": h.data_source,
                  "node": h.table}, float(getattr(h, attr)))
                for h in nodes
            ]

        families: list[SampleFamily] = [
            ("workload_digests", "gauge", "tracked statement digests",
             [({}, digest_count)]),
            ("workload_digests_evicted_total", "counter",
             "digest-table evictions", [({}, digest_evicted)]),
            ("workload_shard_reads_total", "counter",
             "sampled read statements per data node", node_samples("reads")),
            ("workload_shard_writes_total", "counter",
             "sampled write statements per data node", node_samples("writes")),
            ("workload_shard_rows_total", "counter",
             "rows produced/affected per data node", node_samples("rows")),
            ("workload_shard_wall_seconds_total", "counter",
             "wall seconds per data node", node_samples("wall")),
            ("workload_shard_simulated_seconds_total", "counter",
             "simulated I/O seconds per data node", node_samples("simulated")),
            ("workload_table_imbalance_ratio", "gauge",
             "max/mean statement load across a table's data nodes",
             [({"table": t}, float(info["imbalance"])) for t, info in skew.items()]),
            ("workload_hot_key_count", "gauge",
             "space-saving estimated count for the hottest shard-key values", hot),
            ("workload_slo_statements_total", "counter",
             "statements measured against the route-type SLO", slo_samples[0]),
            ("workload_slo_breaches_total", "counter",
             "statements over the route-type SLO threshold", slo_samples[1]),
            ("workload_slo_burn_rate", "gauge",
             "error-budget burn rate per route type (>1 = burning)", slo_samples[2]),
            ("workload_slo_alerts_total", "counter",
             "SLO burn alerts raised", [({}, alerts_total)]),
        ]
        return families
