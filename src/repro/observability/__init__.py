"""Observability: tracing, metrics and slow-query analytics (plugin-style).

The paper's pluggable architecture is what lets real ShardingSphere ship
its observability Agent as an add-on; this package is that agent for the
reproduction. One :class:`Observability` object bundles the three parts:

- :class:`~repro.observability.trace.Tracer` — one root span per logical
  statement, child spans per pipeline stage and per execution unit,
  simulated vs. wall time separated (``TRACE <sql>``, ``SHOW TRACES``);
- :class:`~repro.observability.metrics.MetricsRegistry` — counters,
  gauges and fixed-bucket histograms with p50/p95/p99, plus a Prometheus
  text exporter (``SHOW METRICS``, ``registry.render_prometheus()``);
- :class:`~repro.observability.slowlog.SlowQueryLog` — ring buffer of
  completed traces over a threshold plus sampled normal traffic
  (``SHOW SLOW QUERIES``).

Everything is zero-cost when disabled: an engine without an Observability
attached takes none of these code paths, and with one attached the tracer
adds no spans until ``tracer.enabled`` (or a one-shot ``TRACE``) flips on.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Mapping

from .metrics import (
    DEFAULT_FANOUT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    like_to_matcher,
)
from .slowlog import SlowQueryEntry, SlowQueryLog
from .trace import Span, Trace, Tracer
from .workload import WorkloadIntelligence

if TYPE_CHECKING:
    from ..storage.pool import ConnectionPool

#: pipeline stages in execution order (used by SHOW METRICS and --profile)
STAGES = ("parse", "route", "rewrite", "plan_cache_hit", "execute", "merge", "federation")


class Observability:
    """Tracer + metrics registry + slow-query log for one deployment."""

    def __init__(
        self,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        slow_log: SlowQueryLog | None = None,
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.slow_log = slow_log if slow_log is not None else SlowQueryLog()
        #: workload intelligence (statement digests, shard heat, hot keys,
        #: SLOs) — records on sampled statements only, exported by pull
        self.workload = WorkloadIntelligence()
        reg = self.registry
        reg.register_collector(self.workload.families, key=self.workload)
        # Pre-created hot-path instruments (one lock round-trip per statement
        # via the *_locked variants in on_statement).
        self._stage_hist = reg.histogram(
            "engine_stage_seconds", "wall seconds per pipeline stage", ("stage",)
        )
        self._statements = reg.counter(
            "engine_statements_total", "logical statements by route type", ("route_type",)
        )
        self._statement_errors = reg.counter(
            "engine_statement_errors_total", "logical statements that raised"
        )
        self._fanout = reg.histogram(
            "engine_route_fanout_units", "execution units per routed statement",
            buckets=DEFAULT_FANOUT_BUCKETS,
        )
        self._source_queries = reg.counter(
            "storage_queries_total", "per-unit attempts per data source", ("source",)
        )
        self._source_errors = reg.counter(
            "storage_errors_total", "failed per-unit attempts per data source", ("source",)
        )
        self._commit_failures = reg.counter(
            "transaction_failed_participants_total",
            "participants whose part of a distributed commit failed", ("type",)
        )
        self._pool_wait = reg.histogram(
            "pool_checkout_wait_seconds", "connection pool checkout wait", ("source",)
        )
        reg.gauge("pool_in_use", "connections checked out", ("source",))
        reg.gauge("pool_idle", "idle pooled connections", ("source",))
        # Hot-path shortcut: pre-materialized histogram children so
        # on_statement updates them inline (one dict get per stage, no
        # label-validation) — this runs on every statement.
        self._stage_bounds = self._stage_hist.bounds
        self._stage_children = {
            stage: self._stage_hist._child((stage,)) for stage in STAGES
        }
        self._fanout_bounds = self._fanout.bounds
        self._fanout_child = self._fanout._child(())
        #: histogram sampling (DESIGN.md "Observability > Sampling"):
        #: counters stay exact; after the first ``stage_sample_warmup``
        #: statements, only 1 in ``stage_sample_every`` pays the stage
        #: timing and histogram updates, weighted by the sample period so
        #: histogram counts and sums still estimate the full population.
        #: Set stage_sample_every = 1 for exact histograms.
        self.stage_sample_warmup = 64
        self.stage_sample_every = 8
        self._seq = 0

    # -- statement-level recording (engine pipeline) ----------------------

    def stage_weight(self) -> int:
        """Sampling decision for one statement: 0 = skip stage timing.

        Returns the weight the statement's histogram observations should
        carry (the sample period, so sampled observations stand in for the
        skipped ones). The unlocked increment is a benign race under
        threads: a lost update only shifts the sampling phase.
        """
        seq = self._seq = self._seq + 1
        if seq <= self.stage_sample_warmup:
            return 1
        if seq % self.stage_sample_every == 0:
            return self.stage_sample_every
        return 0

    def on_statement(self, stages: Mapping[str, float], route_type: str,
                     fanout: int, error: bool, weight: int = 1) -> None:
        """Record one logical statement; lock only when histograms sample.

        Counters take the sharded lock-free path (exact, per-thread
        slots), so the 1-in-N unsampled majority of statements never
        touches the registry mutex — contended locks convoy badly with
        the GIL and were measurable at benchmark concurrency.
        """
        self._statements.inc_sharded((route_type or "unrouted",))
        if error:
            self._statement_errors.inc_sharded(())
        if weight and stages:
            with self.registry.lock:
                bounds = self._stage_bounds
                children = self._stage_children
                for stage, seconds in stages.items():
                    child = children.get(stage)
                    if child is None:
                        child = children[stage] = self._stage_hist._child((stage,))
                    child.counts[bisect_left(bounds, seconds)] += weight
                    child.count += weight
                    child.sum += seconds * weight
                    if seconds > child.max:
                        child.max = seconds
                if fanout:
                    fanout_child = self._fanout_child
                    fanout_child.counts[bisect_left(self._fanout_bounds, fanout)] += weight
                    fanout_child.count += weight
                    fanout_child.sum += fanout * weight
                    if fanout > fanout_child.max:
                        fanout_child.max = fanout

    def on_source_attempt(self, source: str, ok: bool, count: int = 1) -> None:
        """Per-unit attempt outcome (QPS and error rate per data source);
        ``count`` attempts with the same outcome at once."""
        self._source_queries.inc_sharded((source,), count)
        if not ok:
            self._source_errors.inc_sharded((source,), count)

    def on_commit_failures(self, transaction_type: str, count: int) -> None:
        """Participants a commit lost: ignored by LOCAL, left pending for
        recovery by XA, compensated by BASE — counted either way."""
        self._commit_failures.inc(count, type=transaction_type)

    # -- trace lifecycle ----------------------------------------------------

    def record_trace(self, trace: Trace) -> None:
        self.tracer.record(trace)
        digest = ""
        workload = self.workload
        if workload.enabled:
            digest = workload.note_trace(trace)
        self.slow_log.offer(trace, digest=digest)

    # -- wiring --------------------------------------------------------------

    def watch_pool(self, source: str, pool: "ConnectionPool") -> None:
        """Attach pool checkout-wait + occupancy instruments to one pool."""
        # Pre-bind the child + lock so every checkout pays one inline
        # histogram update instead of kwargs label validation, and apply
        # the same weighted 1-in-N sampling as the stage histograms.
        bounds = self._pool_wait.bounds
        lock = self.registry.lock
        with lock:
            child = self._pool_wait._child((source,))
        warmup = self.stage_sample_warmup
        state = [0]  # per-pool observation counter (GIL race = phase shift)

        def observe_wait(waited: float) -> None:
            state[0] = seen = state[0] + 1
            if seen <= warmup:
                weight = 1
            else:
                every = self.stage_sample_every
                if seen % every:
                    return
                weight = every
            with lock:
                child.counts[bisect_left(bounds, waited)] += weight
                child.count += weight
                child.sum += waited * weight
                if waited > child.max:
                    child.max = waited

        pool.wait_observer = observe_wait
        self.registry.gauge("pool_in_use", labelnames=("source",)).set_function(
            lambda: pool.in_use, source=source
        )
        self.registry.gauge("pool_idle", labelnames=("source",)).set_function(
            lambda: pool.idle, source=source
        )

    def unwatch_pool(self, source: str, pool: "ConnectionPool | None" = None) -> None:
        """Detach one pool's instruments (UNREGISTER RESOURCE).

        Drops the occupancy gauge children and the checkout-wait histogram
        child so exports stop reporting a ghost source, and clears the
        pool's wait observer so a lingering reference to the closed pool
        can't keep feeding the histogram.
        """
        self.registry.gauge("pool_in_use", labelnames=("source",)).remove(source=source)
        self.registry.gauge("pool_idle", labelnames=("source",)).remove(source=source)
        self._pool_wait.remove(source=source)
        if pool is not None:
            pool.wait_observer = None

    def register_execution_metrics(self, metrics: Any) -> None:
        """Fold the executor's ad-hoc counters into the registry (pull)."""
        self.registry.register_collector(metrics.families, key=metrics)

    def register_plan_cache(self, plan_cache: Any) -> None:
        """Expose plan-cache hit/miss/invalidation counters (pull)."""
        self.registry.register_collector(plan_cache.families, key=plan_cache)

    def register_storage_plan_cache(self, source: str, cache: Any) -> None:
        """Expose one data source's compiled storage-plan cache (pull)."""
        self.registry.register_collector(
            lambda: cache.families(source), key=(cache, source)
        )

    def unregister_storage_plan_cache(self, source: str, cache: Any) -> None:
        """Drop one data source's storage-plan-cache collector."""
        self.registry.unregister_collector((cache, source))

    # -- reporting ------------------------------------------------------------

    def stage_profile(self) -> dict[str, dict[str, float]]:
        """Per-stage latency stats (bench ``--profile``, SHOW METRICS)."""
        profile: dict[str, dict[str, float]] = {}
        for labels in self._stage_hist.label_sets():
            stage = labels["stage"]
            stats = self._stage_hist.stats(stage=stage)
            if stats["count"]:
                profile[stage] = stats
        # stable, pipeline-ordered output
        ordered = {s: profile[s] for s in STAGES if s in profile}
        ordered.update({s: v for s, v in profile.items() if s not in ordered})
        return ordered


__all__ = [
    "Observability",
    "WorkloadIntelligence",
    "Tracer",
    "Trace",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "SlowQueryLog",
    "SlowQueryEntry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_FANOUT_BUCKETS",
    "like_to_matcher",
    "STAGES",
]
