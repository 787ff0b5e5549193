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

from threading import get_ident
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from .metrics import (
    DEFAULT_FANOUT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    like_to_matcher,
    sample_weights,
    sampling_setting,
)
from .slowlog import SlowQueryEntry, SlowQueryLog
from .trace import Span, Trace, Tracer
from .workload import WorkloadIntelligence, _HeatSample

if TYPE_CHECKING:
    from ..storage.pool import ConnectionPool

#: every stage the pipeline times, in execution order (SHOW METRICS, --profile)
STAGES = ("parse", "route", "rewrite", "plan_cache_hit", "execute", "merge", "federation")


class Observability:
    """Tracer + metrics registry + slow-query log for one deployment.

    The engine reports each statement here in one call (:meth:`on_statement`
    or :meth:`on_error`); only this object decides which of the registry,
    the workload tracker, the tracer and the slow log see it.
    """

    #: histogram sampling (DESIGN.md "Observability > Sampling"): counters
    #: stay exact; after the first ``stage_sample_warmup`` statements (and
    #: checkouts per pool), only 1 in ``stage_sample_every`` pays the stage
    #: timing and histogram updates, weighted by the sample period so
    #: histogram counts and sums still estimate the full population. Set
    #: stage_sample_every = 1 for exact histograms.
    stage_sample_warmup = sampling_setting("stage_sample_warmup")
    stage_sample_every = sampling_setting("stage_sample_every")

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
        # Pre-materialized children, one per stage the pipeline times: a
        # sampled statement finds each by one dict lookup, with no label
        # validation.
        self._stage_children = {
            stage: self._stage_hist._child((stage,)) for stage in STAGES
        }
        self._fanout_child = self._fanout._child(())
        #: watched pools: source -> (pool, its checkout-wait observer)
        self._pools: dict[str, tuple["ConnectionPool", Callable[[float, int], None]]] = {}
        self._stage_sample_warmup = 64
        self.stage_sample_every = 8

    def _resample(self) -> None:
        """Restart the statement stream and every pool's checkout stream."""
        warmup, every = self._stage_sample_warmup, self._stage_sample_every
        #: statement weights: ``next(weights)`` is the sampling decision
        self.weights = sample_weights(warmup, every)
        for pool, observe in self._pools.values():
            pool.wait_observer = (sample_weights(warmup, every), observe)

    # -- statement-level recording (engine pipeline) ----------------------

    def heat_sample(self, weight: int) -> _HeatSample | None:
        """Shard-heat carrier the executor fills for a sampled statement."""
        workload = self.workload
        return _HeatSample(workload, weight) if workload.enabled else None

    def on_statement(
        self,
        route_type: str,
        units: Sequence[Any],
        stages: Mapping[str, float],
        weight: int,
        context: Any = None,
        rows: int = 0,
        is_query: bool = False,
        heat: _HeatSample | None = None,
        skipped: Sequence[str] = (),
    ) -> None:
        """Record one finished statement; lock only when it is sampled.

        Every statement counts by route type, and each of its ``units``
        but those on a ``skipped`` source counts as one answered attempt
        of its data source (failed attempts are counted as they fail,
        :meth:`on_source_attempt`). A sampled one (``weight`` > 0, which
        needs ``context``) also feeds the stage and fan-out histograms and
        the workload tracker, with ``rows`` (what a query returned, or what
        a write changed).
        Counters take the sharded lock-free path — ``Counter.inc_sharded``'s
        slots, written inline, so an unsampled statement makes this one
        call — and the 1-in-N unsampled majority never touches the registry
        mutex: contended locks convoy badly with the GIL and were
        measurable at benchmark concurrency.
        """
        thread = get_ident()
        shards = self._statements._shards
        slot = ((route_type or "unrouted",), thread)
        shards[slot] = shards.get(slot, 0.0) + 1.0
        shards = self._source_queries._shards
        for unit in units:
            if unit.data_source not in skipped:
                slot = ((unit.data_source,), thread)
                shards[slot] = shards.get(slot, 0.0) + 1.0
        if not weight:
            return
        with self.registry.lock:
            children = self._stage_children
            for stage, seconds in stages.items():
                children[stage].observe(seconds, weight)
            if units:
                self._fanout_child.observe(len(units), weight)
        workload = self.workload
        if workload.enabled:
            workload.record_statement(
                context, route_type, units, stages, weight, rows, is_query, heat)

    def on_error(self, sql: Any, trace: Trace | None, exc: BaseException) -> None:
        """Record one statement that raised: exact counters, its digest
        (a text statement's; errors bypass sampling) and its trace."""
        self._statements.inc_sharded(("unrouted",))
        self._statement_errors.inc_sharded(())
        if self.workload.enabled and isinstance(sql, str):
            self.workload.record_error(sql)
        if trace is not None:
            trace.finish(error=exc)
            self.record_trace(trace)

    def on_source_attempt(self, source: str, ok: bool, count: int = 1) -> None:
        """Per-unit attempt outcome (QPS and error rate per data source);
        ``count`` attempts with the same outcome at once: a failed attempt,
        or units that answered a statement :meth:`on_statement` will not
        see (it raised, or they were a federated statement's pulls)."""
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
        digest = self.workload.note_trace(trace) if self.workload.enabled else ""
        self.slow_log.offer(trace, digest=digest)

    # -- wiring --------------------------------------------------------------

    def watch_pool(self, source: str, pool: "ConnectionPool") -> None:
        """Attach pool checkout-wait + occupancy instruments to one pool.

        The pool draws each checkout's weight from its own stream and
        calls the observer only for a sampled one."""
        lock = self.registry.lock
        with lock:
            child = self._pool_wait._child((source,))

        def observe_wait(waited: float, weight: int) -> None:
            with lock:
                child.observe(waited, weight)

        self._pools[source] = (pool, observe_wait)
        pool.wait_observer = (
            sample_weights(self._stage_sample_warmup, self._stage_sample_every), observe_wait)
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
        self._pools.pop(source, None)
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
