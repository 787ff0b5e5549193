"""Automatic execution engine (Section VI-D) with a resilience layer.

Balances data-source connections, memory and concurrency:

- Units are grouped by physical data source.
- Per data source, θ = ⌈NumOfSQL / MaxCon⌉ decides the connection mode:
  θ > 1 forces CONNECTION_STRICTLY (each connection executes several SQLs
  serially, results loaded into memory — memory merger); θ = 1 allows
  MEMORY_STRICTLY (one connection per SQL, streaming cursors — stream
  merger).
- Deadlock avoidance: when a statement needs several connections of one
  source at once, the whole batch is taken atomically from the pool
  (``ConnectionPool.try_acquire_many``, waiting on the pool's condition).
- Every unit of a statement is issued by the calling thread, one
  ``Connection.execute`` after the other, and its window booked: the
  statement is one step of the session call's scope, so the simulated I/O
  overlaps on the servers' timelines and the session boundary sleeps once,
  for the window that ends last. A unit that shares its connection — a
  transaction's pinned connection, one of a connection-strictly group's
  MaxCon connections — is issued on a serial *lane*: the connection starts
  it when the unit before it on the same connection is done (DESIGN.md
  "Issue and await").

Resilience (opt-in via :class:`ResiliencePolicy`):

- Each execution unit runs under a retry loop: transient errors are
  retried with exponential backoff + full jitter, re-acquiring a fresh
  connection when the old one was dropped. Reads always qualify; writes
  only in autocommit mode with ``retry_writes``; writes inside an open
  distributed transaction are never retried.
- A per-statement deadline budget bounds the total time spent including
  backoff sleeps; exceeding it raises :class:`DeadlineExceededError`.
- Per-data-source circuit breakers (keyed by route target) gate every
  attempt; consecutive failures trip only the sick source's breaker.
- With a health check attached (Governor's detector), broadcast reads
  skip DOWN sources and return partial results flagged as such, while
  writes to a DOWN source fail fast with a clear error.
"""

from __future__ import annotations

import enum
import random
import threading
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from .. import clock
from ..exceptions import (
    CircuitBreakerOpenError,
    DataSourceUnavailableError,
    DeadlineExceededError,
    ExecutionError,
)
from ..storage import Connection, DataSource, latency
from .merger import MaterializedResult, ShardResult
from .resilience import BreakerRegistry, ResiliencePolicy
from .rewriter import ExecutionUnit

if TYPE_CHECKING:
    from ..observability import Observability
    from ..observability.trace import Span, Trace


#: when a connection's last issued statement is done (``Connection.free_at``)
_free_at = attrgetter("free_at")


class ConnectionMode(enum.Enum):
    MEMORY_STRICTLY = "memory_strictly"
    CONNECTION_STRICTLY = "connection_strictly"


@dataclass
class ExecutionResult:
    """Per-shard results plus bookkeeping for the caller."""

    results: list[ShardResult] = field(default_factory=list)
    update_count: int = 0
    modes: dict[str, ConnectionMode] = field(default_factory=dict)
    #: run these once the merged result has been fully consumed
    finalizers: list[Callable[[], None]] = field(default_factory=list)
    #: True when DOWN sources were skipped (graceful degradation)
    partial_results: bool = False
    #: data sources whose units were skipped or soft-failed
    skipped_sources: list[str] = field(default_factory=list)

    def release(self) -> None:
        finalizers, self.finalizers = self.finalizers, []
        for finalizer in finalizers:
            finalizer()


@dataclass
class ExecutionMetrics:
    """Counters exposed for monitoring and tests."""

    statements: int = 0
    memory_strictly: int = 0
    connection_strictly: int = 0
    # resilience counters
    retries: int = 0
    reroutes: int = 0
    timeouts: int = 0
    giveups: int = 0
    failed_units: int = 0
    degraded_statements: int = 0
    skipped_units: int = 0
    breaker_rejections: int = 0
    # statement-pipeline counters
    pipeline_batches: int = 0
    pipelined_statements: int = 0
    #: per data source breakdown: {source: {"retries"|"failures"|...: n}}
    per_source: dict[str, dict[str, int]] = field(default_factory=dict)

    def bump(self, source: str, key: str) -> None:
        by_key = self.per_source.setdefault(source, {})
        by_key[key] = by_key.get(key, 0) + 1

    def snapshot(self) -> dict[str, int]:
        return {
            "statements": self.statements,
            "memory_strictly": self.memory_strictly,
            "connection_strictly": self.connection_strictly,
            "retries": self.retries,
            "reroutes": self.reroutes,
            "timeouts": self.timeouts,
            "giveups": self.giveups,
            "failed_units": self.failed_units,
            "degraded_statements": self.degraded_statements,
            "skipped_units": self.skipped_units,
            "breaker_rejections": self.breaker_rejections,
            # no unit is queued for a worker or stolen any more; the two
            # keys stay, at 0, because benchmarks/perf/metrics.py reads them
            "queued_tasks": 0,
            "steals": 0,
            "pipeline_batches": self.pipeline_batches,
            "pipelined_statements": self.pipelined_statements,
        }

    def families(self) -> list[tuple[str, str, str, list[tuple[dict[str, str], float]]]]:
        """Metrics-registry collector: expose the counters on pull.

        Keeps these plain ints on the hot path (no registry lock per
        statement) while ``SHOW METRICS`` / the Prometheus exporter still
        see them — one source of truth, read-through.
        """
        families = [
            (
                f"executor_{key}_total",
                "counter",
                f"execution engine {key.replace('_', ' ')}",
                [({}, float(value))],
            )
            for key, value in self.snapshot().items()
        ]
        by_key: dict[str, list[tuple[dict[str, str], float]]] = {}
        for source in sorted(self.per_source):
            for key, value in sorted(self.per_source[source].items()):
                by_key.setdefault(key, []).append(({"source": source}, float(value)))
        for key in sorted(by_key):
            families.append(
                (
                    f"executor_source_{key}_total",
                    "counter",
                    f"per data source {key.replace('_', ' ')}",
                    by_key[key],
                )
            )
        return families


class ExecutionEngine:
    """Executes rewritten units against the fleet of data sources."""

    def __init__(
        self,
        data_sources: Mapping[str, DataSource],
        max_connections_per_query: int = 1,
        resilience: ResiliencePolicy | None = None,
        health_check: Callable[[str], bool] | None = None,
    ):
        if max_connections_per_query < 1:
            raise ExecutionError("max_connections_per_query must be >= 1")
        self.data_sources = data_sources if isinstance(data_sources, dict) else dict(data_sources)
        self.max_connections_per_query = max_connections_per_query
        self.metrics = ExecutionMetrics()
        self._closed = False
        self.resilience: ResiliencePolicy | None = None
        self.breakers: BreakerRegistry | None = None
        self.health_check = health_check
        #: attached by the runtime/pipeline; None = no metrics/trace cost
        self.observability: "Observability | None" = None
        self._retry_rng = random.Random(0)
        self._rng_lock = threading.Lock()
        if resilience is not None:
            self.enable_resilience(resilience)

    def enable_resilience(self, policy: ResiliencePolicy) -> None:
        """Attach (or replace) the resilience policy + per-source breakers."""
        self.resilience = policy
        self.breakers = BreakerRegistry.from_policy(policy)
        self._retry_rng = random.Random(policy.seed if policy.seed is not None else 0)

    def set_health_check(self, health_check: Callable[[str], bool] | None) -> None:
        """Wire the Governor's health view (name -> is UP) into execution."""
        self.health_check = health_check

    def close(self) -> None:
        """Reject new statements (idempotent). A statement in flight runs
        on its caller's thread and finishes."""
        self._closed = True

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def execute(
        self,
        units: Sequence[ExecutionUnit],
        is_query: bool,
        held_connections: Mapping[str, Connection] | None = None,
        route_type: str = "",
        trace: "Trace | None" = None,
        parent_span: "Span | None" = None,
        sources: Mapping[str, DataSource] | None = None,
        heat: Any = None,
    ) -> ExecutionResult:
        """Run all units; group per data source and pick connection modes.

        ``held_connections`` carries the per-data-source connections pinned
        by an open distributed transaction: statements inside a transaction
        must reuse them (and are therefore serial per data source).
        ``route_type`` lets the resilience layer know when a multi-source
        read is a broadcast that may gracefully degrade. When ``trace`` is
        given, one ``storage`` span per unit (child of ``parent_span``) is
        allocated here, in routing order on the calling thread.
        ``sources`` pins the statement
        to one metadata snapshot's immutable data-source view, so a
        concurrent UNREGISTER RESOURCE cannot yank a source out from under
        an in-flight statement; None falls back to the live map.
        ``heat`` is the workload tracker's per-statement sample carrier
        (``Observability.heat_sample``): when present, each
        completed unit reports its wall time, cursor and row count to
        ``heat.unit_done`` for shard-heat accounting. None (the unsampled
        majority) costs one comparison per unit.
        """
        if self._closed:
            raise ExecutionError("execution engine is closed; rejecting new work")
        deadline = self._statement_deadline()
        result = ExecutionResult()
        units = list(units)
        sources_map = sources if sources is not None else self.data_sources

        allow_partial = (
            self.resilience is not None
            and self.resilience.allow_partial_broadcast
            and is_query
            and held_connections is None
            and route_type in ("standard", "broadcast", "cartesian")
            and len(units) > 1
        )
        units = self._apply_health_filter(
            units, is_query, allow_partial, route_type, result, sources_map
        )

        spans: dict[int, "Span"] | None = None
        if trace is not None:
            spans = {
                id(unit): trace.start_span(
                    "storage",
                    parent=parent_span,
                    data_source=unit.data_source,
                    sql=unit.sql,
                )
                for unit in units
            }

        # With no policy and no trace an attempt is the only one, and what
        # the retry loop would add is the outcome count: a unit then enters
        # storage straight through ``Connection.execute`` (DESIGN.md "Issue
        # and await").
        direct = spans is None and self.resilience is None
        obs = self.observability
        # a step of the open scope, or the outermost (latency.Booked, inline)
        booked = latency.booking.get()
        token = None if booked is not None else latency.booking.set(booked := latency.Booked())

        groups: dict[str, list[ExecutionUnit]] = {}
        for unit in units:
            groups.setdefault(unit.data_source, []).append(unit)

        # -- fan-out ---------------------------------------------------------
        # Every unit is issued and booked right here, and its rows exist at
        # once (DESIGN.md "Issue and await"). A memory-strictly group has one
        # connection per unit. A pinned group, or a connection-strictly
        # group's MaxCon connections, are serial lanes: each unit goes to
        # the lane whose last window ends first, and the connection starts
        # it when the one before it there is done.
        slots: dict[int, Any] = {}  # id(unit) -> ShardResult | update count
        #: units that answered, per source; counted by the statement's end
        #: (``Observability.on_statement``), or here if the statement raises
        answered_by: dict[str, int] = {}
        source_errors: dict[str, BaseException] = {}
        #: (source name, source, connections, streamed) of every pool batch
        batches: list[tuple[str, DataSource, list[Connection], bool]] = []
        try:
            for ds_name, group in groups.items():
                pinned = (held_connections or {}).get(ds_name)
                if pinned is not None:
                    source, lanes = None, True
                else:
                    source = self._source(ds_name, sources_map)
                    # θ = ⌈NumOfSQL / MaxCon⌉ > 1
                    lanes = len(group) > self.max_connections_per_query
                mode = (ConnectionMode.CONNECTION_STRICTLY if lanes
                        else ConnectionMode.MEMORY_STRICTLY)
                result.modes[ds_name] = mode
                if spans is not None:
                    for unit in group:
                        spans[id(unit)].attributes["mode"] = mode.value
                if source is None:
                    connections = [pinned]
                else:
                    if lanes:
                        self.metrics.connection_strictly += 1
                    else:
                        self.metrics.memory_strictly += 1
                    try:
                        connections = self._acquire_batch(
                            source, min(self.max_connections_per_query, len(group)),
                            deadline=deadline)
                    except BaseException as exc:
                        source_errors.setdefault(ds_name, exc)
                        continue
                    batches.append((ds_name, source, connections, not lanes))
                answered = 0
                for index, unit in enumerate(group):
                    if lanes:
                        index = connections.index(min(connections, key=_free_at))
                    span = spans[id(unit)] if spans is not None else None
                    t0 = clock.now() if heat is not None else 0.0
                    try:
                        if direct:
                            cursor = connections[index].execute(unit.statement, unit.params)
                        elif source is None:
                            cursor = self._run_attempts(
                                ds_name, lambda: self._traced(pinned, unit, span),
                                is_query=is_query, pinned=pinned, deadline=deadline,
                                span=span)
                        else:
                            cursor = self._run_on_batch(
                                source, connections, index, unit, is_query, deadline, span)
                    except BaseException as exc:
                        if direct and isinstance(exc, Exception):
                            self._record_outcome(ds_name, ok=False)
                        source_errors.setdefault(ds_name, exc)
                        if lanes:
                            break  # a lane stops at its first error
                        continue
                    answered += 1
                    if span is None and heat is None and not (lanes and is_query):
                        # untraced, unsampled: the result streams, or its count
                        slots[id(unit)] = cursor if is_query else max(cursor.rowcount, 0)
                        continue
                    try:
                        slots[id(unit)] = self._unit_done(
                            unit, cursor, is_query, span, heat, t0, stream=not lanes)
                    except BaseException as exc:
                        source_errors.setdefault(ds_name, exc)
                if answered:
                    answered_by[ds_name] = answered
        finally:
            booked.lag = max(booked.lag, booked.ready_at - clock.now())  # the rest runs after it
            if token is not None:  # nothing is merged, released or raised unpaid
                latency.booking.reset(token)
                if booked.ready_at:
                    latency.pay(booked.priced, clock.now() + booked.lag)

        # streamed results outlive the statement; every other batch, and the
        # batch of a source that failed, goes back now
        for ds_name, source, connections, streamed in batches:
            release = partial(source.pool.release_many, connections)
            if streamed and is_query and ds_name not in source_errors:
                result.finalizers.append(release)
            else:
                release()

        errors: list[BaseException] = []
        soft_failures: list[tuple[str, BaseException]] = []
        succeeded = 0
        for ds_name, group in groups.items():
            exc = source_errors.get(ds_name)
            if exc is not None:
                if allow_partial and isinstance(
                    exc, (DataSourceUnavailableError, CircuitBreakerOpenError)
                ):
                    soft_failures.append((ds_name, exc))
                else:
                    errors.append(exc)
                continue
            succeeded += 1
            for unit in group:
                out = slots[id(unit)]
                if is_query:
                    result.results.append(out)
                else:
                    result.update_count += out
        if errors or (soft_failures and not succeeded):
            result.release()
            if obs is not None:
                for ds_name, answered in answered_by.items():
                    obs.on_source_attempt(ds_name, True, answered)
            raise (errors or [exc for _, exc in soft_failures])[0]
        if soft_failures:
            result.partial_results = True
            for ds_name, _ in soft_failures:
                if obs is not None and ds_name in answered_by:
                    obs.on_source_attempt(ds_name, True, answered_by[ds_name])
                if ds_name not in result.skipped_sources:
                    result.skipped_sources.append(ds_name)
                # diagnostics invariant: modes only lists sources that
                # actually contributed results — drop the skipped one
                result.modes.pop(ds_name, None)
                self.metrics.skipped_units += 1
                self.metrics.bump(ds_name, "skipped")
            self.metrics.degraded_statements += 1
        self.metrics.statements += len(units)
        return result

    # ------------------------------------------------------------------
    # Resilience
    # ------------------------------------------------------------------

    def _statement_deadline(self) -> float | None:
        policy = self.resilience
        if policy is not None and policy.statement_timeout is not None:
            return clock.now() + policy.statement_timeout
        return None

    def _check_deadline(self, deadline: float | None, source_name: str) -> None:
        if deadline is not None and clock.now() >= deadline:
            self.metrics.timeouts += 1
            self.metrics.bump(source_name, "timeouts")
            assert self.resilience is not None
            raise DeadlineExceededError(
                f"statement deadline of {self.resilience.statement_timeout * 1000:.0f}ms "
                f"exceeded while executing on {source_name!r}"
            )

    def source_up(self, name: str) -> bool:
        """UP per the health check AND admitted by the source's breaker."""
        if self.health_check is not None and not self.health_check(name):
            return False
        if self.breakers is not None and not self.breakers.available(name):
            return False
        return True

    def _apply_health_filter(
        self,
        units: list[ExecutionUnit],
        is_query: bool,
        allow_partial: bool,
        route_type: str,
        result: ExecutionResult,
        sources_map: Mapping[str, DataSource] | None = None,
    ) -> list[ExecutionUnit]:
        """Skip units on DOWN sources for degradable reads; fail writes fast.

        Unicast reads (broadcast-table reads, information queries — any
        source holds the full answer) are *redirected* to a healthy source
        instead: the result stays complete, so no partial flag.
        """
        if self.health_check is None:
            return units
        down = {u.data_source for u in units if not self.source_up(u.data_source)}
        if not down:
            return units
        if not is_query:
            raise DataSourceUnavailableError(
                f"data source(s) {sorted(down)} are DOWN; refusing write (fail fast)"
            )
        if route_type == "unicast" and len(units) == 1:
            candidates = sources_map if sources_map is not None else self.data_sources
            healthy = next(
                (name for name in candidates if self.source_up(name)), None
            )
            if healthy is None:
                raise DataSourceUnavailableError(
                    f"all data sources are DOWN (unicast target {sorted(down)})"
                )
            unit = units[0]
            self.metrics.bump(unit.data_source, "redirects")
            unit.data_source = healthy
            unit.unit.data_source = healthy
            return units
        if not allow_partial:
            return units  # let execution fail naturally (or retries absorb it)
        healthy = [u for u in units if u.data_source not in down]
        if not healthy:
            raise DataSourceUnavailableError(
                f"all routed data sources are DOWN: {sorted(down)}"
            )
        result.partial_results = True
        result.skipped_sources = sorted(down)
        self.metrics.degraded_statements += 1
        self.metrics.skipped_units += len(units) - len(healthy)
        for name in down:
            self.metrics.bump(name, "skipped")
        return healthy

    def _breaker_admit(self, source_name: str) -> None:
        if self.breakers is not None and not self.breakers.try_acquire(source_name):
            self.metrics.breaker_rejections += 1
            self.metrics.bump(source_name, "breaker_rejections")
            raise CircuitBreakerOpenError(
                f"circuit breaker for data source {source_name!r} is open"
            )

    def _record_outcome(self, source_name: str, ok: bool) -> None:
        if self.breakers is not None:
            if ok:
                self.breakers.record_success(source_name)
            else:
                self.breakers.record_failure(source_name)
        if not ok:
            self.metrics.failed_units += 1
            self.metrics.bump(source_name, "failures")
            obs = self.observability
            if obs is not None:
                obs.on_source_attempt(source_name, False)

    @staticmethod
    def _traced(connection: Connection, unit: ExecutionUnit, span: "Span | None") -> Any:
        """Issue one unit, lending the span to the connection meanwhile.

        The connection attributes priced time and lock waits to
        ``trace_span`` while it is set, when it books the unit's window;
        clearing it restores the class default (None), keeping untraced
        connections attribute-free.
        """
        if span is None:
            return connection.execute(unit.statement, unit.params)
        connection.trace_span = span
        try:
            return connection.execute(unit.statement, unit.params)
        finally:
            del connection.trace_span

    def _run_attempts(
        self,
        source_name: str,
        attempt: Callable[[], Any],
        *,
        is_query: bool,
        pinned: Connection | None,
        deadline: float | None,
        span: "Span | None" = None,
    ) -> Any:
        """Run one execution unit under the resilience policy.

        ``attempt`` performs a full attempt (including any connection
        (re-)acquisition) and returns the issued cursor. Retries apply only
        to transient errors, within the deadline budget, and never to writes
        on a pinned (in-transaction) connection. Retries become events on
        the unit's storage span, when present, and a final ``retries``
        attribute; a terminal failure closes the span with the error
        attached. A success leaves it open: the unit was only issued and
        its span ends at its window's end.
        """
        policy = self.resilience
        attempt_no = 0
        try:
            while True:
                self._check_deadline(deadline, source_name)
                self._breaker_admit(source_name)
                try:
                    value = attempt()
                except Exception as exc:
                    self._record_outcome(source_name, ok=False)
                    retryable = policy is not None and policy.is_retryable(exc)
                    allowed = (
                        retryable
                        and policy is not None
                        and attempt_no < policy.max_retries
                        and (is_query or (policy.retry_writes and pinned is None))
                        # A pinned (transactional) statement may only be retried
                        # as a read on a connection that survived the fault.
                        and (pinned is None or (is_query and not pinned.closed))
                    )
                    if not allowed:
                        if retryable:
                            self.metrics.giveups += 1
                            self.metrics.bump(source_name, "giveups")
                        raise
                    attempt_no += 1
                    self.metrics.retries += 1
                    self.metrics.bump(source_name, "retries")
                    if span is not None:
                        span.add_event(
                            "retry", attempt=attempt_no, error=type(exc).__name__
                        )
                    assert policy is not None
                    with self._rng_lock:
                        delay = policy.backoff(attempt_no, self._retry_rng)
                    if deadline is not None:
                        delay = min(delay, max(0.0, deadline - clock.now()))
                    if delay > 0:
                        clock.sleep(delay)
                    continue
                self._record_outcome(source_name, ok=True)
                if span is not None and attempt_no:
                    span.attributes["retries"] = attempt_no
                return value
        except BaseException as terminal:
            if span is not None:
                if attempt_no:
                    span.attributes["retries"] = attempt_no
                span.finish(error=terminal)
            raise

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def _source(self, name: str, sources: Mapping[str, DataSource] | None = None) -> DataSource:
        lookup = sources if sources is not None else self.data_sources
        try:
            return lookup[name]
        except KeyError:
            raise ExecutionError(f"unknown data source {name!r}") from None

    @staticmethod
    def _unit_done(
        unit: ExecutionUnit,
        cursor: Any,
        is_query: bool,
        span: "Span | None",
        heat: Any,
        t0: float,
        stream: bool = False,
    ) -> Any:
        """What every execution path does once a unit's cursor is back.

        Returns the unit's outcome — the update count for a write, a
        :class:`ShardResult` for a query — after noting the row count on
        the unit's storage span, ending the span with the unit's window,
        and reporting wall time from ``t0`` to the window's end (what the
        unit cost, not when the statement came back for it), cursor and
        rows to the workload ``heat`` sample. With ``stream`` an untraced
        query hands back the live cursor (stream merger): its row count
        is unknown (-1) until the caller drains the merged iterator, and
        the row sink fills it in. Everything else is memory-loaded here;
        traced statements trade streaming for a row count on the span
        (tracing is opt-in).
        """
        if not is_query:
            out = rows = max(cursor.rowcount, 0)
        elif stream and span is None:
            out, rows = cursor, -1
        else:
            fetched = cursor.fetchall()
            out, rows = MaterializedResult(cursor.columns, fetched), len(fetched)
        if span is not None:
            span.attributes["rows"] = rows
            span.finish(until=cursor.ready_at)
        if heat is not None:
            heat.unit_done(unit, (cursor.ready_at or clock.now()) - t0, cursor, rows)
        return out

    def _run_on_batch(
        self,
        source: DataSource,
        connections: list[Connection],
        index: int,
        unit: ExecutionUnit,
        is_query: bool,
        deadline: float | None,
        span: "Span | None",
    ) -> Any:
        """Issue one unit on a pre-acquired connection of its group's batch,
        ``connections[index]`` — replaced in the batch when a fault closed
        it — under the retry loop. The cursor comes back issued and booked,
        and the span still open."""

        def attempt() -> Any:
            if connections[index].closed:
                source.pool.release(connections[index])
                connections[index] = self._pool_acquire(source, deadline)
            return self._traced(connections[index], unit, span)

        return self._run_attempts(
            unit.data_source, attempt, is_query=is_query, pinned=None,
            deadline=deadline, span=span,
        )

    def _pool_acquire(
        self,
        source: DataSource,
        deadline: float | None,
        timeout: float = 10.0,
    ) -> Connection:
        """Acquire one connection, waiting no longer than the statement's
        remaining deadline budget; out-of-time waits report
        :class:`DeadlineExceededError` instead of pool exhaustion."""
        if deadline is not None:
            timeout = min(timeout, max(0.0, deadline - clock.now()))
        try:
            return source.pool.acquire(timeout=timeout)
        except Exception:
            self._check_deadline(deadline, source.name)
            raise

    def _acquire_batch(
        self,
        source: DataSource,
        count: int,
        timeout: float = 10.0,
        deadline: float | None = None,
    ) -> list[Connection]:
        """Atomically acquire ``count`` connections (deadlock avoidance).

        A single connection is a plain acquire (two queries cannot wait on
        each other over one connection each). When the resilience policy
        set a statement ``deadline``, the wait is capped by the remaining
        budget instead of always blocking the full default — a statement
        out of time reports :class:`DeadlineExceededError` promptly rather
        than sitting on an exhausted pool for 10 s.
        """
        if count == 1:
            return [self._pool_acquire(source, deadline, timeout)]
        if deadline is not None:
            timeout = min(timeout, max(0.0, deadline - clock.now()))
        batch = source.pool.try_acquire_many(count, timeout)
        if batch is None:
            self._check_deadline(deadline, source.name)
            raise ExecutionError(
                f"could not atomically acquire {count} connections from {source.name!r}")
        return batch

    # ------------------------------------------------------------------
    # Statement pipelining
    # ------------------------------------------------------------------

    def execute_pipeline(
        self,
        ds_name: str,
        statements: Sequence[tuple[Any, Sequence[Any], bool]],
        held_connections: Mapping[str, Connection] | None = None,
        sources: Mapping[str, DataSource] | None = None,
    ) -> list[Any]:
        """Fused transaction pipelining: run consecutive single-source
        statements through one connection checkout and one storage round
        trip (:meth:`Connection.execute_pipeline` coalesces the write-I/O
        slice per written table — the group-commit analog).

        ``statements`` holds ``(statement, params, is_query)`` triples.
        Semantics are serial-equivalent: statements run in order on one
        connection, and a mid-batch error propagates after earlier
        statements' effects (and costs) have landed — exactly what the
        serial loop would leave behind, so an enclosing transaction's undo
        log still covers them. No retry loop applies (the batch typically
        carries writes inside an open transaction, which the resilience
        policy never retries); the circuit breaker still gates admission
        and records one outcome for the whole batch.

        Returns one entry per statement: a :class:`MaterializedResult`
        for queries, an int update count for writes.
        """
        if self._closed:
            raise ExecutionError("execution engine is closed; rejecting new work")
        deadline = self._statement_deadline()
        self._check_deadline(deadline, ds_name)
        self._breaker_admit(ds_name)
        if self.health_check is not None and not self.source_up(ds_name):
            raise DataSourceUnavailableError(
                f"data source {ds_name!r} is DOWN; refusing pipelined batch (fail fast)"
            )
        source = self._source(ds_name, sources)
        pinned = (held_connections or {}).get(ds_name)
        connection = pinned if pinned is not None else self._pool_acquire(source, deadline)
        out: list[Any] = []
        try:
            raw = connection.execute_pipeline(
                [(stmt, params) for stmt, params, _ in statements])
            for (_stmt, _params, is_query), res in zip(statements, raw):
                if is_query:
                    out.append(MaterializedResult(list(res.columns), res.fetchall()))
                else:
                    out.append(max(res.rowcount, 0))
        except BaseException:
            self._record_outcome(ds_name, ok=False)
            raise
        finally:
            if pinned is None:
                source.pool.release(connection)
        self._record_outcome(ds_name, ok=True)
        self.metrics.statements += len(statements)
        self.metrics.pipeline_batches += 1
        self.metrics.pipelined_statements += len(statements)
        return out

