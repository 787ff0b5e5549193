"""The complete SQL engine: parse -> route -> rewrite -> execute -> merge.

This is the paper's Figure 2 "SQL Engine" box. Features (read-write
splitting, encryption, shadow, circuit breaking...) plug into the pipeline
through the :class:`Feature` hook interface, which is what makes the
platform "pluggable": every feature sees the statement context, may veto
or mutate it, may redirect routed units, and may post-process results.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .. import clock
from ..cache import LruCache
from ..exceptions import RouteError, SQLParseError
from ..metadata import ContextManager, MetadataContext
from ..sharding import ShardingRule
from ..sql import ast, leading_words, normalize, parse
from ..sql.formatter import format_statement
from ..storage import Connection, DataSource, latency
from ..session import current_session
from ..storage.replication import primary_pinned, session_token
from .context import StatementContext, build_context
from .executor import ConnectionMode, ExecutionEngine, ExecutionResult
from .merger import MaterializedResult, MergedResult, MergeSpec, merge
from .plan import CompiledPlan, PlanCache, compile_plan
from .resilience import REROUTABLE_ERRORS, ResiliencePolicy
from .result_cache import ResultCache
from .rewriter import ExecutionUnit, rewrite
from .router import RouteResult, route

if TYPE_CHECKING:
    from ..observability import Observability
    from ..observability.trace import Trace


#: what a literal statement finds when its shape's entry refuses literals
_AS_SENT = CompiledPlan("", None, False, "shape cannot stand for its literals")


class Feature:
    """Pluggable pipeline hook (SPI analogue for features).

    Subclasses override any subset of the hooks; the engine calls them in
    registration order. Hooks may mutate their arguments in place.
    """

    #: short identifier used in SHOW output and diagnostics
    name = "feature"

    #: True when every hook leaves statement ASTs untouched, so executions
    #: may take the plan-cache hot path (hooks still run against the
    #: immutable cached AST). Any registered feature with the conservative
    #: default False — e.g. encrypt, which rewrites statements in
    #: ``on_context`` — disables plan caching engine-wide while present.
    plan_cache_safe = False

    def on_context(self, context: StatementContext) -> None:
        """Inspect/mutate the statement context before routing."""

    def on_route(self, route_result: RouteResult, context: StatementContext) -> None:
        """Inspect/mutate the route result (e.g. redirect data sources)."""

    def on_units(self, units: list[ExecutionUnit], context: StatementContext) -> None:
        """Inspect/mutate rewritten execution units before execution."""

    def on_result(self, result: "EngineResult", context: StatementContext) -> None:
        """Post-process the merged result."""

    def on_error(self, error: Exception, context: StatementContext) -> None:
        """Observe a failed execution (circuit breakers count these)."""


@dataclass
class EngineResult:
    """Outcome of one logical statement."""

    merged: MergedResult | None = None
    update_count: int = 0
    generated_keys: tuple[str, list[Any]] | None = None
    # diagnostics
    route_type: str = ""
    unit_count: int = 0
    modes: dict[str, ConnectionMode] = field(default_factory=dict)
    merger_kind: str = ""
    units: list[ExecutionUnit] = field(default_factory=list)
    #: True when DOWN sources were skipped (graceful degradation)
    partial_results: bool = False
    skipped_sources: list[str] = field(default_factory=list)
    #: the statement's Trace when tracing was on (``TRACE <sql>``)
    trace: Any = None

    @property
    def sqls(self) -> list[str]:
        """Rewritten per-shard SQL texts (rendered lazily)."""
        return [u.sql for u in self.units]

    @property
    def is_query(self) -> bool:
        return self.merged is not None

    def fetchall(self) -> list[tuple[Any, ...]]:
        if self.merged is None:
            return []
        return self.merged.fetchall()

    @property
    def columns(self) -> list[str]:
        return self.merged.columns if self.merged else []


@dataclass(slots=True)
class _Statement:
    """One statement's trip through the engine (see DESIGN.md "Statement
    lifecycle"): what the caller supplied, what :meth:`SQLEngine._prepare`
    derived, and what must be handed back on either exit. Private to this
    module; a pipeline batch is a list of these.

    Fields declared ``field(init=False)`` stay unset until prepare (or
    :meth:`begin`) assigns them: reading one earlier is a bug and raises
    instead of yielding a default.
    """

    # -- supplied by the caller ---------------------------------------------
    sql: str | ast.Statement
    params: Sequence[Any]
    #: connections pinned by an open transaction (None = autocommit)
    held: Mapping[str, Connection] | None
    hints: Sequence[Any] | None
    #: the metadata snapshot pinned for this attempt
    snap: MetadataContext | None = None
    trace: "Trace | None" = None
    reroutes: int = 0
    #: result-cache key, set by the bracket (never for pipelines)
    cache_key: tuple | None = None
    # -- both exits need these whether or not prepare got that far -------------
    context: StatementContext | None = None
    #: how many features' ``on_context`` returned: exactly these are owed
    #: one ``on_result`` or one ``on_error``
    admitted: int = 0
    #: held between the executor and finish; released by fail
    execution: ExecutionResult | None = None
    #: the open stage's span (traced statements only)
    span: Any = None
    # -- set by prepare: observation --------------------------------------------
    #: sampling weight, 0 = untimed
    weight: int = field(init=False)
    stages: dict[str, float] = field(init=False)
    heat: Any = field(init=False)
    stage: str = field(init=False)
    t0: float = field(init=False)
    # -- set by prepare: the plan for this execution -------------------------------
    is_query: bool = field(init=False)
    route_type: str = field(init=False)
    units: Sequence[ExecutionUnit] = field(init=False)
    merge_spec: MergeSpec | None = field(init=False)
    #: result-cache guards, captured before any storage read
    cache_guards: tuple[list[tuple], list[tuple]] | None = field(init=False)

    def begin(self, stage: str) -> None:
        """Open a stage (sampled or traced statements only)."""
        self.stage = stage
        if self.trace is not None:
            self.span = self.trace.start_span(stage, metadata_version=self.snap.version)
        self.t0 = clock.now()

    def end(self, until: float = 0.0, **attributes: Any) -> None:
        """Close the open stage (at ``until``, what it booked, if later)."""
        self.stages[self.stage] = max(clock.now(), until) - self.t0
        span, self.span = self.span, None
        if span is not None:
            span.attributes.update(attributes)
            span.finish(until=until)


class SQLEngine:
    """Five-stage engine bound to versioned metadata + a fleet of sources.

    Configuration lives in a :class:`~repro.metadata.ContextManager`;
    every statement pins ``metadata.current()`` once and reads rule,
    data sources, features and dialects from that immutable snapshot for
    its whole parse→route→rewrite→execute→merge lifetime. Concurrent
    DistSQL mutations swap in the *next* snapshot without ever tearing an
    in-flight statement.
    """

    def __init__(
        self,
        data_sources: Mapping[str, DataSource] | None = None,
        rule: ShardingRule | None = None,
        max_connections_per_query: int = 1,
        features: Sequence[Feature] = (),
        enable_federation: bool = True,
        resilience: ResiliencePolicy | None = None,
        metadata: ContextManager | None = None,
    ):
        self.enable_federation = enable_federation
        if metadata is None:
            # Direct-embedding path (tests, examples): wrap the caller's
            # dict/rule in a standalone manager. The caller's dict is kept
            # by reference as the live-source map, and the bootstrap rule
            # stays unfrozen so incremental setup keeps working.
            metadata = ContextManager(
                data_sources if isinstance(data_sources, dict) else dict(data_sources or {}),
                rule if rule is not None else ShardingRule(),
                features=features,
            )
        self.metadata = metadata
        self.executor = ExecutionEngine(
            metadata.live_sources,
            max_connections_per_query=max_connections_per_query,
            resilience=resilience,
        )
        #: attached via attach_observability; None = no metrics/trace cost
        self.observability: "Observability | None" = None
        self._parse_cache: LruCache[str, ast.Statement] = LruCache(self._PARSE_CACHE_LIMIT)
        #: compiled plans for parameterized statements (the hot path)
        self.plan_cache = PlanCache()
        self.plan_cache.epoch = metadata.current().plan_epoch
        #: materialized hot point-read results (off by default; enabled
        #: via ``SET VARIABLE result_cache = ON`` or the bench harness).
        #: Keys embed the plan epoch; entries carry storage data-version
        #: and replica-group causal guards (see .result_cache).
        self.result_cache = ResultCache()
        metadata.subscribe(self._on_metadata_swap)

    # -- metadata views (always the *current* snapshot) --------------------

    @property
    def data_sources(self) -> dict[str, DataSource]:
        """The live (mutable, manager-synced) data-source map."""
        return self.metadata.live_sources

    @property
    def rule(self) -> ShardingRule:
        return self.metadata.current().rule

    @property
    def features(self) -> tuple[Feature, ...]:
        return self.metadata.current().features

    def _on_metadata_swap(self, old: MetadataContext, new: MetadataContext) -> None:
        """Single invalidation point: caches are keyed by plan epoch, so a
        swap that changed rule/sources/features drops them by version
        comparison (replacing the old scattered ``_invalidate_plans``)."""
        if new.plan_epoch != old.plan_epoch:
            self.plan_cache.advance_epoch(new.plan_epoch, new.reason)
            # Parsed ASTs are config-independent, but clearing on the same
            # epoch keeps one uniform invalidation story and bounds how
            # long pre-change statements stay warm.
            self._parse_cache.clear()
            # Result-cache keys embed the epoch, so stale entries could
            # never *hit* again — clearing reclaims their memory at once.
            self.result_cache.clear("plan epoch advanced")

    def attach_observability(self, observability: "Observability") -> None:
        """Wire tracing, stage metrics and pool gauges into this engine."""
        self.observability = observability
        self.executor.observability = observability
        observability.register_execution_metrics(self.executor.metrics)
        observability.register_plan_cache(self.plan_cache)
        for name, source in self.data_sources.items():
            observability.watch_pool(name, source.pool)
            observability.register_storage_plan_cache(name, source.database.plan_cache)

    def close(self) -> None:
        self.executor.close()

    def add_feature(self, feature: Feature) -> None:
        self.metadata.add_feature(feature)

    def remove_feature(self, name: str) -> None:
        self.metadata.remove_feature(name)

    _PARSE_CACHE_LIMIT = 2048

    def _parse_cached(self, sql: str) -> ast.Statement:
        """Parse with a per-engine bounded LRU statement cache.

        Cached ASTs are cloned before use because downstream stages mutate
        statements in place (INSERT key generation, encrypt rewrites).
        """
        cached = self._parse_cache.get(sql)
        if cached is None:
            cached = parse(sql)
            self._parse_cache.put(sql, cached)
        return ast.clone_statement(cached)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def execute(
        self,
        sql: str | ast.Statement,
        params: Sequence[Any] = (),
        held_connections: Mapping[str, Connection] | None = None,
        hint_values: Sequence[Any] | None = None,
        force_trace: bool = False,
    ) -> EngineResult:
        """Run one logical statement through the full pipeline.

        With a :class:`ResiliencePolicy` attached, idempotent reads that
        fail with a re-routable error (transient fault, source DOWN,
        breaker open) re-enter the pipeline from routing: health-aware
        routing then picks a different replica, turning a replica outage
        into extra latency instead of an error.

        ``force_trace`` traces this one statement even while the tracer
        is globally disabled (DistSQL ``TRACE <sql>``); the finished
        :class:`~repro.observability.trace.Trace` rides on
        ``result.trace``.
        """
        st = _Statement(sql, params, held_connections, hint_values)
        observability = self.observability
        if observability is not None and (force_trace or observability.tracer.enabled):
            st.trace = observability.tracer.start_trace(_sql_text(sql))
        session = current_session()
        previous = session.snapshot
        try:
            while True:
                # Pin ONE metadata snapshot per attempt: every stage reads
                # rule/sources/features/dialects from ``st.snap``, so a
                # concurrent DistSQL mutation (which swaps in the *next*
                # snapshot) can never be half-observed. It is also recorded
                # on the session so SHOW SESSIONS can attribute in-flight
                # statements to a metadata version.
                session.snapshot = st.snap = self.metadata.current()
                try:
                    result = self._serve(st)
                    break
                except Exception as exc:
                    if not self._fail(st, exc, reroute=True):
                        raise
        finally:
            session.snapshot = previous
        trace = st.trace
        if trace is not None:
            root = trace.root
            root.attributes["route_type"] = result.route_type
            root.attributes["units"] = result.unit_count
            root.attributes["merger_kind"] = result.merger_kind
            if result.partial_results:
                root.attributes["partial"] = True
                root.attributes["skipped_sources"] = ",".join(result.skipped_sources)
            if st.reroutes:
                root.attributes["reroutes"] = st.reroutes
            trace.finish(until=latency.now())  # ends with what it booked
            observability.record_trace(trace)
            result.trace = trace
        return result

    def execute_pipeline(
        self,
        statements: Sequence[tuple[str | ast.Statement, Sequence[Any]]],
        held_connections: Mapping[str, Connection] | None = None,
        hint_values: Sequence[Any] | None = None,
    ) -> list[EngineResult]:
        """Fused transaction pipelining across the five-stage engine.

        Every statement takes the same prepare → finish lifecycle as
        :meth:`execute` (hooks, hints, counters and the pinned snapshot
        included); runs of *consecutive* statements that each route to a
        single unit on the same data source are shipped through one
        connection checkout and one storage round trip
        (:meth:`ExecutionEngine.execute_pipeline`), which coalesces their
        write-I/O per written table — the transaction-pipelining analog
        of group commit. Statements that fan out to several shards (or
        need the federation fallback) flush the pending run and execute
        on their own, preserving statement order.

        Returns one :class:`EngineResult` per statement, in order.
        Semantics are serial-equivalent; on a mid-batch error the
        exception propagates with earlier statements' effects in place
        (an enclosing distributed transaction's undo still covers them).
        Pipelined statements skip the result cache, per-statement tracing
        and shard-heat sampling — the batch is the unit of observability —
        and their ``execute`` stage is recorded as the batch time
        amortized over the batch.
        """
        snap = self.metadata.current()
        session = current_session()
        previous = session.snapshot
        session.snapshot = snap
        records: list[_Statement] = []
        results: list[EngineResult] = []
        #: prepared single-unit statements bound for one data source
        pending: list[_Statement] = []
        try:
            for sql, params in statements:
                st = _Statement(sql, params, held_connections, hint_values, snap)
                records.append(st)
                try:
                    self._prepare(st)
                except Exception:
                    # serial-equivalent: what came before lands first
                    self._flush(pending, results)
                    raise
                if len(st.units) == 1:
                    if pending and pending[0].units[0].data_source != st.units[0].data_source:
                        self._flush(pending, results)
                    pending.append(st)
                else:
                    self._flush(pending, results)
                    self._dispatch(st)
                    results.append(self._finish(st))
            self._flush(pending, results)
            return results
        except Exception as exc:
            # statements finish strictly in order, so everything prepared
            # past the last result is still owed its error exit
            for st in records[len(results):]:
                self._fail(st, exc)
            raise
        finally:
            session.snapshot = previous

    def _flush(self, pending: list[_Statement], results: list[EngineResult]) -> None:
        """Ship the buffered same-source run as one storage round trip."""
        if not pending:
            return
        ds_name = pending[0].units[0].data_source
        t0 = latency.now()
        outs = self.executor.execute_pipeline(
            ds_name,
            [(st.units[0].statement, st.units[0].params, st.is_query) for st in pending],
            pending[0].held,
            sources=pending[0].snap.data_sources,
        )
        per_statement = (latency.now() - t0) / len(pending)
        for st, out in zip(pending, outs):
            st.execution = execution = ExecutionResult(
                modes={ds_name: ConnectionMode.CONNECTION_STRICTLY})
            if st.is_query:
                execution.results.append(out)
            else:
                execution.update_count = out
            if st.weight:
                st.stages["execute"] = per_statement
            results.append(self._finish(st))
        pending.clear()

    # ------------------------------------------------------------------
    # Statement lifecycle: prepare -> (executor) -> finish, or fail
    # ------------------------------------------------------------------

    def _serve(self, st: _Statement) -> EngineResult:
        """Result-cache bracket around prepare → execute → finish."""
        result_cache = self.result_cache
        key = st.cache_key = self._result_cache_key(st) if result_cache.enabled else None
        leader = False
        if key is not None:
            entry = result_cache.lookup(key, session_token)
            if entry is None:
                leader, event = result_cache.lease(key)
                if not leader:
                    # Single-flight follower: give the in-flight leader a
                    # bounded chance to populate the entry, then execute
                    # independently (still eligible to store).
                    event.wait(result_cache.single_flight_timeout)
                    entry = result_cache.lookup(key, session_token)
            if entry is not None:
                return self._cached_result(entry, st.trace)
        try:
            self._prepare(st)
            self._dispatch(st)
            return self._finish(st)
        finally:
            if leader:
                result_cache.release(key)

    def _result_cache_key(self, st: _Statement) -> tuple | None:
        """Cache key for this call, or None when it must not use the cache.

        Eligible statements are plain-text SELECTs outside transactions
        and hints, on a feature set that never mutates ASTs (the same
        ``plan_cache_safe`` contract the plan cache relies on), from a
        session not pinned to primaries.
        """
        sql = st.sql
        if (
            st.held is not None
            or st.hints is not None
            or not isinstance(sql, str)
            or not st.snap.plan_cache_safe
            or primary_pinned()
        ):
            return None
        if leading_words(sql)[0] != "SELECT":
            return None
        try:
            key = (sql, tuple(st.params), st.snap.plan_epoch)
            hash(key)
        except TypeError:
            return None
        return key

    def _cached_result(self, entry: Any, trace: "Trace | None") -> EngineResult:
        """Serve a guarded cache hit: no routing, no storage work."""
        result = EngineResult(
            route_type="result_cache", unit_count=0, merger_kind="cached")
        result.merged = MergedResult(
            columns=list(entry.columns), rows=iter(entry.rows),
            merger_kind="cached")
        if trace is not None:
            trace.root.add_event("result_cache_hit")
        if self.observability is not None:
            self.observability.on_statement("result_cache", (), {}, 0)
        return result

    def _prepare(self, st: _Statement) -> None:
        """Front half of the lifecycle: plan lookup → parse → context →
        route → rewrite, with the three pre-execute hook loops.

        The only code that consults, fills and counts the plan cache. A
        plan hit binds parameters into the compiled plan (condition
        binding + shard-key → data-node mapping + a rewrite-template
        lookup) instead of parsing, building context, routing and
        rewriting; hooks run either way — on a hit against the immutable
        cached AST, which ``plan_cache_safe`` features never mutate — so
        admission guards and unit redirection keep working. The third
        outcome is the federation fallback: a SELECT the router cannot
        co-locate leaves with ``route_type="federation"`` and no units.
        """
        snap, sql, params = st.snap, st.sql, st.params
        observability = self.observability
        # Histogram sampling: unsampled statements (weight 0) skip the
        # clock reads and stage entries entirely; counters stay exact. A
        # forced TRACE of an unsampled statement records unweighted.
        weight = next(observability.weights) if observability is not None else 0
        if st.trace is not None:
            weight = weight or 1
            st.trace.root.attributes["metadata_version"] = snap.version
        st.weight, st.stages, st.heat = weight, {}, None

        plan_cache = self.plan_cache
        is_text = isinstance(sql, str)
        # hints bypass the plan cache: they route outside the SQL text
        use_plans = (
            plan_cache.enabled and snap.plan_cache_safe and st.hints is None and is_text
        )
        hit = compiling = False
        if use_plans:
            plan = plan_cache.get(sql, snap.plan_epoch)  # type: ignore[arg-type]
            if plan is None:
                # Statement identity: a literal text runs as its literal-free
                # shape with the literals as parameters — from here on it
                # *is* a prepared statement — unless that shape's entry says
                # it cannot stand for its literals. A text that is already
                # a plan key (every prepared statement) never gets here.
                shape, values = normalize(sql, params)  # type: ignore[arg-type]
                if shape is not sql:
                    plan = plan_cache.get(shape, snap.plan_epoch)
                    if plan is None or plan.takes_literals(len(values)):
                        sql, params = shape, values
                    else:
                        plan = _AS_SENT
            if plan is None:
                plan_cache.misses += 1
                compiling = True
            elif not plan.cacheable or len(params) < plan.param_count:
                plan_cache.bypasses += 1
            else:
                plan_cache.hits += 1
                plan.hits += 1
                hit = True
        if weight:
            st.begin("plan_cache_hit" if hit else "parse")
        if hit:
            params = tuple(params)
            conditions = plan.bind_conditions(params)
            context = plan.make_context(params, conditions)
        else:
            try:
                statement = self._parse_cached(sql) if is_text else sql
            except SQLParseError:
                if sql is st.sql:
                    raise
                # report the client's text, positions and tokens, not the shape's
                sql, params = st.sql, st.params
                statement = self._parse_cached(sql)
            if statement.category == "DDL":
                plan_cache.invalidate("DDL")
            if compiling:
                plan = compile_plan(sql, statement, snap.rule)  # type: ignore[arg-type]
                plan_cache.store(plan, snap.plan_epoch)
                if sql is not st.sql and not plan.takes_literals(len(params)):
                    # first sight of a shape that cannot stand for its
                    # literals: the entry just stored says so; run as sent
                    sql, params = st.sql, st.params
                    statement = self._parse_cached(sql)
            context = build_context(
                statement, sql if is_text else _sql_text(sql), params, snap.rule, st.hints)
        st.context = context
        st.is_query = isinstance(context.statement, ast.SelectStatement)
        for feature in snap.features:
            feature.on_context(context)
            st.admitted += 1
        if weight and not hit:
            st.end()
            st.begin("route")

        try:
            if hit:
                route_result = plan.route_bound(conditions, snap.rule, lambda: context)
            else:
                route_result = route(context, snap.rule)
        except RouteError as exc:
            if not (self.enable_federation and st.is_query and "co-located" in str(exc)):
                raise
            if use_plans:
                # A federated statement can never run from a plan.
                plan_cache.mark_uncacheable(
                    sql, "federation fallback", snap.plan_epoch  # type: ignore[arg-type]
                )
            if weight:
                st.end(fallback="federation")
            st.route_type, st.units, st.merge_spec, st.cache_guards = "federation", [], None, None
            return
        for feature in snap.features:
            feature.on_route(route_result, context)
        if snap.route_hooks:
            route_result.memo_key = None  # the units may not be the node set's
        if weight and not hit:
            st.end(route_type=route_result.route_type, units=len(route_result.units))
            st.begin("rewrite")

        if hit:
            units, st.merge_spec = plan.build_units(route_result, params, snap.dialect_of)
        else:
            rewritten = rewrite(context, route_result, snap.dialect_of)
            units, st.merge_spec = rewritten.execution_units, rewritten.merge_spec
        for feature in snap.features:
            feature.on_units(units, context)
        st.route_type, st.units = route_result.route_type, units
        if weight:
            st.end(route_type=route_result.route_type, units=len(units))
        # Result-cache guards must be captured BEFORE the storage read so
        # a write racing the read bumps a captured version and the store
        # in finish is rejected (validated cache-aside).
        st.cache_guards = (
            self._capture_cache_guards(context, units, snap)
            if st.cache_key is not None and st.is_query and not context.statement.for_update
            else None
        )

    def _dispatch(self, st: _Statement) -> None:
        """Execute stage: the prepared units go to the executor; a
        federated statement (no units) is materialized and joined in the
        middleware (see :mod:`repro.engine.federation`)."""
        federated = st.route_type == "federation"
        if st.weight:
            st.begin("federation" if federated else "execute")
            if not federated:
                st.heat = self.observability.heat_sample(st.weight)
        if federated:
            from .federation import federate_select

            found = federate_select(
                self.executor, st.context, st.snap, st.held, st.trace, st.span)
            st.execution = ExecutionResult(
                results=[MaterializedResult(list(found.columns), found.fetchall())])
        else:
            st.execution = self.executor.execute(
                st.units, st.is_query, st.held,
                route_type=st.route_type,
                trace=st.trace, parent_span=st.span,
                sources=st.snap.data_sources,
                heat=st.heat,
            )
        if st.weight:  # the stage ends with what it booked
            if st.execution.partial_results:
                st.end(latency.now(), partial=True)
            else:
                st.end(latency.now())

    def _finish(self, st: _Statement) -> EngineResult:
        """Back half of the lifecycle: merge, build the
        :class:`EngineResult`, run ``on_result``, store to the result
        cache, then record the statement (counters, stage histograms,
        workload digests). Anything raised here reaches :meth:`_fail`
        with ``st.execution`` still attached, so no connection outlives
        a statement that failed after its storage work."""
        execution, context, units, weight = st.execution, st.context, st.units, st.weight
        result = EngineResult(
            update_count=execution.update_count,
            generated_keys=context.generated_keys,
            route_type=st.route_type,
            unit_count=len(units),
            modes=dict(execution.modes),
            units=list(units),
            partial_results=execution.partial_results,
            skipped_sources=list(execution.skipped_sources),
        )
        if st.is_query:
            if weight:
                st.begin("merge")
            merged = merge(
                st.merge_spec or MergeSpec(is_query=True, single_node=True),
                execution.results,
            )
            # no units: a federated result, already joined in the middleware
            result.merger_kind = merged.merger_kind if units else "federation"
            result.merged = MergedResult(
                columns=merged.columns,
                rows=_releasing(merged.rows, execution),
                merger_kind=result.merger_kind,
            )
            if weight:
                st.end(merger_kind=result.merger_kind)
        else:
            result.merger_kind = "update"
            execution.release()

        for feature in st.snap.features:
            feature.on_result(result, context)
        if (
            st.cache_guards is not None
            and result.merged is not None
            and not result.partial_results
        ):
            self._store_cached_result(st.cache_key, result, st.cache_guards)
        if self.observability is not None:  # last: a statement raising before is an error
            row_sink = self.observability.on_statement(
                st.route_type, units, st.stages, weight, context,
                execution.update_count, st.is_query, st.heat, execution.skipped_sources)
            if row_sink is not None:
                result.merged.rows = _counting(result.merged.rows, row_sink)
        st.execution = None  # the merged iterator owns the connections now
        return result

    def _fail(self, st: _Statement, exc: Exception, reroute: bool = False) -> bool:
        """The only error exit of the lifecycle.

        Releases whatever the statement still holds, closes its open
        stage span and delivers ``on_error`` to exactly the features
        whose ``on_context`` returned for this attempt. Returns True when
        the statement may re-enter from routing (``reroute`` offered, an
        idempotent read, a re-routable error, budget left); otherwise
        records the error (exact counters, digest, trace) and returns
        False so the caller re-raises.
        """
        execution, st.execution = st.execution, None
        if execution is not None:
            execution.release()
            if self.observability is not None:
                # its units answered, and on_statement never ran
                answered = Counter(unit.data_source for unit in st.units
                                   if unit.data_source not in execution.skipped_sources)
                for source, count in answered.items():
                    self.observability.on_source_attempt(source, True, count)
        if st.span is not None:
            st.span.finish(error=exc)
            st.span = None
        admitted, st.admitted = st.admitted, 0
        for feature in st.snap.features[:admitted]:
            feature.on_error(exc, st.context)
        trace = st.trace
        if reroute and isinstance(exc, REROUTABLE_ERRORS) and self._can_reroute(st):
            st.reroutes += 1
            self.executor.metrics.reroutes += 1
            if trace is not None:
                trace.root.add_event(
                    "reroute", attempt=st.reroutes, error=type(exc).__name__)
            return True
        if self.observability is not None:
            self.observability.on_error(st.sql, trace, exc)
        return False

    def _can_reroute(self, st: _Statement) -> bool:
        policy = self.executor.resilience
        return (
            policy is not None
            and st.reroutes < policy.max_reroutes
            and st.held is None  # else pinned to a transaction's connections
            # Only re-parsed statements re-enter cleanly (rewrite mutates
            # ASTs in place, so a caller-supplied AST cannot be re-routed).
            and isinstance(st.sql, str)
            and st.context is not None
            and st.is_query
            and not st.context.statement.for_update
        )

    # ------------------------------------------------------------------
    # Result-cache attachment points
    # ------------------------------------------------------------------

    def _capture_cache_guards(
        self,
        context: StatementContext,
        units: list[ExecutionUnit],
        snap: MetadataContext,
    ) -> tuple[list[tuple], list[tuple]] | None:
        """(data-version guards, causal guards) for a cacheable read.

        One guard per (unit, actual table); replica members are brought
        current first (the same lazy apply the connection layer performs)
        so pending-but-due replication never poisons the captured
        versions. Returns None when any target is unresolvable.
        """
        guards: list[tuple] = []
        causal: list[tuple] = []
        for unit in units:
            source = snap.data_sources.get(unit.data_source)
            if source is None:
                return None
            replica = getattr(source, "replica", None)
            group = getattr(source, "replica_group", None)
            if replica is not None:
                replica.apply_due()
                causal.append((replica.log.group, replica.applied_lsn))
            elif group is not None:
                causal.append((group.name, group.last_lsn()))
            database = source.database
            for logic in context.logic_tables:
                actual = unit.unit.actual_table(logic)
                guards.append(
                    (database, actual, database.data_version(actual)))
        return guards, causal

    def _store_cached_result(
        self,
        cache_key: tuple | None,
        result: EngineResult,
        cache_capture: tuple[list[tuple], list[tuple]],
    ) -> None:
        """Materialize a small result and store it under its guards.

        Drains up to ``max_rows + 1`` rows through the merged iterator
        (wrappers included, so pooled connections release and row sinks
        fire); oversized results pass through untouched via chaining.
        """
        result_cache = self.result_cache
        merged = result.merged
        assert merged is not None
        rows_iter = iter(merged.rows)
        buffered = list(itertools.islice(rows_iter, result_cache.max_rows + 1))
        if len(buffered) <= result_cache.max_rows:
            guards, causal = cache_capture
            result_cache.store(
                cache_key, merged.columns, buffered, guards, causal)
        merged.rows = itertools.chain(buffered, rows_iter)


def _sql_text(sql: str | ast.Statement) -> str:
    """SQL text for diagnostics: a pre-parsed statement is rendered back
    so traces, the slow-query log and PREVIEW never show an AST class
    name where the SQL should be."""
    if isinstance(sql, str):
        return sql
    try:
        return format_statement(sql)
    except Exception:
        return type(sql).__name__


def _releasing(rows, execution: ExecutionResult):
    """Wrap the merged iterator so pooled connections are returned when the
    stream is exhausted (or the generator is closed/garbage-collected)."""
    try:
        yield from rows
    finally:
        execution.release()


def _counting(rows, sink):
    """Count merged rows as the caller drains them, reporting the total to
    the workload tracker's row sink when the stream finishes (streaming
    merges don't know their row count up front)."""
    produced = 0
    try:
        for row in rows:
            produced += 1
            yield row
    finally:
        sink(produced)
