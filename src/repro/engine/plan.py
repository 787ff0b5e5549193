"""Prepared-statement plan cache: skip parse/route/rewrite on the hot path.

The paper's Figure 16 ablation shows parse/route/rewrite are the dominant
per-statement overhead the middleware adds on top of the databases, and
OLTP workloads (sysbench, TPC-C) execute a tiny set of parameterized
templates over and over. This module compiles one immutable
:class:`CompiledPlan` per SQL text:

- the parsed AST (shared read-only; never mutated after compile),
- the context skeleton (logic tables, alias map),
- the *route template*: which parameter positions / literals feed each
  sharding column (:class:`ParamRef` slots inside ``ShardingValue``s),
- the *rewrite templates*: per data node, the rewritten per-shard AST with
  renumbered parameter slots and the pre-rendered SQL text.

On a cache hit the engine only **binds**: substitute actual parameters
into the condition template, map shard keys to data nodes, and look up
the per-node rewrite template — parser, context build, router and
rewriter (and the per-hit AST clone) are all skipped.

Cacheability rules (see DESIGN.md "Plan cache"):

- only DQL/DML text statements without hint values;
- INSERT bypasses the cache: distributed key generation mutates the AST
  before routing and the batch is split per values-row;
- SELECTs whose LIMIT/OFFSET contain placeholders bypass (pagination
  revision bakes the bound values into the per-shard SQL);
- statements where two predicates on the same sharding column had to be
  intersected bypass (the intersection result depends on bound values);
- any registered :class:`~repro.engine.pipeline.Feature` whose
  ``plan_cache_safe`` flag is False (e.g. encrypt, which rewrites the AST
  in ``on_context``) disables the cache engine-wide until removed.

Literal SQL shares all of this: the engine looks a text up as sent, then
by its literal-free shape (:func:`repro.sql.normalize`), and every entry
records whether literal statements may run as it (``literal_safe``, see
DESIGN.md "Statement identity").

Invalidation: DDL through the pipeline, DistSQL rule changes
(``ALTER SHARDING ...``, ``REGISTER RESOURCE``, ...), feature add/remove
and ``CLEAR PLAN CACHE`` clear the whole cache (compiles are cheap and
invalidation events are rare; clearing avoids generation-staleness bugs).
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..cache import CacheStats, LruCache
from ..sharding import ShardingRule, ShardingValue
from ..sql import ast, normalize
from ..sql.formatter import format_statement
from ..sql.normalize import COMPARISONS
from .context import StatementContext, build_context
from .merger import MergeSpec
from .rewriter import ExecutionUnit, _iter_expressions, shape, unit_statement
from .router import RouteResult, RouteUnit, route

if TYPE_CHECKING:
    from ..sql.dialects import Dialect


@dataclass(frozen=True)
class ParamRef:
    """Compile-time stand-in for ``params[index]`` inside a condition
    template; the bind step substitutes the actual value."""

    index: int


class UnitTemplate:
    """One data node's precompiled rewrite: immutable AST + param mapping."""

    __slots__ = ("statement", "dialect", "param_order", "sql", "bind_params")

    def __init__(self, statement: ast.Statement, dialect: "Dialect",
                 param_order: tuple[int, ...], sql: str):
        self.statement = statement
        self.dialect = dialect
        self.param_order = param_order
        self.sql = sql
        #: ``params -> the unit's params``, a C-level getter: a slice when
        #: the order is one contiguous run (also for zero or one index)
        self.bind_params: Callable[[tuple[Any, ...]], tuple[Any, ...]]
        first, last = (param_order[0], param_order[-1]) if param_order else (0, -1)
        if param_order == tuple(range(first, last + 1)):
            self.bind_params = operator.itemgetter(slice(first, last + 1))
        else:
            self.bind_params = operator.itemgetter(*param_order)


#: unit-memo key of a route to every data node of the table
_ALL_NODES = object()


class CompiledPlan:
    """Everything needed to execute one SQL text without re-planning."""

    __slots__ = (
        "sql", "statement", "cacheable", "reason", "fingerprint",
        "logic_tables", "alias_map", "condition_template", "param_count",
        "single_table", "hits", "literal_safe",
        "_templates", "_lock", "_shapes",
        "_route_memo", "_memo_table_rule", "_all_nodes", "_unit_memo",
    )

    def __init__(self, sql: str, statement: ast.Statement | None,
                 cacheable: bool, reason: str = ""):
        self.sql = sql
        self.statement = statement
        self.cacheable = cacheable
        self.reason = reason
        self.fingerprint = ""
        self.logic_tables: list[str] = []
        self.alias_map: dict[str, str] = {}
        self.condition_template: dict[str, dict[str, ShardingValue]] = {}
        self.param_count = 0
        #: every placeholder is a predicate operand, so a literal statement
        #: may run as this text (DESIGN.md "Statement identity")
        self.literal_safe = True
        #: lowered logic table for the single-sharded-table fast route
        self.single_table: str | None = None
        self.hits = 0
        self._templates: dict[Any, UnitTemplate] = {}
        self._lock = threading.Lock()
        #: multi-node? -> the statement the units are cut from, and their
        #: merge spec (:func:`repro.engine.rewriter.shape`)
        self._shapes: dict[bool, tuple[ast.Statement, MergeSpec]] = {}
        #: point-lookup memo: (column, value) -> data nodes, valid for one
        #: TableRule object (identity-checked; rule changes drop the plan
        #: anyway via cache invalidation)
        self._route_memo: dict[tuple[str, Any], list[Any]] = {}
        self._memo_table_rule: Any = None
        #: the table's every node, routed once per TableRule (a statement
        #: with no sharding condition)
        self._all_nodes: list[Any] | None = None
        #: routed node set -> the units' templates, in route order; keyed
        #: by one DataNode or ``_ALL_NODES``, so bounded by the shards,
        #: not the keys (DESIGN.md "Plan cache")
        self._unit_memo: dict[Any, list[UnitTemplate]] = {}

    def takes_literals(self, count: int) -> bool:
        """May a literal statement whose shape this is, and whose literals
        and parameters number ``count``, run as this text? (Also asked of
        negative entries: they say which text the slow path parses.)"""
        return self.literal_safe and self.param_count == count

    # -- bind ------------------------------------------------------------

    def bind_conditions(self, params: tuple[Any, ...]) -> dict[str, dict[str, ShardingValue]]:
        """Substitute actual parameters into the condition template."""
        bound: dict[str, dict[str, ShardingValue]] = {}
        for table, columns in self.condition_template.items():
            table_bound: dict[str, ShardingValue] = {}
            for column, template in columns.items():
                if template.values is not None:
                    table_bound[column] = ShardingValue(column, values=[
                        params[v.index] if type(v) is ParamRef else v
                        for v in template.values
                    ])
                else:
                    low, high = template.range_  # type: ignore[misc]
                    if type(low) is ParamRef:
                        low = params[low.index]
                    if type(high) is ParamRef:
                        high = params[high.index]
                    table_bound[column] = ShardingValue(column, range_=(low, high))
            bound[table] = table_bound
        return bound

    def make_context(self, params: tuple[Any, ...],
                     conditions: dict[str, dict[str, ShardingValue]]) -> StatementContext:
        """Skeleton context for feature hooks and generic routing.

        Shares the immutable statement/alias map; only conditions are
        per-execution. Features running against it must not mutate the
        statement (``plan_cache_safe`` contract).
        """
        assert self.statement is not None
        return StatementContext(
            statement=self.statement,
            sql=self.sql,
            params=params,
            logic_tables=self.logic_tables,
            alias_map=self.alias_map,
            conditions=conditions,
        )

    def route_bound(self, conditions: dict[str, dict[str, ShardingValue]],
                    rule: ShardingRule,
                    context_factory: Callable[[], StatementContext]) -> RouteResult:
        """Shard-key -> data-node mapping, the only routing work on a hit.

        Route units are built fresh for every statement (features redirect
        them in place); what is shared is the node set's ``memo_key``, which
        lets :meth:`build_units` find the units' templates in one probe."""
        logic = self.single_table
        if logic is not None and rule.is_sharded(logic):
            table_rule = rule.table_rule(logic)
            if self._memo_table_rule is not table_rule:
                self._memo_table_rule = table_rule
                self._route_memo, self._unit_memo, self._all_nodes = {}, {}, None
            table_conditions = conditions.get(logic, {})
            nodes = None
            memo_key: Any = None
            if not table_conditions:
                nodes = self._all_nodes
                if nodes is None:
                    nodes = self._all_nodes = table_rule.route(table_conditions)
                memo_key = _ALL_NODES
            elif len(table_conditions) == 1:
                # Point lookups dominate OLTP; memoize value -> data nodes
                # so repeated keys skip the strategy walk entirely.
                column, value = next(iter(table_conditions.items()))
                values = value.values
                if values is not None and len(values) == 1:
                    memo = self._route_memo
                    try:
                        nodes = memo.get((column, values[0]))
                        if nodes is None:
                            nodes = table_rule.route(table_conditions)
                            # Sized to cover a full OLTP key space (e.g.
                            # sysbench's 20k ids): entries are a tiny
                            # tuple -> node-list pair, and saturating the
                            # memo at ~40% of the key space forfeits most
                            # of the hot-path win.
                            if len(memo) < 65536:
                                memo[(column, values[0])] = nodes
                    except TypeError:  # unhashable parameter value
                        nodes = None
            if nodes is None:
                nodes = table_rule.route(table_conditions)
            if memo_key is None and len(nodes) == 1:
                memo_key = nodes[0]
            units = [RouteUnit(n.data_source, {logic: n.table}) for n in nodes]
            route_type = "standard"
            if not table_conditions and len(nodes) == len(table_rule.data_nodes):
                route_type = "broadcast"
            return RouteResult(units, route_type, memo_key)
        # Everything else (binding joins, cartesian, broadcast, unicast)
        # goes through the real router against the skeleton context.
        return route(context_factory(), rule)

    # -- rewrite templates ----------------------------------------------

    def build_units(self, route_result: RouteResult, params: tuple[Any, ...],
                    dialect_of: Callable[[str], "Dialect"],
                    ) -> tuple[list[ExecutionUnit], MergeSpec]:
        """Materialize execution units from per-node rewrite templates:
        one memo probe for a node set seen before, then one
        :class:`ExecutionUnit` per route unit."""
        route_units = route_result.units
        multi = len(route_units) > 1
        key = route_result.memo_key
        templates = self._unit_memo.get(key) if key is not None else None
        if templates is None:
            templates = [self._template(unit, multi, dialect_of) for unit in route_units]
            if key is not None:
                self._unit_memo[key] = templates
        units = [
            ExecutionUnit(unit.data_source, template.bind_params(params),
                          template.statement, unit, template.dialect, template.sql)
            for unit, template in zip(route_units, templates)
        ]
        return units, self._shape(multi)[1]

    def _template(self, unit: RouteUnit, multi: bool,
                  dialect_of: Callable[[str], "Dialect"]) -> UnitTemplate:
        key = (unit.data_source, tuple(sorted(unit.table_map.items())), multi)
        template = self._templates.get(key)
        if template is None:
            template = self._build_template(key, unit, multi, dialect_of)
        return template

    def _build_template(self, key: Any, unit: RouteUnit, multi: bool,
                        dialect_of: Callable[[str], "Dialect"]) -> UnitTemplate:
        with self._lock:
            template = self._templates.get(key)
            if template is not None:
                return template
            statement, param_order = unit_statement(self._shape(multi)[0], unit)
            dialect = dialect_of(unit.data_source)
            sql = format_statement(statement, dialect)
            # Stable cache key for the storage engine's compiled-plan layer:
            # every execution of this template reuses one storage plan per
            # data node instead of re-interpreting the AST.
            statement.storage_plan_key = sql
            template = UnitTemplate(statement, dialect, param_order, sql)
            self._templates[key] = template
            return template

    def _shape(self, multi: bool) -> tuple[ast.Statement, MergeSpec]:
        """The plan's shape for one or several nodes, made once. A plan has
        no placeholder in LIMIT (cacheability rule), so the shape takes no
        parameters; two threads shaping at once make equal shapes."""
        found = self._shapes.get(multi)
        if found is None:
            found = self._shapes[multi] = shape(self.statement, not multi)  # type: ignore[arg-type]
        return found

    @property
    def template_count(self) -> int:
        return len(self._templates)

    def verify_immutable(self) -> bool:
        """True when the cached AST still matches its compile-time
        fingerprint (test/debug aid guarding the shared-AST invariant)."""
        if self.statement is None:
            return True
        return ast.fingerprint_statement(self.statement) == self.fingerprint


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def compile_plan(sql: str, statement: ast.Statement, rule: ShardingRule) -> CompiledPlan:
    """Compile one parsed statement; returns an uncacheable marker plan
    (negative cache entry) when any cacheability rule fails."""
    category = statement.category
    if category not in ("DQL", "DML"):
        return CompiledPlan(sql, None, False, f"category {category}")
    if isinstance(statement, ast.InsertStatement):
        return CompiledPlan(sql, None, False, "INSERT (key generation / batch split)")

    param_count = 0
    for expr in _iter_expressions(statement):
        for node in expr.walk():
            if isinstance(node, ast.Placeholder):
                param_count = max(param_count, node.index + 1)
    plan = _compile(sql, statement, rule, param_count)
    plan.param_count = param_count
    plan.literal_safe = _operand_placeholders(statement) == param_count
    return plan


def _compile(sql: str, statement: ast.Statement, rule: ShardingRule,
             param_count: int) -> CompiledPlan:
    limit = getattr(statement, "limit", None)
    if limit is not None and _has_placeholder(limit.count, limit.offset):
        return CompiledPlan(sql, None, False, "LIMIT/OFFSET placeholder")

    # Template context: placeholders become ParamRef slots so the
    # extracted sharding conditions record *where* each value comes from.
    sentinels = tuple(ParamRef(i) for i in range(param_count))
    try:
        template_context = build_context(statement, sql, sentinels, rule)
    except Exception as exc:  # any template-build failure -> don't cache
        return CompiledPlan(sql, None, False, f"context: {exc}")
    if template_context.merged_conditions:
        # Two predicates on one sharding column were intersected; the
        # intersection depends on bound values, so templates would be
        # wrong for other parameter sets.
        return CompiledPlan(sql, None, False, "intersected sharding conditions")

    plan = CompiledPlan(sql, statement, True)
    plan.fingerprint = ast.fingerprint_statement(statement)
    plan.logic_tables = template_context.logic_tables
    plan.alias_map = template_context.alias_map
    plan.condition_template = template_context.conditions
    sharded = {t.lower(): None for t in plan.logic_tables if rule.is_sharded(t)}
    # a table in no rule lives on the default source only: the router
    # decides whether the sharded table's units may join it
    in_no_rule = [t for t in plan.logic_tables
                  if not rule.is_sharded(t) and not rule.is_broadcast(t)]
    if len(sharded) == 1 and not in_no_rule:
        plan.single_table = next(iter(sharded))
    return plan


_OPERAND_OPS = COMPARISONS | {"LIKE"}


def _operand_placeholders(statement: ast.Statement) -> int:
    """How many placeholders sit where :func:`repro.sql.normalize` extracts
    literals *and* a value is all the statement needs there: a comparison /
    LIKE / BETWEEN / IN operand (behind unary minuses at most) in WHERE,
    HAVING or a join condition, or an UPDATE SET right-hand side. A
    placeholder anywhere else (select list, GROUP BY, ORDER BY, inside
    arithmetic or a function call) makes the text unfit to stand for
    literal statements: ORDER BY / GROUP BY items are matched to select
    items by their text, which two different literals would share."""
    operands: list[ast.Expression] = []
    if isinstance(statement, ast.UpdateStatement):
        operands += [value for _, value in statement.assignments]
    roots = [getattr(statement, "where", None), getattr(statement, "having", None)]
    roots += [join.condition for join in getattr(statement, "joins", ())]
    for root in roots:
        if root is None:
            continue
        for node in root.walk():
            if isinstance(node, ast.BinaryOp):
                if node.op in _OPERAND_OPS:
                    operands += (node.left, node.right)
            elif isinstance(node, ast.BetweenExpr):
                operands += (node.low, node.high)
            elif isinstance(node, ast.InExpr):
                operands += node.items
    found = 0
    for operand in operands:
        while isinstance(operand, ast.UnaryOp) and operand.op == "-":
            operand = operand.operand
        found += isinstance(operand, ast.Placeholder)
    return found


def _has_placeholder(*exprs: ast.Expression | None) -> bool:
    for expr in exprs:
        if expr is None:
            continue
        for node in expr.walk():
            if isinstance(node, ast.Placeholder):
                return True
    return False


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------


class PlanCache(CacheStats):
    """Bounded LRU of :class:`CompiledPlan` keyed by SQL text.

    The cache is additionally keyed by the *metadata plan epoch* (see
    :mod:`repro.metadata`): every entry belongs to ``self.epoch``, and
    invalidation after a rule/resource/feature change is a version
    comparison — :meth:`advance_epoch` clears once per epoch transition,
    and the per-statement :meth:`get`/:meth:`store` guards make stale
    interleavings safe: a statement pinned to an older snapshot can
    neither be served a newer plan nor poison the cache with a plan
    compiled against a superseded rule.
    """

    def __init__(self, capacity: int = 512):
        super().__init__()
        self._cache: LruCache[str, CompiledPlan] = LruCache(capacity)
        self.enabled = True
        #: metadata plan epoch the cached plans were compiled under
        self.epoch = 0
        self.last_invalidation = ""

    def advance_epoch(self, epoch: int, reason: str) -> None:
        """Adopt a newer metadata plan epoch, dropping every plan.

        Monotonic: an older epoch (a statement pinned to a superseded
        snapshot) never rolls the cache back.
        """
        if epoch > self.epoch:
            self.epoch = epoch
            self.invalidate(reason)

    def get(self, sql: str, epoch: int | None = None) -> CompiledPlan | None:
        if epoch is not None and epoch != self.epoch:
            if epoch > self.epoch:
                # Lazy adoption: a replaced/fresh cache syncs to the
                # statement's snapshot on first use.
                self.advance_epoch(epoch, f"metadata plan epoch {epoch}")
            return None  # older-pinned statement: compile fresh, don't serve
        return self._cache.get(sql)

    def peek(self, sql: str) -> CompiledPlan | None:
        """Diagnostic lookup: no counter or LRU-recency side effects. A
        literal text finds the entry of its shape, as the engine does."""
        return self._cache.peek(sql) or self._cache.peek(normalize(sql)[0])

    def store(self, plan: CompiledPlan, epoch: int | None = None) -> None:
        if epoch is not None and epoch != self.epoch:
            if epoch > self.epoch:
                self.advance_epoch(epoch, f"metadata plan epoch {epoch}")
            else:
                return  # compiled against a superseded snapshot: drop
        self.evictions += self._cache.put(plan.sql, plan)

    def discard(self, sql: str) -> None:
        self._cache.discard(sql)

    def mark_uncacheable(self, sql: str, reason: str, epoch: int | None = None) -> None:
        """Demote an entry to a negative-cache marker (e.g. after the
        federation fallback proved the route template unusable)."""
        if epoch is not None and epoch < self.epoch:
            return
        marker = CompiledPlan(sql, None, False, reason)
        demoted = self._cache.peek(sql)
        if demoted is not None:  # still the same text: same answers
            marker.param_count, marker.literal_safe = demoted.param_count, demoted.literal_safe
        self.evictions += self._cache.put(sql, marker)

    def invalidate(self, reason: str) -> None:
        """Clear every plan (DDL / rule change / feature change)."""
        self._cache.clear()
        self.invalidations += 1
        self.last_invalidation = reason

    def __len__(self) -> int:
        return len(self._cache)

    def stats(self) -> dict[str, Any]:
        return {
            "size": len(self._cache),
            "capacity": self._cache.capacity,
            **self.counters(),
            "hit_rate": self.hit_rate(),
            "epoch": self.epoch,
        }

    def snapshot_rows(self) -> list[tuple[Any, ...]]:
        """``SHOW PLAN CACHE`` rows, most-recently-used first."""
        rows = []
        for sql, plan in reversed(self._cache.items()):
            state = "cached" if plan.cacheable else f"bypass: {plan.reason}"
            rows.append((sql, plan.hits, plan.template_count, state))
        return rows

    # -- metrics-registry collector (pull, like ExecutionMetrics) ---------

    def families(self) -> list[tuple[str, str, str, list[tuple[dict[str, str], float]]]]:
        return [
            self.events_family("engine_plan_cache_events_total", "plan cache events by kind"),
            (
                "engine_plan_cache_size",
                "gauge",
                "compiled plans currently cached",
                [({}, float(len(self._cache)))],
            ),
        ]

