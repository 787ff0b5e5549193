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
rewriter (and the per-hit AST clone) are all skipped. An INSERT binds
each values row's sharding values from their recorded parameter indexes,
routes each row through the table rule's strategies (not its point-route
memo: a bulk load would fill it), and runs one unit per node: the node's
one-row template with its rows as :class:`~repro.storage.Bindings`.

Cacheability rules (see DESIGN.md "Plan cache"):

- only DQL/DML text statements without hint values;
- an INSERT bypasses when it needs key generation (the rule's key column
  is missing: the generated keys are new on every execution, and they
  change the AST before routing) or when its values rows are not all bare
  placeholders of one width;
- an UPDATE that assigns a sharding column bypasses: the router decides
  whether the row stays put (:func:`repro.engine.router.route`);
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

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..cache import CacheStats, LruCache
from ..sharding import ShardingRule, ShardingValue
from ..sharding.rule import POINT_ROUTES
from ..sql import ast, normalize
from ..sql.formatter import format_statement
from ..sql.normalize import COMPARISONS
from ..storage import Bindings
from ..storage.plans import params_getter
from .context import StatementContext, build_context
from .merger import MergeSpec
from .rewriter import ExecutionUnit, _iter_expressions, bound_rows, shape, unit_statement
from .router import RouteResult, RouteUnit, assigned_sharding_columns, route

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
        #: ``params -> the unit's params``, a C-level getter
        self.bind_params = params_getter(param_order)


class CompiledPlan:
    """Everything needed to execute one SQL text without re-planning."""

    __slots__ = (
        "sql", "statement", "cacheable", "reason", "fingerprint",
        "logic_tables", "alias_map", "condition_template", "key_joins", "param_count",
        "single_table", "hits", "literal_safe", "insert_keys", "_insert_rows",
        "_templates", "_lock", "_shapes",
        "_unit_memo",
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
        #: the context's key joins: a hit routes on the same evidence
        self.key_joins: list[tuple[str, str]] = []
        self.param_count = 0
        #: every placeholder is a predicate operand, so a literal statement
        #: may run as this text (DESIGN.md "Statement identity")
        self.literal_safe = True
        #: the statement's one table reference (broadcast tables aside),
        #: lowered, for the single-table fast route
        self.single_table: str | None = None
        #: an INSERT's sharding columns, each with its parameter index per
        #: values row (empty for any other statement)
        self.insert_keys: tuple[tuple[str, tuple[int, ...]], ...] = ()
        #: an INSERT's values rows, each a getter of its parameters (None
        #: for any other statement)
        self._insert_rows: tuple[Callable[[tuple[Any, ...]], tuple[Any, ...]], ...] | None = None
        self.hits = 0
        self._templates: dict[Any, UnitTemplate] = {}
        self._lock = threading.Lock()
        #: multi-node? -> the statement the units are cut from, and their
        #: merge spec (:func:`repro.engine.rewriter.shape`)
        self._shapes: dict[bool, tuple[ast.Statement, MergeSpec]] = {}
        #: routed node set -> the units' templates, in route order; keyed
        #: by one DataNode, or by the table rule for its every node, so
        #: bounded by the shards, not the keys (DESIGN.md "Plan cache")
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
            insert_row_conditions=[] if self._insert_rows is None else self._bind_rows(params),
            key_joins=self.key_joins,
        )

    def _bind_rows(self, params: tuple[Any, ...]) -> list[dict[str, ShardingValue]]:
        """An INSERT's per-row sharding conditions, as the slow path
        extracts them: one ``ShardingValue`` per row and sharding column."""
        assert self._insert_rows is not None
        rows: list[dict[str, ShardingValue]] = [{} for _ in self._insert_rows]
        for column, indexes in self.insert_keys:
            for conditions, index in zip(rows, indexes):
                conditions[column] = ShardingValue(column, values=[params[index]])
        return rows

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
            table_conditions = conditions.get(logic, {})
            nodes = None
            memo_key: Any = None
            if not table_conditions:
                nodes = table_rule.all_nodes
                if nodes is None:
                    nodes = table_rule.all_nodes = table_rule.route(table_conditions)
                memo_key = table_rule
            elif len(table_conditions) == 1:
                # Point lookups dominate OLTP: the rule memoizes value ->
                # data nodes, so a key seen by any plan skips the strategies.
                column, value = next(iter(table_conditions.items()))
                values = value.values
                memo = table_rule.point_routes.get(column)
                if memo is not None and values is not None and len(values) == 1:
                    try:
                        nodes = memo.get(values[0])
                        if nodes is None:
                            nodes = table_rule.route(table_conditions)
                            if len(memo) < POINT_ROUTES:
                                memo[values[0]] = table_rule.node_lists.setdefault(
                                    tuple(nodes), nodes)
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
        # Everything else (joins, broadcast, unicast) goes through the
        # real router against the skeleton context.
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
        if self._insert_rows is not None:
            return self._insert_units(route_units, params, dialect_of), self._shape(multi)[1]
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

    def _insert_units(self, route_units: list[RouteUnit], params: tuple[Any, ...],
                      dialect_of: Callable[[str], "Dialect"]) -> list[ExecutionUnit]:
        """One unit per routed node: its row template, and its rows as
        :class:`~repro.storage.Bindings` (a one-row unit takes the row's
        parameters as they are)."""
        rows = self._insert_rows
        assert rows is not None
        units = []
        for unit in route_units:
            template = self._template(unit, False, dialect_of)
            picked = unit.row_indexes
            bindings = [row(params) for row in rows] if picked is None else [
                rows[index](params) for index in picked]
            if len(bindings) == 1:
                units.append(ExecutionUnit(unit.data_source, bindings[0], template.statement,
                                           unit, template.dialect, template.sql))
            else:
                units.append(ExecutionUnit(unit.data_source, Bindings(bindings),
                                           template.statement, unit, template.dialect))
        return units

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
            # an INSERT's template is cut from one values row (any: they
            # are all bare placeholders of one width)
            rows = None if self._insert_rows is None else (0,)
            statement, param_order = unit_statement(self._shape(multi)[0], unit, rows)
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
        reason = _insert_bypass(statement, rule)
        if reason:
            return CompiledPlan(sql, None, False, reason)
    elif isinstance(statement, ast.UpdateStatement) and assigned_sharding_columns(statement, rule):
        return CompiledPlan(sql, None, False, "UPDATE assigns a sharding column")

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
    plan.key_joins = template_context.key_joins
    rows = bound_rows(statement)
    if rows is not None:  # an INSERT routes row by row: no point-lookup route
        plan._insert_rows = tuple(map(params_getter, rows))
        conditions = template_context.insert_row_conditions
        plan.insert_keys = tuple(
            (column, tuple(row[column].values[0].index for row in conditions))  # type: ignore[index]
            for column in (conditions[0] if conditions else ()))
        return plan
    refs = [t.lower() for t in plan.logic_tables if not rule.is_broadcast(t)]
    if len(refs) == 1:
        plan.single_table = refs[0]
    return plan


def _insert_bypass(statement: ast.InsertStatement, rule: ShardingRule) -> str:
    """Why an INSERT cannot run from a plan, or ``""``: it needs key
    generation (the generated keys are new on every execution), or its
    values rows are not all bare placeholders of one width."""
    table = statement.table.name
    key_generate = rule.table_rule(table).key_generate if rule.is_sharded(table) else None
    if key_generate is not None and not any(
            column.lower() == key_generate.column.lower() for column in statement.columns):
        return "INSERT key generation"
    if bound_rows(statement) is None:
        return "INSERT values rows not all placeholders of one width"
    return ""


_OPERAND_OPS = COMPARISONS | {"LIKE"}


def _operand_placeholders(statement: ast.Statement) -> int:
    """How many placeholders sit where :func:`repro.sql.normalize` extracts
    literals *and* a value is all the statement needs there: a comparison /
    LIKE / BETWEEN / IN operand (behind unary minuses at most) in WHERE,
    HAVING or a join condition, an UPDATE SET right-hand side, or an
    INSERT values-row item. A
    placeholder anywhere else (select list, GROUP BY, ORDER BY, inside
    arithmetic or a function call) makes the text unfit to stand for
    literal statements: ORDER BY / GROUP BY items are matched to select
    items by their text, which two different literals would share."""
    operands: list[ast.Expression] = []
    if isinstance(statement, ast.UpdateStatement):
        operands += [value for _, value in statement.assignments]
    elif isinstance(statement, ast.InsertStatement):
        operands += [value for row in statement.values_rows for value in row]
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

