"""Compiled storage plans: the one executor of SELECT / INSERT / UPDATE / DELETE.

A :class:`StoragePlan` is compiled from a statement and a database's
current schema and fuses:

- **access-path selection** — the index decision tree runs at compile
  time and leaves behind a point / range / IN / composite-key / scan
  closure bound directly to the index objects;
- **tuple-row pipelines** — WHERE / HAVING predicates, join conditions,
  projection, ORDER BY keys and aggregate accumulators are compiled to
  closures over raw value tuples with precomputed column offsets, and run
  over chunks of :data:`BATCH_ROWS` rows; integer range conjuncts,
  aggregates and stored-column projections are batch kernels, one
  comprehension per chunk instead of a closure call per row;
- **an order-preserving path** — when a sorted index already yields rows
  in ORDER BY order the sort stage is dropped entirely.

**Validity is decided here, from the statement and the schema only.** An
unknown table, column or function, a RIGHT JOIN, an INSERT whose value
count does not match its column list: compiling raises the error, on an
empty table as on a full one, and before any row is read or written. So
does running a plan with fewer parameters than it has placeholders. What
is left to run time is what depends on the data (a type mismatch in a
comparison, a duplicate key, NOT NULL).

**One lookup rule** (:func:`execute_planned`). DDL and TRUNCATE have no
plan and go to :func:`repro.storage.executor.execute_ddl` (status
``bypass``). Anything else is found or compiled: a statement carrying a
``storage_plan_key`` (the rendered SQL text, set by the middleware's
rewrite templates and by ``Cursor``) is looked up in the database's
:class:`StoragePlanCache`, checked against the schema versions it pinned
(:meth:`Database.schema_version`; DDL, DROP/CREATE, CREATE INDEX and
TRUNCATE bump them), compiled on a miss and stored. A statement without a
key is compiled, run and not stored; neither is an INSERT without
placeholders (bulk-load text is never seen twice). A failed compile is
not cached. Both count as a ``miss``.

The differential tests hold every plan equal to the reference interpreter
in ``tests/oracle``.
"""

from __future__ import annotations

import datetime
import operator
from functools import reduce
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from ..cache import LruCache
from ..exceptions import ColumnNotFoundError, ExecutionError, UnsupportedSQLError
from ..sql import ast
from ..sql.formatter import format_expression
from .compiler import (
    BatchFilter,
    CompileContext,
    Getter,
    RowLayout,
    column_offset,
    compile_batch_predicate,
    compile_predicate,
    compile_scalar,
    const_getter,
    int_column_offset,
)
from .executor import (
    QueryResult,
    _collect_aggregates,
    _conjuncts,
    _equi_join_columns,
    _freeze,
    _local_column,
    execute_ddl,
)
from .expression import UNKNOWN, order_key, sort_key
from .table import Table

if TYPE_CHECKING:
    from .database import Database
    from .transaction import Transaction

#: rows per chunk of a plan's pipeline
BATCH_ROWS = 256

Runner = Callable[[Sequence[Any], "Transaction | None"], QueryResult]
RunnerMany = Callable[[Sequence[Sequence[Any]], "Transaction | None"], QueryResult]


class StoragePlan:
    """One compiled statement: schema-version-pinned closure pipeline."""

    __slots__ = ("kind", "versions", "param_count", "runner", "runner_many")

    def __init__(self, kind: str, versions: tuple[tuple[str, int], ...],
                 param_count: int, runner: Runner,
                 runner_many: RunnerMany | None = None):
        self.kind = kind
        self.versions = versions
        self.param_count = param_count
        self.runner = runner
        #: batched executemany entry (INSERT only): all bindings in one
        #: plan invocation, one write-I/O charge for the whole batch
        self.runner_many = runner_many


class StoragePlanCache:
    """Bounded LRU of compiled storage plans for one database, keyed by
    the statement's ``storage_plan_key`` (rendered SQL text)."""

    def __init__(self, capacity: int = 512):
        self._cache: LruCache[Any, StoragePlan] = LruCache(capacity)
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.invalidations = 0

    def stats(self) -> dict[str, Any]:
        base = self._cache.stats()
        return {
            "size": base["size"],
            "capacity": base["capacity"],
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "evictions": base["evictions"],
            "invalidations": self.invalidations,
        }

    def clear(self) -> None:
        self._cache.clear()

    def families(self, source: str = "-"):
        """Metric families for the observability registry."""
        labels = {"source": source}
        events = {
            "hit": self.hits,
            "miss": self.misses,
            "bypass": self.bypasses,
            "invalidation": self.invalidations,
            "eviction": self._cache.evictions,
        }
        return [
            (
                "storage_plan_cache_events_total",
                "counter",
                "storage plan cache events by kind",
                [({**labels, "event": kind}, float(value))
                 for kind, value in events.items()],
            ),
            (
                "storage_plan_cache_size",
                "gauge",
                "compiled storage plans currently cached",
                [(labels, float(len(self._cache)))],
            ),
        ]


# ---------------------------------------------------------------------------
# Execution entry points
# ---------------------------------------------------------------------------


def execute_planned(
    database: "Database",
    stmt: ast.Statement,
    params: Sequence[Any] = (),
    transaction: "Transaction | None" = None,
) -> tuple[QueryResult, str]:
    """Execute one statement; DML requires a transaction for undo logging.

    Returns ``(result, status)`` where status is ``hit`` (cached plan),
    ``miss`` (compiled now) or ``bypass`` (DDL / TRUNCATE: no plan).
    """
    if type(stmt) not in _COMPILERS:
        database.plan_cache.bypasses += 1
        return execute_ddl(database, stmt), "bypass"
    plan, status = _find_or_compile(database, stmt)
    if len(params) < plan.param_count:
        raise _missing_parameter(params)
    return plan.runner(params, transaction), status


def execute_statement(
    database: "Database",
    stmt: ast.Statement,
    params: Sequence[Any] = (),
    transaction: "Transaction | None" = None,
) -> QueryResult:
    """:func:`execute_planned` without the cache status."""
    return execute_planned(database, stmt, params, transaction)[0]


def execute_planned_many(
    database: "Database",
    stmt: ast.Statement,
    seq_of_params: Sequence[Sequence[Any]],
    transaction: "Transaction | None" = None,
) -> tuple[QueryResult, str]:
    """Batched executemany entry for DML: one plan lookup for all bindings.

    An INSERT runs every binding through ``runner_many`` — a single plan
    call charging one write-I/O for the whole batch (the multi-row INSERT
    cost model). UPDATE / DELETE run once per binding; the combined result
    reports the summed cost with one coalesced write-I/O slice so the
    connection can pay it once. A binding with too few parameters raises
    before the first one runs.
    """
    plan, status = _find_or_compile(database, stmt)
    seq = [tuple(params) for params in seq_of_params]
    for params in seq:
        if len(params) < plan.param_count:
            raise _missing_parameter(params)
    if plan.runner_many is not None:
        return plan.runner_many(seq, transaction), status
    total = 0
    cost = 0.0
    write_io = 0.0
    written = None
    for params in seq:
        result = plan.runner(params, transaction)
        total += result.rowcount
        cost += result.cost - result.write_cost
        written = result.written_table
        write_io = max(write_io, result.write_cost)
    return QueryResult(rowcount=total, cost=cost + write_io,
                       written_table=written, write_cost=write_io), status


def _missing_parameter(params: Sequence[Any]) -> ExecutionError:
    return ExecutionError(f"missing parameter for placeholder #{len(params)}")


def _find_or_compile(database: "Database",
                     stmt: ast.Statement) -> tuple[StoragePlan, str]:
    """The plan the statement is bound to, if it was bound on this database
    at its current schema epoch; else the cached plan of a keyed statement
    if its schema versions still hold; otherwise a fresh one (stored unless
    the statement has no key or is an INSERT of literals only). A keyed
    statement leaves bound to what it ran."""
    cache = database.plan_cache
    epoch = database.schema_epoch
    bound = stmt.bound_plan
    if bound is not None and bound[0] is database and bound[1] == epoch:
        cache.hits += 1
        return bound[2], "hit"
    key = stmt.storage_plan_key
    if key is not None:
        plan = cache._cache.get(key)
        if plan is not None:
            current = database.schema_version
            for name, version in plan.versions:
                if current(name) != version:
                    cache.invalidations += 1
                    break
            else:
                cache.hits += 1
                stmt.bound_plan = (database, epoch, plan)
                return plan, "hit"
    plan = compile_storage_plan(database, stmt)
    cache.misses += 1
    if key is not None and not (plan.kind == "insert" and plan.param_count == 0):
        cache._cache.put(key, plan)
        stmt.bound_plan = (database, epoch, plan)
    return plan, "miss"


def compile_storage_plan(database: "Database", stmt: ast.Statement) -> StoragePlan:
    """Compile (and thereby validate) one SELECT / INSERT / UPDATE / DELETE."""
    kind, compiler = _COMPILERS[type(stmt)]
    # Pin versions before compiling: DDL racing the compile leaves a plan
    # that is stale on its first lookup, never one that looks current.
    pinned: dict[str, int] = {}
    for ref in stmt.tables():
        pinned.setdefault(ref.name.lower(), database.schema_version(ref.name))
    runner, runner_many, param_count = compiler(database, stmt)
    return StoragePlan(kind, tuple(pinned.items()), param_count, runner, runner_many)


# ---------------------------------------------------------------------------
# Access paths
# ---------------------------------------------------------------------------


class _AccessPath:
    __slots__ = ("run", "ordered_by", "is_scan")

    def __init__(self, run: Callable[[Sequence[Any]], tuple[list[int], bool]],
                 ordered_by: str | None, is_scan: bool):
        self.run = run
        self.ordered_by = ordered_by  # lower-cased column the ids ascend by
        self.is_scan = is_scan


# An index access path whose bound is NULL returns ``([], True)``: a
# comparison with NULL is never true, so no row can match, and none is read
# or priced. Passed on, ``None`` would mean an open end to
# ``SortedIndex.range`` and the NULL rows to ``HashIndex.lookup``.
#
# A bound of another type family than its column's (``k > '3'`` on an INT
# column) reads every row, in index order where the path promised one, and
# leaves the answer to the WHERE re-check: an index finds and orders keys by
# ``sort_key`` (every number before every string) and hashes them as they
# are, while a comparison cross-coerces (``_compare_values``).

_NUMBER = (int, float, bool)
_TEXT = (str,)
_FAMILY_OF_TYPE = {
    **dict.fromkeys(("INT", "INTEGER", "BIGINT", "SMALLINT", "FLOAT", "DOUBLE",
                     "REAL", "DECIMAL", "NUMERIC", "BOOLEAN", "BOOL"), _NUMBER),
    **dict.fromkeys(("VARCHAR", "CHAR", "TEXT", "BLOB"), _TEXT),
    **dict.fromkeys(("DATE", "TIME", "TIMESTAMP", "DATETIME"),
                    (datetime.datetime, datetime.date)),
}


def _bound_types(table: Table, column: str) -> tuple[type, ...]:
    """The bound types an index on ``column`` answers for exactly."""
    return _FAMILY_OF_TYPE[table.schema.column(column).type.name]

_RANGE_BOUNDS = {
    "<": lambda v: (None, v, True, False),
    "<=": lambda v: (None, v, True, True),
    ">": lambda v: (v, None, False, True),
    ">=": lambda v: (v, None, True, True),
}


def _compile_access(table: Table, exposed: str,
                    where: ast.Expression | None) -> _AccessPath:
    if where is not None:
        predicates = list(_conjuncts(where))
        equalities: dict[str, Callable[[Sequence[Any]], Any]] = {}
        for predicate in predicates:
            if isinstance(predicate, ast.BinaryOp) and predicate.op == "=":
                for col_expr, val_expr in (
                    (predicate.left, predicate.right),
                    (predicate.right, predicate.left),
                ):
                    column = _local_column(col_expr, table, exposed)
                    if column is None:
                        continue
                    getter = const_getter(val_expr)
                    if getter is not None:
                        equalities[column.lower()] = getter
                    break
        if len(equalities) >= 2:
            index = table.covering_index(set(equalities))
            if index is not None:
                pairs = tuple(equalities.items())
                fits = tuple((col, _bound_types(table, col)) for col, _ in pairs)

                def run_composite(params: Sequence[Any]) -> tuple[list[int], bool]:
                    values = {col: g(params) for col, g in pairs}
                    if None in values.values():
                        return [], True
                    for col, types in fits:
                        if type(values[col]) not in types:
                            return table.row_ids(), False
                    return sorted(index.lookup_values(values)), True

                return _AccessPath(run_composite, None, False)
        for predicate in predicates:
            path = _compile_try_index(table, exposed, predicate)
            if path is not None:
                return path
    return _AccessPath(lambda params: (table.row_ids(), False), None, True)


def _compile_try_index(table: Table, exposed: str,
                       predicate: ast.Expression) -> _AccessPath | None:
    if isinstance(predicate, ast.BinaryOp) and predicate.op in ("=", "<", ">", "<=", ">="):
        column = _local_column(predicate.left, table, exposed)
        value_expr = predicate.right
        op = predicate.op
        if column is None:
            column = _local_column(predicate.right, table, exposed)
            value_expr = predicate.left
            op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        if column is None:
            return None
        getter = const_getter(value_expr)
        if getter is None:
            return None
        fits = _bound_types(table, column)
        if op == "=":
            hash_index = table.equality_index(column)
            if hash_index is not None:
                def run_point(params: Sequence[Any]) -> tuple[list[int], bool]:
                    value = getter(params)
                    if value is None:
                        return [], True
                    if type(value) not in fits:
                        return table.row_ids(), False
                    return sorted(hash_index.lookup(value)), True

                return _AccessPath(run_point, None, False)
            sorted_index = table.sorted_index(column)
            if sorted_index is not None:
                def run_eq_range(params: Sequence[Any]) -> tuple[list[int], bool]:
                    value = getter(params)
                    if value is None:
                        return [], True
                    if type(value) not in fits:
                        return table.row_ids(), False
                    return sorted_index.range(value, value), True

                return _AccessPath(run_eq_range, None, False)
            return None
        sorted_index = table.sorted_index(column)
        if sorted_index is None:
            return None
        bounds = _RANGE_BOUNDS[op]

        def run_range(params: Sequence[Any]) -> tuple[list[int], bool]:
            value = getter(params)
            if value is None:
                return [], True
            if type(value) not in fits:
                return sorted_index.range(), False
            return sorted_index.range(*bounds(value)), True

        return _AccessPath(run_range, column.lower(), False)
    if isinstance(predicate, ast.InExpr) and not predicate.negated:
        column = _local_column(predicate.operand, table, exposed)
        if column is None or column.lower() not in table.indexed_columns():
            return None
        getters = []
        for item in predicate.items:
            getter = const_getter(item)
            if getter is None:
                return None
            getters.append(getter)
        hash_index = table.equality_index(column)
        if hash_index is None:
            return None
        in_getters = tuple(getters)
        fits = _bound_types(table, column)

        def run_in(params: Sequence[Any]) -> tuple[list[int], bool]:
            ids: list[int] = []
            for g in in_getters:
                value = g(params)
                if value is None:
                    continue  # a NULL item matches no row
                if type(value) not in fits:
                    return table.row_ids(), False
                found = hash_index.lookup(value)
                if found:
                    ids.extend(found)
            return sorted(set(ids)), True

        return _AccessPath(run_in, None, False)
    if isinstance(predicate, ast.BetweenExpr) and not predicate.negated:
        column = _local_column(predicate.operand, table, exposed)
        if column is None:
            return None
        low_getter = const_getter(predicate.low)
        high_getter = const_getter(predicate.high)
        if low_getter is None or high_getter is None:
            return None
        sorted_index = table.sorted_index(column)
        if sorted_index is None:
            return None
        fits = _bound_types(table, column)

        def run_between(params: Sequence[Any]) -> tuple[list[int], bool]:
            low, high = low_getter(params), high_getter(params)
            if low is None or high is None:
                return [], True
            if type(low) not in fits or type(high) not in fits:
                return sorted_index.range(), False
            return sorted_index.range(low, high), True

        return _AccessPath(run_between, column.lower(), False)
    return None


def _reversed_path(path: _AccessPath) -> _AccessPath:
    inner = path.run

    def run(params: Sequence[Any]) -> tuple[list[int], bool]:
        ids, used_index = inner(params)
        ids = list(ids)
        ids.reverse()
        return ids, used_index

    return _AccessPath(run, path.ordered_by, path.is_scan)


def _add_table(layout: RowLayout, exposed: str, table: Table) -> None:
    """Lay ``table``'s columns out next, with their declared types."""
    columns = table.schema.columns
    layout.add(exposed, [c.name for c in columns], [c.type.name for c in columns])


# ---------------------------------------------------------------------------
# SELECT
# ---------------------------------------------------------------------------


def _compile_select(database: "Database", stmt: ast.SelectStatement):
    if stmt.from_table is None:
        # SELECT of pure expressions, e.g. SELECT 1: one row, nothing read.
        const_ctx = CompileContext("const")
        columns, project = _compile_projection(stmt, RowLayout(), const_ctx, False)

        def run_constant(params: Sequence[Any],
                         transaction: "Transaction | None" = None) -> QueryResult:
            return QueryResult(columns=columns, rows=iter(project([None], params)))

        return run_constant, None, const_ctx.param_count
    base_ref = stmt.from_table
    base_table = database.table(base_ref.name)
    layout = RowLayout()
    _add_table(layout, base_ref.exposed_name, base_table)

    access = _compile_access(base_table, base_ref.exposed_name, stmt.where)

    scan_ctx = CompileContext("scan", layout)
    join_steps = []
    join_tables: list[Table] = []
    for join in stmt.joins:
        join_steps.append(_compile_join(database, join, layout, scan_ctx))
        join_tables.append(database.table(join.table.name))
    where_batch = (compile_batch_predicate(stmt.where, scan_ctx)
                   if stmt.where is not None else None)

    # Aggregate mode is decided by select-list aggregates; the accumulator
    # slots also cover HAVING / ORDER BY aggregates (_collect_aggregates).
    has_agg = bool(stmt.group_by or stmt.aggregates())
    aggregates = _collect_aggregates(stmt) if has_agg else []
    contexts = [scan_ctx]

    if has_agg:
        agg_slots = {format_expression(call): i for i, call in enumerate(aggregates)}
        out_ctx = CompileContext("group", layout, agg_slots)
        contexts.append(out_ctx)
        agg_specs = tuple(_CompiledAgg(call, scan_ctx) for call in aggregates)
        group_getters = tuple(compile_scalar(e, scan_ctx) for e in stmt.group_by)
        having_pred = (compile_predicate(stmt.having, out_ctx)
                       if stmt.having is not None else None)
        aggregate_stage = _make_aggregate_stage(agg_specs, group_getters, having_pred)
        plain_having = None
    else:
        out_ctx = scan_ctx
        aggregate_stage = None
        plain_having = (compile_batch_predicate(stmt.having, scan_ctx)
                        if stmt.having is not None else None)

    # ORDER BY: resolve select-list aliases, then compile each key in the
    # output context.
    order_specs: list[tuple[Getter, bool, ast.Expression]] = []
    for item in stmt.order_by:
        expr = item.expression
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            for select_item in stmt.select_items:
                if select_item.alias and select_item.alias.lower() == expr.name.lower():
                    expr = select_item.expression
                    break
        order_specs.append((compile_scalar(expr, out_ctx), item.desc, expr))

    # Order-preserving access: when a sorted index already yields the
    # single ORDER BY key's order, drop the sort stage (and for a plain
    # scan, walk the index instead of the heap — same rows, no sort).
    sort_stage = _make_sort_stage(order_specs, out_ctx)
    if order_specs and len(order_specs) == 1 and not has_agg and not stmt.joins:
        key_expr = order_specs[0][2]
        desc = order_specs[0][1]
        if isinstance(key_expr, ast.ColumnRef):
            column = _local_column(key_expr, base_table, base_ref.exposed_name)
            if column is not None:
                lower = column.lower()
                ordered = None
                if access.ordered_by == lower:
                    ordered = access
                elif access.is_scan:
                    sorted_index = base_table.sorted_index(column)
                    if sorted_index is not None:
                        def run_ordered_scan(params: Sequence[Any],
                                             _index=sorted_index) -> tuple[list[int], bool]:
                            return _index.range(None, None), False

                        ordered = _AccessPath(run_ordered_scan, lower, True)
                if ordered is not None:
                    access = _reversed_path(ordered) if desc else ordered
                    sort_stage = None

    distinct_stage = (_make_distinct_stage(stmt, out_ctx, has_agg)
                      if stmt.distinct else None)

    if stmt.limit is not None:
        const_ctx = CompileContext("const")
        contexts.append(const_ctx)
        limit_stage = _make_limit_stage(stmt.limit, const_ctx)
    else:
        limit_stage = None

    columns, project = _compile_projection(stmt, layout, out_ctx, has_agg)

    latency = database.latency
    use_where_inline = not stmt.joins  # join plans filter after all joins

    def base_batches(row_ids: list[int], params: Sequence[Any]) -> Iterator[list]:
        """Read rows chunk-at-a-time; the WHERE filter runs per chunk
        (batch kernels instead of per-row calls). Rows are read here, when
        the result is drained — after the index slice was taken and with
        no lock held — so the filter re-checks every row it is given."""
        value_tuples = base_table.value_tuples
        inline = where_batch if use_where_inline else None
        for start in range(0, len(row_ids), BATCH_ROWS):
            batch = value_tuples(row_ids[start:start + BATCH_ROWS])
            if inline is not None:
                batch = inline(batch, params)
            if batch:
                yield batch

    def run(params: Sequence[Any],
            transaction: "Transaction | None" = None) -> QueryResult:
        row_ids, used_index = access.run(params)
        base_rows = base_table.row_count
        examined = len(row_ids) if used_index else base_rows
        for join_table in join_tables:
            examined += join_table.row_count
        cost = latency.statement_cost(base_rows, examined, used_index)

        batches: Iterator[list] = base_batches(row_ids, params)
        for step in join_steps:
            batches = step(batches, params)
        if join_steps and where_batch is not None:
            post_filter = where_batch
            batches = (kept for b in batches
                       if (kept := post_filter(b, params)))
        if aggregate_stage is not None:
            batches = aggregate_stage(batches, params)
        elif plain_having is not None:
            having_filter = plain_having
            batches = (kept for b in batches
                       if (kept := having_filter(b, params)))
        if sort_stage is not None:
            batches = sort_stage(batches, params)
        if distinct_stage is not None:
            batches = distinct_stage(batches, params)
        if limit_stage is not None:
            batches = limit_stage(batches, params)
        projected = (project(batch, params) for batch in batches)
        return QueryResult(columns=columns,
                           rows=chain.from_iterable(projected), cost=cost)

    return run, None, max(ctx.param_count for ctx in contexts)


def _order_norm(value: Any) -> Any:
    return None if value is UNKNOWN else value


def _make_sort_stage(order_specs, ctx: CompileContext):
    """Batch stage: flatten all chunks, sort once, emit one chunk.

    When every key is a stored column (never UNKNOWN) the row's values are
    read by one ``itemgetter`` and the key is built at compile time;
    otherwise per execution, from the keys' closures."""
    if not order_specs:
        return None
    descs = [desc for _, desc, _ in order_specs]
    offsets = [column_offset(expr, ctx) for _, _, expr in order_specs]
    stored_key = (order_key(operator.itemgetter(*offsets), descs)
                  if None not in offsets else None)
    getters = tuple(g for g, _, _ in order_specs)

    def read_keys(params: Sequence[Any]) -> Callable[[Any], Any]:
        if len(getters) == 1:
            (g,) = getters
            return lambda r: _order_norm(g(r, params))
        return lambda r: tuple([_order_norm(g(r, params)) for g in getters])

    def sort_stage(batches: Iterator[list], params: Sequence[Any]) -> Iterator[list]:
        materialized = list(chain.from_iterable(batches))
        key, reverse = stored_key or order_key(read_keys(params), descs)
        materialized.sort(key=key, reverse=reverse)
        if materialized:
            yield materialized

    return sort_stage


def _compile_join(database: "Database", join: ast.Join, layout: RowLayout,
                  ctx: CompileContext):
    if join.kind == "RIGHT":
        raise UnsupportedSQLError(
            "RIGHT JOIN is not supported; rewrite as a LEFT JOIN with the "
            "operands swapped"
        )
    right_table = database.table(join.table.name)
    right_name = join.table.exposed_name
    right_cols = right_table.schema.column_names
    right_width = len(right_cols)
    left_join = join.kind == "LEFT"

    eq = _equi_join_columns(join.condition, right_name) if join.condition else None
    left_key: Getter | None = None
    key_pos: int | None = None
    if eq is not None:
        left_expr, right_col = eq
        try:
            # Exact-name match only; a miss buckets every row under None,
            # which the left-key `is not None` guard then never matches.
            key_pos = right_cols.index(right_col)
        except ValueError:
            key_pos = None
        try:
            left_key = compile_scalar(left_expr, ctx)
        except ColumnNotFoundError:
            # Resolves (if at all) only against the right table, which the
            # left row does not hold yet: the key is NULL for every row.
            # The full condition, compiled below, decides validity.
            left_key = None

    _add_table(layout, right_name, right_table)
    condition = (compile_predicate(join.condition, ctx)
                 if join.condition is not None else None)
    null_row = (None,) * right_width

    if eq is not None:
        def hash_join(batches: Iterator[list], params: Sequence[Any]) -> Iterator[list]:
            # Build once per execution (first consumption), probe per chunk.
            right_rows = [tuple(raw.values()) for _, raw in right_table.scan()]
            buckets: dict[Any, list[tuple]] = {}
            if key_pos is None:
                buckets[None] = right_rows
            else:
                for right_row in right_rows:
                    buckets.setdefault(_freeze(right_row[key_pos]), []).append(right_row)
            for batch in batches:
                out: list[tuple] = []
                append = out.append
                for left in batch:
                    key = _freeze(left_key(left, params)) if left_key is not None else None
                    matched = buckets.get(key, ()) if key is not None else ()
                    emitted = False
                    for right_row in matched:
                        combined = left + right_row
                        if condition is None or condition(combined, params):
                            emitted = True
                            append(combined)
                    if not emitted and left_join:
                        append(left + null_row)
                if out:
                    yield out

        return hash_join

    def nested_loop(batches: Iterator[list], params: Sequence[Any]) -> Iterator[list]:
        right_rows = [tuple(raw.values()) for _, raw in right_table.scan()]
        for batch in batches:
            out: list[tuple] = []
            append = out.append
            for left in batch:
                emitted = False
                for right_row in right_rows:
                    combined = left + right_row
                    if condition is None or condition(combined, params):
                        emitted = True
                        append(combined)
                if not emitted and left_join:
                    append(left + null_row)
            if out:
                yield out

    return nested_loop


class _CompiledAgg:
    """Compiled accumulator of one aggregate call.

    State is a 5-slot list: [count, total, minimum, maximum, distinct_set].
    """

    __slots__ = ("name", "count_star", "distinct", "arg", "int_offset")

    def __init__(self, call: ast.FunctionCall, ctx: CompileContext):
        self.name = call.name.upper()  # one of ast.FunctionCall.AGGREGATES
        self.count_star = (self.name == "COUNT" and bool(call.args)
                           and isinstance(call.args[0], ast.Star))
        self.distinct = call.distinct
        self.arg = (compile_scalar(call.args[0], ctx)
                    if call.args and not self.count_star else None)
        #: the offset of a plain integer-column argument, read directly
        self.int_offset = (int_column_offset(call.args[0], ctx)
                           if self.arg is not None else None)

    def new_state(self) -> list:
        return [0, None, None, None, set() if self.distinct else None]

    def accumulate_many(self, state: list, rows: list, params: Sequence[Any]) -> None:
        """Fold one chunk of rows into ``state``, as the oracle folds a
        group: NULL / UNKNOWN arguments are skipped, DISTINCT keeps each
        value's first sighting, SUM / AVG add left to right (``sum()`` only
        over integers: on floats it may compensate, 3.12's does) and MIN /
        MAX keep the first of equal extremes."""
        if self.count_star:
            state[0] += len(rows)
            return
        i = self.int_offset
        if i is not None:
            values = [v for r in rows if (v := r[i]) is not None]
        elif self.arg is not None:
            arg = self.arg
            values = [v for r in rows
                      if (v := arg(r, params)) is not None and v is not UNKNOWN]
        else:
            return
        seen = state[4]
        if seen is not None:
            fresh = []
            for value in values:
                frozen = _freeze(value)
                if frozen not in seen:
                    seen.add(frozen)
                    fresh.append(value)
            values = fresh
        if not values:
            return
        state[0] += len(values)
        name = self.name
        if name in ("SUM", "AVG"):
            if i is not None:
                total = sum(values)
                state[1] = total if state[1] is None else state[1] + total
            elif state[1] is None:
                state[1] = reduce(operator.add, values)
            else:
                state[1] = reduce(operator.add, values, state[1])
        elif name in ("MIN", "MAX"):
            slot = 2 if name == "MIN" else 3
            if state[slot] is not None:
                values.insert(0, state[slot])  # the earlier sighting wins a tie
            pick = min if name == "MIN" else max
            state[slot] = pick(values) if i is not None else pick(values, key=sort_key)

    def result(self, state: list) -> Any:
        name = self.name
        if name == "COUNT":
            return state[0]
        if name == "SUM":
            return state[1]
        if name == "AVG":
            return None if state[0] == 0 or state[1] is None else state[1] / state[0]
        if name == "MIN":
            return state[2]
        return state[3]


def _make_aggregate_stage(agg_specs, group_getters, having_pred):
    def aggregate(batches: Iterator[list], params: Sequence[Any]) -> Iterator[list]:
        # group key -> (its first row, one state per aggregate), in the
        # order the groups were first seen
        groups: dict[tuple, tuple] = {}
        for batch in batches:
            if group_getters:
                buckets: dict[tuple, list] = {}
                for row in batch:
                    key = tuple(_freeze(g(row, params)) for g in group_getters)
                    buckets.setdefault(key, []).append(row)
            else:
                buckets = {(): batch}
            for key, rows in buckets.items():
                group = groups.get(key)
                if group is None:
                    group = groups[key] = (rows[0], [spec.new_state() for spec in agg_specs])
                for spec, agg_state in zip(agg_specs, group[1]):
                    spec.accumulate_many(agg_state, rows, params)
        if not groups and not group_getters:
            # Aggregates over empty input still yield one row (COUNT -> 0);
            # sample=None makes column refs raise: there is no row to read.
            groups[()] = (None, [spec.new_state() for spec in agg_specs])
        out: list = []
        for sample, states in groups.values():
            row = (sample, tuple(spec.result(agg_state)
                                 for spec, agg_state in zip(agg_specs, states)))
            if having_pred is None or having_pred(row, params):
                out.append(row)
        if out:
            yield out

    return aggregate


def _make_distinct_stage(stmt: ast.SelectStatement, ctx: CompileContext,
                         has_agg: bool):
    key_getters: list[Getter | None] = []
    for item in stmt.select_items:
        if isinstance(item.expression, ast.Star):
            key_getters.append(None)  # whole-row component
        else:
            key_getters.append(compile_scalar(item.expression, ctx))
    getters = tuple(key_getters)

    if has_agg:
        def whole_row(row: Any) -> Any:
            sample = (tuple(_freeze(v) for v in row[0])
                      if row[0] is not None else None)
            return (sample, tuple(_freeze(v) for v in row[1]))
    else:
        def whole_row(row: Any) -> Any:
            return tuple(_freeze(v) for v in row)

    def distinct(batches: Iterator[list], params: Sequence[Any]) -> Iterator[list]:
        seen: set[tuple] = set()
        add = seen.add
        for batch in batches:
            out: list = []
            append = out.append
            for row in batch:
                key = tuple(
                    whole_row(row) if g is None else _freeze(g(row, params))
                    for g in getters
                )
                if key not in seen:
                    add(key)
                    append(row)
            if out:
                yield out

    return distinct


def _make_limit_stage(limit: ast.Limit, ctx: CompileContext):
    offset_getter = (compile_scalar(limit.offset, ctx)
                     if limit.offset is not None else None)
    count_getter = (compile_scalar(limit.count, ctx)
                    if limit.count is not None else None)

    def apply_limit(batches: Iterator[list], params: Sequence[Any]) -> Iterator[list]:
        offset = int(offset_getter(None, params)) if offset_getter is not None else 0
        count = int(count_getter(None, params)) if count_getter is not None else None
        skipped = 0
        emitted = 0
        for batch in batches:
            if skipped < offset:
                if skipped + len(batch) <= offset:
                    skipped += len(batch)
                    continue
                batch = batch[offset - skipped:]
                skipped = offset
            if count is not None:
                take = count - emitted
                if take <= 0:
                    return
                if len(batch) > take:
                    batch = batch[:take]
            emitted += len(batch)
            if batch:
                yield batch
            if count is not None and emitted >= count:
                return

    return apply_limit


def _compile_projection(stmt: ast.SelectStatement, layout: RowLayout,
                        ctx: CompileContext, has_agg: bool):
    """Output column names and a chunk projector ``(rows, params) -> list``.

    A select list of stored columns only (never UNKNOWN) is one
    ``itemgetter`` per row; anything else calls each item's closure."""
    columns: list[str] = []
    getters: list[Getter] = []
    offsets: list[int | None] = []  # of stored columns, None for the rest
    for item in stmt.select_items:
        expr = item.expression
        if isinstance(expr, ast.Star):
            if ctx.mode == "const":
                raise ExecutionError("'*' is not a scalar expression")
            for exposed, slot_cols, base in layout.slots:
                if expr.table and exposed.lower() != expr.table.lower():
                    continue
                for i, col_name in enumerate(slot_cols):
                    columns.append(col_name)
                    offset = base + i
                    if has_agg:
                        # A missing sample (aggregate over no rows)
                        # yields None, never raises.
                        getters.append(
                            lambda row, params, _i=offset:
                            row[0][_i] if row[0] is not None else None
                        )
                        offsets.append(None)
                    else:
                        getters.append(lambda row, params, _i=offset: row[_i])
                        offsets.append(offset)
            continue
        columns.append(item.output_name)
        getter = compile_scalar(expr, ctx)
        offsets.append(column_offset(expr, ctx))

        def normalized(row: Any, params: Sequence[Any], _g=getter) -> Any:
            value = _g(row, params)
            return None if value is UNKNOWN else value

        getters.append(normalized)
    if None not in offsets:
        if len(offsets) == 1:
            (i,) = offsets
            return columns, lambda rows, params: [(r[i],) for r in rows]
        read = operator.itemgetter(*offsets)
        return columns, lambda rows, params: list(map(read, rows))
    project_getters = tuple(getters)

    def project(rows: list, params: Sequence[Any]) -> list:
        return [tuple(g(r, params) for g in project_getters) for r in rows]

    return columns, project


# ---------------------------------------------------------------------------
# UPDATE / DELETE
# ---------------------------------------------------------------------------


def _candidate_batches(table: Table, row_ids: list[int],
                       where_batch: BatchFilter | None,
                       params: Sequence[Any]) -> Iterator[list]:
    """Chunked (row + row_id) candidates for DML, batch-filtered.

    Each candidate tuple is the raw value tuple with its row id appended
    one slot past the layout width — compiled getters only read layout
    offsets, so the extra element is invisible to predicates/assignments.
    Rows are snapshotted before any mutation in the chunk; each candidate
    is visited exactly once and mutations only touch the visited row, so
    chunked read-then-write is equivalent to the row-at-a-time loop.
    """
    get = table.get
    for start in range(0, len(row_ids), BATCH_ROWS):
        batch = []
        append = batch.append
        for row_id in row_ids[start:start + BATCH_ROWS]:
            try:
                raw = get(row_id)
            except KeyError:
                continue
            append(tuple(raw.values()) + (row_id,))
        if where_batch is not None:
            batch = where_batch(batch, params)
        if batch:
            yield batch


def _compile_update(database: "Database", stmt: ast.UpdateStatement):
    table = database.table(stmt.table.name)
    exposed = stmt.table.exposed_name
    layout = RowLayout()
    _add_table(layout, exposed, table)
    ctx = CompileContext("scan", layout)
    where_batch = (compile_batch_predicate(stmt.where, ctx)
                   if stmt.where is not None else None)
    assignments = tuple(
        (table.schema.column(column).name, compile_scalar(expr, ctx))
        for column, expr in stmt.assignments
    )
    access = _compile_access(table, exposed, stmt.where)
    latency = database.latency

    def run(params: Sequence[Any],
            transaction: "Transaction | None") -> QueryResult:
        txn = _require_txn(transaction)
        row_ids, used_index = access.run(params)
        updated = 0
        for batch in _candidate_batches(table, row_ids, where_batch, params):
            for row in batch:
                changes = {column: g(row, params) for column, g in assignments}
                old_row = table.update(row[-1], changes)
                txn.record_update(table, row[-1], old_row)
            updated += len(batch)
        examined = len(row_ids) if used_index else table.row_count
        cost = latency.statement_cost(table.row_count, examined + updated, used_index)
        io = latency.write_cost(table.row_count) if updated else 0.0
        return QueryResult(rowcount=updated, cost=cost + io,
                           written_table=table, write_cost=io)

    return run, None, ctx.param_count


def _compile_delete(database: "Database", stmt: ast.DeleteStatement):
    table = database.table(stmt.table.name)
    exposed = stmt.table.exposed_name
    layout = RowLayout()
    _add_table(layout, exposed, table)
    ctx = CompileContext("scan", layout)
    where_batch = (compile_batch_predicate(stmt.where, ctx)
                   if stmt.where is not None else None)
    access = _compile_access(table, exposed, stmt.where)
    latency = database.latency

    def run(params: Sequence[Any],
            transaction: "Transaction | None") -> QueryResult:
        txn = _require_txn(transaction)
        row_ids, used_index = access.run(params)
        deleted = 0
        for batch in _candidate_batches(table, row_ids, where_batch, params):
            for row in batch:
                old_row = table.delete(row[-1])
                txn.record_delete(table, row[-1], old_row)
            deleted += len(batch)
        examined = len(row_ids) if used_index else table.row_count
        cost = latency.statement_cost(table.row_count, examined + deleted, used_index)
        io = latency.write_cost(table.row_count) if deleted else 0.0
        return QueryResult(rowcount=deleted, cost=cost + io,
                           written_table=table, write_cost=io)

    return run, None, ctx.param_count


# ---------------------------------------------------------------------------
# INSERT
# ---------------------------------------------------------------------------


def _compile_insert(database: "Database", stmt: ast.InsertStatement):
    """Compiled INSERT: per-row value getters bound in a constant context
    (a column reference is an unknown column), plus a batched
    ``runner_many`` that executes every executemany binding in one plan
    invocation and charges write I/O once for the whole batch — the same
    amortization one multi-row INSERT statement gets.
    """
    table = database.table(stmt.table.name)
    columns = tuple(table.schema.column(name).name
                    for name in stmt.columns or table.schema.column_names)
    ctx = CompileContext("const")
    row_specs = []
    for row_exprs in stmt.values_rows:
        if len(row_exprs) != len(columns):
            raise ExecutionError(
                f"INSERT column/value count mismatch: {len(columns)} vs {len(row_exprs)}"
            )
        row_specs.append(tuple(compile_scalar(expr, ctx) for expr in row_exprs))
    specs = tuple(row_specs)
    latency = database.latency

    def insert_rows(params: Sequence[Any], txn: "Transaction") -> int:
        inserted = 0
        insert = table.insert
        record = txn.record_insert
        for getters in specs:
            values = {col: g(None, params) for col, g in zip(columns, getters)}
            row_id, _ = insert(values)
            record(table, row_id)
            inserted += 1
        return inserted

    def run(params: Sequence[Any],
            transaction: "Transaction | None") -> QueryResult:
        txn = _require_txn(transaction)
        inserted = insert_rows(params, txn)
        cost = latency.statement_cost(table.row_count, inserted, uses_index=True)
        io = latency.write_cost(table.row_count)
        return QueryResult(rowcount=inserted, cost=cost + io,
                           written_table=table, write_cost=io)

    def run_many(seq_of_params: Sequence[Sequence[Any]],
                 transaction: "Transaction | None") -> QueryResult:
        txn = _require_txn(transaction)
        inserted = 0
        for params in seq_of_params:
            inserted += insert_rows(params, txn)
        cost = latency.statement_cost(table.row_count, inserted, uses_index=True)
        io = latency.write_cost(table.row_count) if inserted else 0.0
        return QueryResult(rowcount=inserted, cost=cost + io,
                           written_table=table, write_cost=io)

    return run, run_many, ctx.param_count


def _require_txn(transaction: "Transaction | None") -> "Transaction":
    if transaction is None:
        raise ExecutionError("DML requires an active transaction context")
    return transaction


_COMPILERS = {
    ast.SelectStatement: ("select", _compile_select),
    ast.UpdateStatement: ("update", _compile_update),
    ast.DeleteStatement: ("delete", _compile_delete),
    ast.InsertStatement: ("insert", _compile_insert),
}
