"""Compiled storage plans: the one executor of SELECT / INSERT / UPDATE / DELETE.

A :class:`StoragePlan` is compiled from a statement and a database's
current schema and fuses:

- **access-path selection** — the index decision tree runs at compile
  time and leaves behind a point / range / IN / composite-key / scan
  closure bound directly to the index objects;
- **list stages over tuple rows** — WHERE / HAVING predicates, join
  conditions, projection, ORDER BY keys and aggregates are compiled to
  closures over raw value tuples with precomputed column offsets; a
  SELECT's rows are read at its result's first fetch by one call, and
  each stage is a list -> list function; integer range conjuncts,
  aggregates, native sort keys and stored-column projections are batch
  kernels, one comprehension or ``itemgetter`` instead of a call per row;
- **an order-preserving path** — when a sorted index already yields rows
  in ORDER BY order the sort stage is dropped entirely.

**Validity is decided here, from the statement and the schema only.** An
unknown table, column or function, a RIGHT JOIN, an INSERT whose value
count does not match its column list: compiling raises the error, on an
empty table as on a full one, and before any row is read or written. So
does running a plan with fewer parameters than it has placeholders. What
is left to run time is what depends on the data (a type mismatch in a
comparison, a duplicate key, NOT NULL).

**One lookup rule** (:func:`find_plan`). DDL and TRUNCATE have no plan and
go to :func:`repro.storage.executor.execute_ddl` (status ``bypass``). A
statement bound to a plan of this database at its current schema epoch
runs it (the storage door, ``Connection._run``, makes that one check
inline). Anything else is found or compiled: a statement carrying a
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

import functools
import operator
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from ..cache import CacheStats, LruCache
from ..exceptions import ColumnNotFoundError, ExecutionError, UnsupportedSQLError
from ..sql import ast
from ..sql.formatter import format_expression
from .compiler import (
    BatchFilter,
    CompileContext,
    Getter,
    RowLayout,
    aggregate_value,
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
    _equi_join_columns,
    _local_column,
    execute_ddl,
)
from .expression import UNKNOWN, aggregate, distinct_rows, hashable, order_key
from .latency import Pricer
from .table import Table
from .types import FAMILY_OF_TYPE

if TYPE_CHECKING:
    from .database import Database
    from .transaction import Transaction

#: rows per read step of a DML statement's candidates and of a LIMIT that
#: can stop reading early
BATCH_ROWS = 256

#: one stage of a SELECT: ``(rows, params) -> rows``
Stage = Callable[[list, Sequence[Any]], list]

_SECOND = operator.itemgetter(1)
#: ``value is not None`` as a C callable (no Python frame per value)
_NOT_NULL = functools.partial(operator.is_not, None)

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


class StoragePlanCache(CacheStats):
    """Bounded LRU of compiled storage plans for one database, keyed by
    the statement's ``storage_plan_key`` (rendered SQL text)."""

    def __init__(self, capacity: int = 512):
        super().__init__()
        self._cache: LruCache[Any, StoragePlan] = LruCache(capacity)

    def stats(self) -> dict[str, Any]:
        return {"size": len(self._cache), "capacity": self._cache.capacity, **self.counters()}

    def clear(self) -> None:
        self._cache.clear()

    def families(self, source: str = "-"):
        """Metric families for the observability registry."""
        labels = {"source": source}
        return [
            self.events_family("storage_plan_cache_events_total",
                               "storage plan cache events by kind", labels),
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


def find_plan(database: "Database",
              stmt: ast.Statement) -> tuple[StoragePlan | None, str]:
    """The plan to run ``stmt`` with on ``database``, and the cache status.

    None and ``bypass`` for a statement that has no plan (DDL, TRUNCATE).
    Otherwise the plan the statement is bound to, if it was bound on this
    database at its current schema epoch (``hit``); else the cached plan
    of a keyed statement if its schema versions still hold (``hit``);
    otherwise a fresh one (``miss``), stored unless the statement has no
    key or is an INSERT of literals only. A keyed statement leaves bound
    to what it ran."""
    cache = database.plan_cache
    if type(stmt) not in _COMPILERS:
        cache.bypasses += 1
        return None, "bypass"
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
        cache.evictions += cache._cache.put(key, plan)
        stmt.bound_plan = (database, epoch, plan)
    return plan, "miss"


def execute_statement(
    database: "Database",
    stmt: ast.Statement,
    params: Sequence[Any] = (),
    transaction: "Transaction | None" = None,
) -> QueryResult:
    """Run one statement on ``database`` with no connection around it: no
    admission, locking or booking (a scratch database, tests). DML
    requires a transaction for undo logging."""
    plan, _ = find_plan(database, stmt)
    if plan is None:
        return execute_ddl(database, stmt)
    if len(params) < plan.param_count:
        raise missing_parameter(params)
    return plan.runner(params, transaction)


def run_many(plan: StoragePlan, seq_of_params: Sequence[Sequence[Any]],
             transaction: "Transaction | None") -> QueryResult:
    """Run a DML plan once for every binding of an executemany.

    An INSERT runs every binding through ``runner_many`` — a single plan
    call charging one write-I/O for the whole batch (the multi-row INSERT
    cost model). UPDATE / DELETE run once per binding; the combined result
    reports the summed cost with one coalesced write-I/O slice so the
    connection can pay it once. A binding with too few parameters raises
    before the first one runs.
    """
    seq = [tuple(params) for params in seq_of_params]
    for params in seq:
        if len(params) < plan.param_count:
            raise missing_parameter(params)
    if plan.runner_many is not None:
        return plan.runner_many(seq, transaction)
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
                       written_table=written, write_cost=write_io)


def missing_parameter(params: Sequence[Any]) -> ExecutionError:
    return ExecutionError(f"missing parameter for placeholder #{len(params)}")


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
# ``sort_key`` (every number before every string) or, on a NOT NULL numeric
# column, by the number itself, and hashes them as they are, while a
# comparison cross-coerces (``_compare_values``). So a bound that reaches an
# index is always of its column's family, and a native key never meets a
# value it cannot compare with.


def _bound_types(table: Table, column: str) -> tuple[type, ...]:
    """The bound types an index on ``column`` answers for exactly."""
    return FAMILY_OF_TYPE[table.schema.column(column).type.name]

_RANGE_BOUNDS = {
    "<": lambda v: (None, v, True, False),
    "<=": lambda v: (None, v, True, True),
    ">": lambda v: (v, None, False, True),
    ">=": lambda v: (v, None, True, True),
}


def _compile_access(table: Table, exposed: str,
                    where: ast.Expression | None) -> _AccessPath:
    if where is not None:
        predicates = ast.conjuncts(where)
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
                    return index.lookup_values(values), True

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
            # a sorted index always has a hash index on its column beside it
            hash_index = table.equality_index(column)
            if hash_index is None:
                return None

            def run_point(params: Sequence[Any]) -> tuple[list[int], bool]:
                value = getter(params)
                if value is None:
                    return [], True
                if type(value) not in fits:
                    return table.row_ids(), False
                return hash_index.lookup(value), True

            return _AccessPath(run_point, None, False)
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
        return ids[::-1], used_index

    return _AccessPath(run, path.ordered_by, path.is_scan)


def _add_table(layout: RowLayout, exposed: str, table: Table, nullable: bool = False) -> None:
    """Lay ``table``'s columns out next, with their declared types and
    which never hold NULL — none of a ``nullable`` side's (an outer join's)."""
    columns = table.schema.columns
    layout.add(exposed, [c.name for c in columns], [c.type.name for c in columns],
               [not nullable and c.not_null and not c.auto_increment for c in columns])


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
            return QueryResult(columns, rows=project([None], params))

        return run_constant, None, const_ctx.param_count
    base_ref = stmt.from_table
    base_table = database.table(base_ref.name)
    layout = RowLayout()
    _add_table(layout, base_ref.exposed_name, base_table)

    access = _compile_access(base_table, base_ref.exposed_name, stmt.where)

    scan_ctx = CompileContext("scan", layout)
    joins: list[Stage] = []
    join_tables: list[Table] = []
    for join in stmt.joins:
        joins.append(_compile_join(database, join, layout, scan_ctx))
        join_tables.append(database.table(join.table.name))
    where = (compile_batch_predicate(stmt.where, scan_ctx)
             if stmt.where is not None else None)

    # Aggregate mode is decided by select-list aggregates; the aggregate
    # slots also cover HAVING / ORDER BY aggregates (_collect_aggregates).
    has_agg = bool(stmt.group_by or stmt.aggregates())
    contexts = [scan_ctx]

    if has_agg:
        aggregates = _collect_aggregates(stmt)
        agg_slots = {format_expression(call): i for i, call in enumerate(aggregates)}
        out_ctx = CompileContext("group", layout, agg_slots)
        contexts.append(out_ctx)
        agg_specs = tuple(_CompiledAgg(call, scan_ctx) for call in aggregates)
        group_getters = tuple(compile_scalar(e, scan_ctx) for e in stmt.group_by)
        having_pred = (compile_predicate(stmt.having, out_ctx)
                       if stmt.having is not None else None)
        aggregate = _make_aggregate_stage(agg_specs, group_getters, having_pred)
        plain_having = None
    else:
        out_ctx = scan_ctx
        aggregate = None
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
    sort = _make_sort_stage(order_specs, out_ctx)
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
                    sort = None

    fixed_bounds = bounds = None
    if stmt.limit is not None:
        const_ctx = CompileContext("const")
        contexts.append(const_ctx)
        fixed_bounds, bounds = _compile_limit(stmt.limit, const_ctx)

    columns, project = _compile_projection(stmt, layout, out_ctx, has_agg)

    # The stages after the base read, list -> list functions in order: the
    # joins (the WHERE filter runs after them when there are any, else on
    # the read itself) and HAVING without aggregates run on each read step;
    # aggregate and sort need every row at once, and so does DISTINCT, which
    # runs over the projected rows. A LIMIT over rows that need none of
    # those three reads BATCH_ROWS at a time and stops once offset + count
    # rows have passed; any other read is one step.
    row_stages = tuple(joins) + ((where,) if joins and where is not None else ()) + (
        (plain_having,) if plain_having is not None else ())
    inline = where if not joins else None
    whole_stages = tuple(stage for stage in (aggregate, sort) if stage is not None)
    distinct = stmt.distinct
    step = BATCH_ROWS if bounds is not None and not whole_stages and not distinct else 0
    value_tuples = base_table.value_tuples

    def produce(row_ids: list[int], params: Sequence[Any]) -> list:
        """The rows: read the index slice now, with no lock held and after
        the slice was taken — so the WHERE filter re-checks every row —
        then run every stage over them."""
        offset, stop = (0, None) if bounds is None else fixed_bounds or bounds(params)
        size = step or len(row_ids) or 1
        rows: list = []
        for start in range(0, len(row_ids), size):
            part = value_tuples(row_ids[start:start + size] if step else row_ids)
            if inline is not None:
                part = inline(part, params)
            for stage in row_stages:
                part = stage(part, params)
            if rows:
                rows += part
            else:
                rows = part
            if stop is not None and len(rows) >= stop:
                break
        for stage in whole_stages:
            rows = stage(rows, params)
        if distinct:
            rows = distinct_rows(rows if project is None else project(rows, params))
            return rows if bounds is None else rows[offset:stop]
        if bounds is not None:
            rows = rows[offset:stop]
        return rows if project is None else project(rows, params)

    price = Pricer(database.latency)

    def run(params: Sequence[Any],
            transaction: "Transaction | None" = None) -> QueryResult:
        """Take the index slice and price the statement; the rows are
        :func:`produce`'s, at the result's first fetch. An empty slice with
        no aggregate has none."""
        row_ids, used_index = access.run(params)
        base_rows = base_table.row_count
        examined = len(row_ids) if used_index else base_rows
        for join_table in join_tables:
            examined += join_table.row_count
        cost = price.statement(base_rows, examined, used_index)
        if row_ids or aggregate is not None:
            return QueryResult(columns, cost=cost, produce=produce, args=(row_ids, params))
        return QueryResult(columns, cost=cost)

    return run, None, max(ctx.param_count for ctx in contexts)


def _make_sort_stage(order_specs, ctx: CompileContext) -> Stage | None:
    """The ORDER BY stage: sorts the rows in place.

    When every key is a stored column (never UNKNOWN) the row's values are
    read by one ``itemgetter`` and the key is built at compile time — the
    ``itemgetter`` itself when every key column is declared NOT NULL, not
    auto-increment, and in the integer or the string family
    (``RowLayout``'s offsets; each key position keeps one family);
    otherwise the key is built per execution, from the keys' closures."""
    if not order_specs:
        return None
    descs = [desc for _, desc, _ in order_specs]
    offsets = [column_offset(expr, ctx) for _, _, expr in order_specs]
    if None not in offsets:
        layout = ctx.layout
        native = all(i in layout.not_null_offsets
                     and (i in layout.int_offsets or i in layout.str_offsets)
                     for i in offsets)
        key, reverse = order_key(operator.itemgetter(*offsets), descs, native)

        def sort_stored(rows: list, params: Sequence[Any]) -> list:
            rows.sort(key=key, reverse=reverse)
            return rows

        return sort_stored
    getters = tuple(g for g, _, _ in order_specs)

    def read_keys(params: Sequence[Any]) -> Callable[[Any], Any]:
        if len(getters) == 1:
            (g,) = getters
            return lambda r: None if (v := g(r, params)) is UNKNOWN else v
        return lambda r: tuple([None if (v := g(r, params)) is UNKNOWN else v
                                for g in getters])

    def sort(rows: list, params: Sequence[Any]) -> list:
        key, reverse = order_key(read_keys(params), descs)
        rows.sort(key=key, reverse=reverse)
        return rows

    return sort


def _compile_join(database: "Database", join: ast.Join, layout: RowLayout,
                  ctx: CompileContext) -> Stage:
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

    # a LEFT JOIN's right side is NULL where no row matched
    _add_table(layout, right_name, right_table, nullable=left_join)
    condition = (compile_predicate(join.condition, ctx)
                 if join.condition is not None else None)
    null_row = (None,) * right_width

    def join_rows(rows: list, params: Sequence[Any]) -> list:
        """Each left row with every right row the condition holds for (the
        candidates of an equi-join by hash), NULL-extended on a LEFT JOIN
        when there is none."""
        right_rows = right_table.tuples()
        buckets: dict[Any, list[tuple]] | None = None
        if eq is not None and key_pos is None:
            buckets = {None: right_rows}
        elif eq is not None:
            buckets = {}
            for right_row in right_rows:
                buckets.setdefault(hashable(right_row[key_pos]), []).append(right_row)
        out: list[tuple] = []
        append = out.append
        for left in rows:
            if buckets is None:
                matched = right_rows
            else:
                key = hashable(left_key(left, params)) if left_key is not None else None
                matched = buckets.get(key, ()) if key is not None else ()
            emitted = False
            for right_row in matched:
                combined = left + right_row
                if condition is None or condition(combined, params):
                    emitted = True
                    append(combined)
            if not emitted and left_join:
                append(left + null_row)
        return out

    return join_rows


class _CompiledAgg:
    """One compiled aggregate call, folded over a whole group at once."""

    __slots__ = ("name", "count_star", "distinct", "arg", "read_int")

    def __init__(self, call: ast.FunctionCall, ctx: CompileContext):
        self.name = call.name.upper()  # one of ast.FunctionCall.AGGREGATES
        self.count_star = (self.name == "COUNT" and bool(call.args)
                           and isinstance(call.args[0], ast.Star))
        self.distinct = call.distinct
        self.arg = (compile_scalar(call.args[0], ctx)
                    if call.args and not self.count_star else None)
        offset = int_column_offset(call.args[0], ctx) if self.arg is not None else None
        #: a plain integer-column argument's slot getter: read directly
        self.read_int = operator.itemgetter(offset) if offset is not None else None

    def fold(self, rows: list, params: Sequence[Any]) -> Any:
        """The aggregate over one group's rows, as the oracle folds it:
        NULL / UNKNOWN arguments are skipped, DISTINCT keeps each value's
        first sighting, and :func:`~repro.storage.expression.aggregate`
        folds what is left (natively over a plain integer column)."""
        if self.count_star:
            return len(rows)
        read_int = self.read_int
        if read_int is not None:
            values = list(filter(_NOT_NULL, map(read_int, rows)))
        elif self.arg is not None:
            arg = self.arg
            values = [v for r in rows
                      if (v := arg(r, params)) is not None and v is not UNKNOWN]
        else:
            values = []
        if self.distinct:
            seen: set = set()
            fresh = []
            for value in values:
                frozen = hashable(value)
                if frozen not in seen:
                    seen.add(frozen)
                    fresh.append(value)
            values = fresh
        return aggregate(self.name, values, read_int is not None)


def _make_aggregate_stage(agg_specs, group_getters, having_pred) -> Stage:
    def aggregate_groups(rows: list, params: Sequence[Any]) -> list:
        """One ``(first row, aggregate values)`` pair per group, in the
        order the groups were first seen; without GROUP BY one group, also
        over no rows (COUNT -> 0; its first row None makes column refs
        raise: there is no row to read)."""
        if group_getters:
            groups: dict[tuple, list] = {}
            for row in rows:
                key = tuple([hashable(g(row, params)) for g in group_getters])
                groups.setdefault(key, []).append(row)
            members_of = groups.values()
        else:
            members_of = (rows,)
        out: list = []
        for members in members_of:
            fold = operator.methodcaller("fold", members, params)
            row = (members[0] if members else None, tuple(map(fold, agg_specs)))
            if having_pred is None or having_pred(row, params):
                out.append(row)
        return out

    return aggregate_groups


def _compile_limit(limit: ast.Limit, ctx: CompileContext):
    """``(fixed, bounds)``: the ``(offset, stop)`` slice of a LIMIT of
    literals as ``fixed``, else None and ``bounds(params)`` computing it
    per execution. A negative offset or count counts as 0."""
    getters = []
    for expr in (limit.offset, limit.count):
        if expr is None:
            getters.append(None)
            continue
        scalar = compile_scalar(expr, ctx)  # validates, and counts the placeholder
        getters.append(const_getter(expr)
                       or (lambda params, _scalar=scalar: _scalar(None, params)))
    offset_getter, count_getter = getters

    def bounds(params: Sequence[Any]) -> tuple[int, int | None]:
        offset = max(int(offset_getter(params)), 0) if offset_getter is not None else 0
        if count_getter is None:
            return offset, None
        return offset, offset + max(int(count_getter(params)), 0)

    literal = all(expr is None or isinstance(expr, ast.Literal)
                  for expr in (limit.offset, limit.count))
    return (bounds(()), bounds) if literal else (None, bounds)


def _compile_projection(stmt: ast.SelectStatement, layout: RowLayout,
                        ctx: CompileContext, has_agg: bool):
    """Output column names and a projector ``(rows, params) -> list``, or
    None when the rows are already the output (``SELECT *`` of one table).

    A select list that only reads stored columns (never UNKNOWN) — or,
    over groups, only aggregate values — is one ``itemgetter`` over each
    row; anything else calls each item's closure."""
    columns: list[str] = []
    getters: list[Getter] = []
    offsets: list[int | None] = []  # of what the item reads as it is, else None
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
        if has_agg and isinstance(expr, ast.FunctionCall) and expr.is_aggregate:
            slot = ctx.aggregate_slot(expr)
            offsets.append(slot)
            getter = aggregate_value(slot)
        else:
            offsets.append(None if has_agg else column_offset(expr, ctx))
            getter = compile_scalar(expr, ctx)

        def normalized(row: Any, params: Sequence[Any], _g=getter) -> Any:
            value = _g(row, params)
            return None if value is UNKNOWN else value

        getters.append(normalized)
    if None not in offsets:
        if has_agg:  # group rows are (first row, aggregate values)
            read = operator.itemgetter(*offsets)
            if len(offsets) == 1:
                return columns, lambda rows, params: list(zip(map(read, map(_SECOND, rows))))
            return columns, lambda rows, params: list(map(read, map(_SECOND, rows)))
        if offsets == list(range(layout.width)) and len(layout.slots) == 1:
            return columns, None
        read = operator.itemgetter(*offsets)
        if len(offsets) == 1:
            return columns, lambda rows, params: list(zip(map(read, rows)))
        return columns, lambda rows, params: list(map(read, rows))
    project_getters = tuple(getters)

    def project(rows: list, params: Sequence[Any]) -> list:
        return [tuple([g(r, params) for g in project_getters]) for r in rows]

    return columns, project


# ---------------------------------------------------------------------------
# UPDATE / DELETE
# ---------------------------------------------------------------------------


def _candidate_batches(table: Table, row_ids: list[int],
                       where_batch: BatchFilter | None,
                       params: Sequence[Any]) -> Iterator[list]:
    """Chunked (row + row_id) candidates for DML, batch-filtered.

    Each candidate tuple is the row with its row id appended one slot past
    the layout width (:meth:`Table.keyed_tuples`) — compiled getters only
    read layout offsets, so the extra element is invisible to
    predicates/assignments. Rows are snapshotted before any mutation in the
    chunk; each candidate is visited exactly once and mutations only touch
    the visited row, so chunked read-then-write is equivalent to the
    row-at-a-time loop.
    """
    for start in range(0, len(row_ids), BATCH_ROWS):
        batch = table.keyed_tuples(row_ids[start:start + BATCH_ROWS])
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
    price = Pricer(database.latency)

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
        rows = table.row_count
        examined = len(row_ids) if used_index else rows
        cost = price.statement(rows, examined + updated, used_index)
        io = price.write(rows) if updated else 0.0
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
    price = Pricer(database.latency)

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
        rows = table.row_count
        examined = len(row_ids) if used_index else rows
        cost = price.statement(rows, examined + deleted, used_index)
        io = price.write(rows) if deleted else 0.0
        return QueryResult(rowcount=deleted, cost=cost + io,
                           written_table=table, write_cost=io)

    return run, None, ctx.param_count


# ---------------------------------------------------------------------------
# INSERT
# ---------------------------------------------------------------------------


def _compile_insert(database: "Database", stmt: ast.InsertStatement):
    """Compiled INSERT. Column offsets, coercers and defaults are resolved
    here (:meth:`Table.inserter`), and each stored tuple is built by
    position. A values row of bare placeholders is read off the parameters
    by one C-level getter; any other row is built by value getters bound in
    a constant context (a column reference is an unknown column). The
    statement's inserted rows are logged once, also when a row fails (a
    duplicate key): the rows before it stay logged, for the transaction to
    undo. ``runner_many`` runs every executemany binding in one plan
    invocation and charges write I/O once for the whole batch — the price
    of one multi-row INSERT of the same rows.
    """
    table = database.table(stmt.table.name)
    columns = stmt.columns or table.schema.column_names
    insert = table.inserter(columns)
    ctx = CompileContext("const")
    pickers: list[Callable[[Sequence[Any]], Sequence[Any]]] = []
    for row_exprs in stmt.values_rows:
        if len(row_exprs) != len(columns):
            raise ExecutionError(
                f"INSERT column/value count mismatch: {len(columns)} vs {len(row_exprs)}"
            )
        if all(type(expr) is ast.Placeholder for expr in row_exprs):
            indexes = [expr.index for expr in row_exprs]
            ctx.param_count = max(ctx.param_count, max(indexes) + 1)
            pickers.append(params_getter(indexes))
        else:
            getters = tuple(compile_scalar(expr, ctx) for expr in row_exprs)
            pickers.append(lambda params, _g=getters: [g(None, params) for g in _g])
    price = Pricer(database.latency)

    def insert_rows(value_rows: list[Sequence[Any]], txn: "Transaction") -> int:
        row_ids: list[int] = []
        try:
            insert(value_rows, row_ids)
        finally:
            if row_ids:
                txn.record_inserts(table, row_ids)
        return len(row_ids)

    def run(params: Sequence[Any],
            transaction: "Transaction | None") -> QueryResult:
        txn = _require_txn(transaction)
        inserted = insert_rows([pick(params) for pick in pickers], txn)
        rows = table.row_count
        cost = price.statement(rows, inserted, True)
        io = price.write(rows)
        return QueryResult(rowcount=inserted, cost=cost + io,
                           written_table=table, write_cost=io)

    def run_many(seq_of_params: Sequence[Sequence[Any]],
                 transaction: "Transaction | None") -> QueryResult:
        txn = _require_txn(transaction)
        if len(pickers) == 1:  # a row template: one values row per binding
            value_rows = list(map(pickers[0], seq_of_params))
        else:
            value_rows = [pick(params) for params in seq_of_params for pick in pickers]
        inserted = insert_rows(value_rows, txn)
        rows = table.row_count
        cost = price.statement(rows, inserted, True)
        io = price.write(rows) if inserted else 0.0
        return QueryResult(rowcount=inserted, cost=cost + io,
                           written_table=table, write_cost=io)

    return run, run_many, ctx.param_count


def params_getter(order: Sequence[int]) -> Callable[[Sequence[Any]], Sequence[Any]]:
    """``params -> the parameters at order's indexes``, a C-level getter: a
    slice when the indexes are one contiguous run (also for zero or one)."""
    first, last = (order[0], order[-1]) if order else (0, -1)
    if list(order) == list(range(first, last + 1)):
        return operator.itemgetter(slice(first, last + 1))
    return operator.itemgetter(*order)


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
