"""Reference interpreter for SELECT / INSERT / UPDATE / DELETE.

The tree-walking executor that ``src/repro/storage`` ran beside its
compiled plans until the two were made one path; it lives here as the
oracle the differential suites compare :mod:`repro.storage.plans` with.
It is deliberately the naive one: every statement scans every row of its
base table (no index selection), nothing is priced, and each expression
is re-walked per row against a name -> value dict. The value primitives
(3VL, coercion, LIKE, CAST, scalar functions, sort keys) and the AST
helpers are imported from ``src``, so the two sides cannot drift on them.

Unlike the compiled path, validity here is still decided per evaluated
row: a statement naming an unknown column raises only if a row reaches
the expression. Tests that compare error behaviour use populated tables.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import islice
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.exceptions import ColumnNotFoundError, ExecutionError, StorageError, UnsupportedSQLError
from repro.sql import ast
from repro.sql.formatter import format_expression
from repro.storage.executor import QueryResult, _collect_aggregates, _equi_join_columns
from repro.storage.expression import (
    ARITHMETIC, UNKNOWN, OrderToken, _as_tvl, _cast, _compare_values, _like_match,
    _number, _SCALAR_FUNCTIONS, hashable, sort_key,
)

Row = dict[str, Any]

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def evaluate(expr: ast.Expression, row: Mapping[str, Any], params: Sequence[Any] = ()) -> Any:
    """Evaluate an expression against a row; placeholders read ``params``."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Placeholder):
        try:
            return params[expr.index]
        except IndexError:
            raise ExecutionError(f"missing parameter for placeholder #{expr.index}") from None
    if isinstance(expr, ast.ColumnRef):
        return resolve_column(expr, row)
    if isinstance(expr, ast.BinaryOp):
        return _eval_binary(expr, row, params)
    if isinstance(expr, ast.UnaryOp):
        return _eval_unary(expr, row, params)
    if isinstance(expr, ast.InExpr):
        return _eval_in(expr, row, params)
    if isinstance(expr, ast.BetweenExpr):
        value = evaluate(expr.operand, row, params)
        low = evaluate(expr.low, row, params)
        high = evaluate(expr.high, row, params)
        if value is None or low is None or high is None:
            return UNKNOWN
        result = _compare_values(low, value) <= 0 <= _compare_values(high, value)
        return not result if expr.negated else result
    if isinstance(expr, ast.IsNullExpr):
        result = evaluate(expr.operand, row, params) is None
        return not result if expr.negated else result
    if isinstance(expr, ast.FunctionCall):
        return _eval_function(expr, row, params)
    if isinstance(expr, ast.CaseExpr):
        for cond, value in expr.whens:
            if is_truthy(evaluate(cond, row, params)):
                return evaluate(value, row, params)
        if expr.default is not None:
            return evaluate(expr.default, row, params)
        return None
    if isinstance(expr, ast.Star):
        raise ExecutionError("'*' is not a scalar expression")
    raise ExecutionError(f"cannot evaluate expression of type {type(expr).__name__}")


def is_truthy(value: Any) -> bool:
    """Collapse three-valued logic to WHERE semantics (UNKNOWN -> False)."""
    if value is UNKNOWN or value is None:
        return False
    return bool(value)


def resolve_column(ref: ast.ColumnRef, row: Mapping[str, Any]) -> Any:
    """Resolve a (possibly qualified) column reference in a row mapping."""
    if ref.table:
        qualified = f"{ref.table}.{ref.name}"
        if qualified in row:
            return row[qualified]
    if ref.name in row:
        return row[ref.name]
    # Case-insensitive fallback, then unqualified match of a qualified key.
    lower = ref.name.lower()
    for key, value in row.items():
        bare = key.rsplit(".", 1)[-1]
        if bare.lower() == lower:
            if ref.table is None or key.lower().startswith(ref.table.lower() + "."):
                return value
    raise ColumnNotFoundError(f"column {ref.qualified!r} not found in row")


_COMPARISONS = {
    "=": lambda c: c == 0, "<>": lambda c: c != 0, "!=": lambda c: c != 0,
    "<": lambda c: c < 0, ">": lambda c: c > 0,
    "<=": lambda c: c <= 0, ">=": lambda c: c >= 0,
}


def _eval_binary(expr: ast.BinaryOp, row: Mapping[str, Any], params: Sequence[Any]) -> Any:
    op = expr.op
    if op in ("AND", "OR"):
        decisive = op == "OR"  # the value that short-circuits the connective
        left = _as_tvl(evaluate(expr.left, row, params))
        if left is decisive:
            return decisive
        right = _as_tvl(evaluate(expr.right, row, params))
        if right is decisive:
            return decisive
        if left is UNKNOWN or right is UNKNOWN:
            return UNKNOWN
        return not decisive

    left = evaluate(expr.left, row, params)
    right = evaluate(expr.right, row, params)
    if op == "<=>":
        # NULL-safe equality: NULL <=> NULL is TRUE, never UNKNOWN.
        if left is None or right is None:
            return left is None and right is None
        return _compare_values(left, right) == 0
    if left is None or right is None:
        return UNKNOWN if op in _COMPARISONS or op == "LIKE" else None
    if op in _COMPARISONS:
        return _COMPARISONS[op](_compare_values(left, right))
    if op == "LIKE":
        return _like_match(str(left), str(right))
    if op in ARITHMETIC:
        return ARITHMETIC[op](left, right)
    raise ExecutionError(f"unsupported binary operator {op!r}")


def _eval_unary(expr: ast.UnaryOp, row: Mapping[str, Any], params: Sequence[Any]) -> Any:
    value = evaluate(expr.operand, row, params)
    if expr.op == "NOT":
        tvl = _as_tvl(value)
        return UNKNOWN if tvl is UNKNOWN else not tvl
    if expr.op == "-":
        return None if value is None else -_number(value, "-")
    raise ExecutionError(f"unsupported unary operator {expr.op!r}")


def _eval_in(expr: ast.InExpr, row: Mapping[str, Any], params: Sequence[Any]) -> Any:
    value = evaluate(expr.operand, row, params)
    if value is None:
        return UNKNOWN
    saw_null = False
    for item in expr.items:
        candidate = evaluate(item, row, params)
        if candidate is None:
            saw_null = True
        elif _compare_values(value, candidate) == 0:
            return not expr.negated
    return UNKNOWN if saw_null else expr.negated


def _eval_function(expr: ast.FunctionCall, row: Mapping[str, Any], params: Sequence[Any]) -> Any:
    name = expr.name.upper()
    if expr.is_aggregate:
        # Post-aggregation context: _aggregate_rows stores each computed
        # value in the row keyed by the rendered call.
        key = format_expression(expr)
        if key in row:
            return row[key]
        raise ExecutionError(f"aggregate {key} not available in this context")
    if name == "CAST":
        value = evaluate(expr.args[0], row, params)
        target = expr.args[1].value if isinstance(expr.args[1], ast.Literal) else "CHAR"
        return _cast(value, str(target))
    handler = _SCALAR_FUNCTIONS.get(name)
    if handler is None:
        raise ExecutionError(f"unsupported function {name!r}")
    return handler([evaluate(a, row, params) for a in expr.args])


def _output_value(expr: ast.Expression, row: Row, params: Sequence[Any]) -> Any:
    """A projected / ordering value: UNKNOWN leaves the engine as NULL."""
    value = evaluate(expr, row, params)
    return None if value is UNKNOWN else value


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


def execute_statement(database, stmt: ast.Statement, params: Sequence[Any] = (),
                      transaction=None) -> QueryResult:
    """Interpret one DQL/DML statement; DML logs undo into ``transaction``."""
    if isinstance(stmt, ast.SelectStatement):
        return _execute_select(database, stmt, params)
    if transaction is None:
        raise ExecutionError("DML requires an active transaction context")
    if isinstance(stmt, ast.InsertStatement):
        return _execute_insert(database, stmt, params, transaction)
    if isinstance(stmt, (ast.UpdateStatement, ast.DeleteStatement)):
        return _execute_update_or_delete(database, stmt, params, transaction)
    raise UnsupportedSQLError(f"the oracle interprets DQL/DML only, not {type(stmt).__name__}")


def _execute_select(database, stmt: ast.SelectStatement, params: Sequence[Any]) -> QueryResult:
    columns, projector = _build_projection(stmt, database, params)
    if stmt.from_table is None:
        # SELECT of pure expressions, e.g. SELECT 1.
        return QueryResult(columns=columns, rows=iter([projector({})]))

    rows = _row_source(database, stmt, params)
    if stmt.group_by or stmt.aggregates():
        rows = _aggregate_rows(stmt, rows, params)
    elif stmt.having is not None:
        having = stmt.having
        rows = (r for r in rows if is_truthy(evaluate(having, r, params)))

    if stmt.order_by:
        rows = iter(sorted(rows, key=lambda r: tuple(
            OrderToken(_order_value(item.expression, r, stmt, params), item.desc)
            for item in stmt.order_by)))
    out: Iterator[tuple] = (projector(r) for r in rows)
    if stmt.distinct:
        out = _distinct(out)
    if stmt.limit is not None:
        out = _apply_limit(stmt.limit, out, params)
    return QueryResult(columns=columns, rows=out)


def _order_value(expr: ast.Expression, row: Row, stmt: ast.SelectStatement,
                 params: Sequence[Any]) -> Any:
    """Resolve an ORDER BY expression, honoring select-list aliases."""
    if isinstance(expr, ast.ColumnRef) and expr.table is None:
        for item in stmt.select_items:
            if item.alias and item.alias.lower() == expr.name.lower():
                return _output_value(item.expression, row, params)
    return _output_value(expr, row, params)


def _distinct(rows: Iterator[tuple]) -> Iterator[tuple]:
    """DISTINCT over output rows: the first of equal rows, in order."""
    seen: set[tuple] = set()
    for row in rows:
        key = tuple(hashable(value) for value in row)
        if key not in seen:
            seen.add(key)
            yield row


def _apply_limit(limit: ast.Limit, rows: Iterator, params: Sequence[Any]) -> Iterator:
    offset = int(evaluate(limit.offset, {}, params)) if limit.offset is not None else 0
    count = int(evaluate(limit.count, {}, params)) if limit.count is not None else None
    return islice(rows, offset, None if count is None else offset + count)


# -- FROM / JOIN row source --------------------------------------------------


def _row_source(database, stmt: ast.SelectStatement, params: Sequence[Any]) -> Iterator[Row]:
    """Every base row, folded through each join in order, then WHERE."""
    base_ref = stmt.from_table
    base_table = database.table(base_ref.name)
    rows: Iterator[Row] = (
        _merge_ns({}, raw, base_ref.exposed_name) for _, raw in list(base_table.scan())
    )
    for join in stmt.joins:
        rows = _apply_join(database, rows, join, params)
    where = stmt.where
    if where is not None:
        rows = (r for r in rows if is_truthy(evaluate(where, r, params)))
    return rows


def _merge_ns(left: Row, raw: Row, exposed: str) -> Row:
    """``left`` plus one table's row: every column under ``exposed.name``,
    and under its bare name unless a table further left already took it."""
    row = dict(left)
    for key, value in raw.items():
        row.setdefault(key, value)
        row[f"{exposed}.{key}"] = value
    return row


def _apply_join(database, rows: Iterator[Row], join: ast.Join, params: Sequence[Any]) -> Iterator[Row]:
    if join.kind == "RIGHT":
        raise UnsupportedSQLError(
            "RIGHT JOIN is not supported; rewrite as a LEFT JOIN with the "
            "operands swapped"
        )
    right_table = database.table(join.table.name)
    right_name = join.table.exposed_name
    right_rows = [row for _, row in right_table.scan()]
    null_row = {c: None for c in right_table.schema.column_names}

    eq = _equi_join_columns(join.condition, right_name) if join.condition else None
    if eq is None:
        def candidates(left: Row) -> list[Row]:
            return right_rows
    else:
        # Equality joins bucket the right side by key, like the compiled
        # hash join: a NULL or unresolvable left key matches nothing.
        left_expr, right_col = eq
        buckets: dict[Any, list[Row]] = {}
        for raw in right_rows:
            buckets.setdefault(hashable(raw.get(right_col)), []).append(raw)

        def candidates(left: Row) -> list[Row]:
            try:
                key = hashable(evaluate(left_expr, left, params))
            except StorageError:
                key = None
            return buckets.get(key, []) if key is not None else []

    def joined() -> Iterator[Row]:
        for left in rows:
            emitted = False
            for raw in candidates(left):
                combined = _merge_ns(left, raw, right_name)
                if join.condition is None or is_truthy(evaluate(join.condition, combined, params)):
                    emitted = True
                    yield combined
            if not emitted and join.kind == "LEFT":
                yield _merge_ns(left, null_row, right_name)

    return joined()


# -- grouping and aggregation -------------------------------------------------


def _aggregate_rows(stmt: ast.SelectStatement, source: Iterator[Row],
                    params: Sequence[Any]) -> Iterator[Row]:
    """One output row per group: its first input row plus every aggregate's
    value over all of the group's rows, keyed by the rendered call."""
    aggregates = _collect_aggregates(stmt)
    groups: dict[tuple, list[Row]] = {}
    for row in source:
        key = tuple(hashable(evaluate(e, row, params)) for e in stmt.group_by)
        groups.setdefault(key, []).append(row)
    if not groups and not stmt.group_by:
        groups[()] = []  # aggregates over no rows still yield one (COUNT -> 0)
    for members in groups.values():
        out = dict(members[0]) if members else {}
        for call in aggregates:
            out[format_expression(call)] = _aggregate(call, members, params)
        if stmt.having is None or is_truthy(evaluate(stmt.having, out, params)):
            yield out


def _aggregate(call: ast.FunctionCall, rows: list[Row], params: Sequence[Any]) -> Any:
    name = call.name.upper()
    if name == "COUNT" and call.args and isinstance(call.args[0], ast.Star):
        return len(rows)
    values = [evaluate(call.args[0], row, params) for row in rows] if call.args else []
    values = [v for v in values if v is not None and v is not UNKNOWN]
    if call.distinct:
        first_seen: dict[Any, Any] = {}
        for value in values:
            first_seen.setdefault(hashable(value), value)
        values = list(first_seen.values())
    if name == "COUNT":
        return len(values)
    if not values:
        return None
    if name == "MIN":
        return min(values, key=sort_key)
    if name == "MAX":
        return max(values, key=sort_key)
    total = reduce(operator.add, values)
    return total if name == "SUM" else total / len(values)


# -- projection ----------------------------------------------------------------


def _build_projection(stmt: ast.SelectStatement, database,
                      params: Sequence[Any]) -> tuple[list[str], Callable[[Row], tuple]]:
    """Column names + a function mapping a namespace row to output values."""
    columns: list[str] = []
    getters: list[Callable[[Row], Any]] = []
    for item in stmt.select_items:
        expr = item.expression
        if not isinstance(expr, ast.Star):
            columns.append(item.output_name)
            getters.append(lambda row, _e=expr: _output_value(_e, row, params))
            continue
        if stmt.from_table is None:
            raise ExecutionError("'*' is not a scalar expression")
        for ref in stmt.tables():
            if expr.table and ref.exposed_name.lower() != expr.table.lower():
                continue
            for col_name in database.table(ref.name).schema.column_names:
                columns.append(col_name)
                # absent only from the sample-less row of an empty aggregate
                getters.append(lambda row, _q=f"{ref.exposed_name}.{col_name}": row.get(_q))
    return columns, lambda row: tuple(g(row) for g in getters)


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------


def _execute_insert(database, stmt: ast.InsertStatement, params: Sequence[Any],
                    txn) -> QueryResult:
    table = database.table(stmt.table.name)
    columns = stmt.columns or table.schema.column_names
    for row_exprs in stmt.values_rows:
        if len(row_exprs) != len(columns):
            raise ExecutionError(
                f"INSERT column/value count mismatch: {len(columns)} vs {len(row_exprs)}"
            )
        values = {col: evaluate(expr, {}, params) for col, expr in zip(columns, row_exprs)}
        row_id = table.insert(values)
        txn.record_inserts(table, (row_id,))
    return QueryResult(rowcount=len(stmt.values_rows))


def _execute_update_or_delete(database, stmt, params: Sequence[Any], txn) -> QueryResult:
    table = database.table(stmt.table.name)
    # Every row the WHERE keeps, snapshotted before anything is mutated.
    matched = []
    for row_id, raw in list(table.scan()):
        row = _merge_ns({}, raw, stmt.table.exposed_name)
        if stmt.where is None or is_truthy(evaluate(stmt.where, row, params)):
            matched.append((row_id, row))
    for row_id, row in matched:
        if isinstance(stmt, ast.DeleteStatement):
            txn.record_delete(table, row_id, table.delete(row_id))
        else:
            changes = {col: evaluate(expr, row, params) for col, expr in stmt.assignments}
            txn.record_update(table, row_id, table.update(row_id, changes))
    return QueryResult(rowcount=len(matched))
