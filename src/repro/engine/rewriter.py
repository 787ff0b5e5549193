"""SQL rewriter: logical SQL -> executable per-shard SQL (Section VI-C).

Correctness rewrite:

- *identifier rewrite* — logic table names become the unit's actual table
  names (including dangling qualifiers like ``t_user.uid``);
- *column derivation* — ORDER BY / GROUP BY columns the merger needs but
  the select list doesn't return are appended as ``*_DERIVED_n`` items;
  AVG is decomposed into derived COUNT and SUM so the merger can combine
  shard averages correctly;
- *pagination revision* — ``LIMIT n OFFSET m`` becomes ``LIMIT n+m`` per
  shard (the merger re-applies the real offset globally);
- *batched-insert split* — each unit keeps only its routed values rows.

Optimization rewrite:

- *single-node optimization* — a single-unit route skips derivation and
  pagination revision entirely;
- *stream-merger optimization* — ``GROUP BY`` without ``ORDER BY`` gains
  an ORDER BY on the group keys, turning memory merge into stream merge.

Every unit is built in two steps, here and in a compiled plan alike:
:func:`shape` makes the statement the units are cut from and the merge
spec (once per statement, or once per plan), and :func:`unit_statement`
cuts one unit's statement from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from ..exceptions import RewriteError
from ..sql import ast
from ..sql.dialects import SQL92, Dialect
from ..sql.formatter import format_expression, format_statement
from .context import StatementContext
from .merger import AggregateSpec, MergeSpec
from .router import RouteResult, RouteUnit

DialectResolver = Callable[[str], Dialect]


class ExecutionUnit:
    """One rewritten statement ready to run on one data source.

    ``sql`` text is rendered lazily (diagnostics, PREVIEW, proxies); the
    in-process data sources execute the ``statement`` AST directly.
    """

    __slots__ = ("data_source", "params", "statement", "unit", "dialect", "_sql")

    def __init__(self, data_source: str, params: tuple[Any, ...],
                 statement: ast.Statement, unit: RouteUnit, dialect: Dialect,
                 sql: str | None = None):
        self.data_source = data_source
        self.params = params
        self.statement = statement
        self.unit = unit
        self.dialect = dialect
        self._sql: str | None = sql

    @property
    def sql(self) -> str:
        if self._sql is None:
            self._sql = format_statement(self.statement, self.dialect)
        return self._sql


@dataclass
class RewriteResult:
    execution_units: list[ExecutionUnit] = field(default_factory=list)
    merge_spec: MergeSpec | None = None


def rewrite(
    context: StatementContext,
    route_result: RouteResult,
    dialect_of: DialectResolver | None = None,
) -> RewriteResult:
    """Rewrite the logical statement into per-unit executable SQL."""
    resolver = dialect_of or (lambda name: SQL92)
    params = context.params
    base, merge_spec = shape(context.statement, route_result.is_single, params)
    result = RewriteResult(merge_spec=merge_spec)
    for unit in route_result.units:
        statement, order = unit_statement(base, unit)
        try:
            unit_params = tuple(map(params.__getitem__, order))
        except IndexError:
            missing = next(index for index in order if index >= len(params))
            raise RewriteError(f"missing parameter for placeholder #{missing}") from None
        result.execution_units.append(ExecutionUnit(
            unit.data_source, unit_params, statement, unit, resolver(unit.data_source)))
    return result


def shape(statement: ast.Statement, single_node: bool,
          params: Sequence[Any] = ()) -> tuple[ast.Statement, MergeSpec]:
    """The statement every unit is cut from, and how the units' results
    merge. A SELECT over several nodes is cloned and gains the stream-merge
    ORDER BY, the derived columns and the revised pagination; on one node
    (single-node optimization), and for any other statement, it is the
    logical statement itself, shared read-only."""
    if not isinstance(statement, ast.SelectStatement):
        return statement, MergeSpec(is_query=False, single_node=single_node)
    shaped = statement
    if not single_node:
        shaped = ast.clone_statement(statement)
        assert isinstance(shaped, ast.SelectStatement)
        _optimize_stream_merge(shaped)
        _derive_columns(shaped)
        _revise_pagination(shaped, params)
    return shaped, _build_merge_spec(statement, shaped, single_node, params)


def unit_statement(base: ast.Statement,
                   unit: RouteUnit) -> tuple[ast.Statement, tuple[int, ...]]:
    """``base`` cut for one unit: a clone whose INSERT values rows are the
    unit's, whose logic tables are the unit's actual tables and whose
    placeholders are numbered from 0 — with the caller's parameter index
    for each of them, in order."""
    statement = ast.clone_statement(base)
    rows = unit.row_indexes
    if (rows is not None and isinstance(statement, ast.InsertStatement)
            and len(rows) < len(statement.values_rows)):
        statement.values_rows = [statement.values_rows[i] for i in rows]
    _rename_tables(statement, unit)
    order: list[int] = []
    for expr in _iter_expressions(statement):
        for node in expr.walk():
            if isinstance(node, ast.Placeholder):
                order.append(node.index)
                node.index = len(order) - 1
    return statement, tuple(order)


# ---------------------------------------------------------------------------
# SELECT shaping
# ---------------------------------------------------------------------------


def _optimize_stream_merge(stmt: ast.SelectStatement) -> None:
    """GROUP BY without ORDER BY gains ORDER BY on the group keys."""
    if stmt.group_by and not stmt.order_by:
        stmt.order_by = [ast.OrderByItem(ast.clone_expression(expr)) for expr in stmt.group_by]


def _select_has_star(stmt: ast.SelectStatement) -> bool:
    return any(isinstance(item.expression, ast.Star) for item in stmt.select_items)


def _find_select_index(stmt: ast.SelectStatement, expr: ast.Expression) -> int | None:
    """Index of the select item matching ``expr`` textually or by alias."""
    text = format_expression(expr).lower()
    for i, item in enumerate(stmt.select_items):
        if item.alias and isinstance(expr, ast.ColumnRef) and expr.table is None:
            if item.alias.lower() == expr.name.lower():
                return i
        if format_expression(item.expression).lower() == text:
            return i
        # Unqualified ORDER BY may match a qualified select column.
        if (
            isinstance(expr, ast.ColumnRef)
            and expr.table is None
            and isinstance(item.expression, ast.ColumnRef)
            and item.expression.name.lower() == expr.name.lower()
        ):
            return i
    return None


def _derive_columns(stmt: ast.SelectStatement) -> None:
    """Append derived select items required by the merger."""
    star = _select_has_star(stmt)
    derived_index = 0
    # AVG decomposition first (aggregates are explicit select items).
    avg_items = [
        item
        for item in stmt.select_items
        if isinstance(item.expression, ast.FunctionCall)
        and item.expression.name.upper() == "AVG"
    ]
    for n, item in enumerate(avg_items):
        call = item.expression
        assert isinstance(call, ast.FunctionCall)
        count_call = ast.FunctionCall("COUNT", [ast.clone_expression(a) for a in call.args], distinct=call.distinct)
        sum_call = ast.FunctionCall("SUM", [ast.clone_expression(a) for a in call.args], distinct=call.distinct)
        stmt.select_items.append(
            ast.SelectItem(count_call, alias=f"AVG_DERIVED_COUNT_{n}", derived=True)
        )
        stmt.select_items.append(
            ast.SelectItem(sum_call, alias=f"AVG_DERIVED_SUM_{n}", derived=True)
        )
    if star:
        return  # every column already present for order/group resolution
    for expr in stmt.group_by:
        if _find_select_index(stmt, expr) is None:
            stmt.select_items.append(
                ast.SelectItem(ast.clone_expression(expr), alias=f"GROUP_BY_DERIVED_{derived_index}", derived=True)
            )
            derived_index += 1
    for item in stmt.order_by:
        if _find_select_index(stmt, item.expression) is None:
            stmt.select_items.append(
                ast.SelectItem(
                    ast.clone_expression(item.expression),
                    alias=f"ORDER_BY_DERIVED_{derived_index}",
                    derived=True,
                )
            )
            derived_index += 1


def _revise_pagination(stmt: ast.SelectStatement, params: Sequence[Any]) -> None:
    """Each shard must return the first offset+count rows — or all of them
    when the merge re-aggregates groups that the ORDER BY does not rank by
    their keys: a shard then ranks its partial aggregates, and the groups
    it drops may hold part of a merged group's value. The merger applies
    LIMIT/OFFSET after merging the groups."""
    if stmt.limit is None:
        return
    if stmt.group_by and not _orders_by_group_keys(stmt):
        stmt.limit = None
        return
    count = _resolve_int(stmt.limit.count, params)
    offset = _resolve_int(stmt.limit.offset, params)
    if offset in (None, 0):
        if count is not None:
            stmt.limit = ast.Limit(count=ast.Literal(count))
        return
    new_count = None if count is None else count + offset
    stmt.limit = ast.Limit(count=None if new_count is None else ast.Literal(new_count))
    if stmt.limit.count is None:
        stmt.limit = None


def _orders_by_group_keys(stmt: ast.SelectStatement) -> bool:
    """Whether the leading ORDER BY items are the GROUP BY keys, all of
    them: groups are then ranked by key alone, so every group among the
    merged first n is among each shard's first n that hold it."""
    def slot(expr: ast.Expression) -> int | str:
        index = _find_select_index(stmt, expr)
        return format_expression(expr).lower() if index is None else index

    keys = {slot(expr) for expr in stmt.group_by}
    leading = stmt.order_by[:len(stmt.group_by)]
    return {slot(item.expression) for item in leading} == keys


def _resolve_int(expr: ast.Expression | None, params: Sequence[Any]) -> int | None:
    if expr is None:
        return None
    if isinstance(expr, ast.Literal):
        return int(expr.value)
    if isinstance(expr, ast.Placeholder):
        try:
            return int(params[expr.index])
        except (IndexError, TypeError):
            raise RewriteError("pagination placeholder missing a bound parameter") from None
    raise RewriteError("LIMIT/OFFSET must be a literal or placeholder")


def _build_merge_spec(
    logical: ast.SelectStatement,
    shared: ast.SelectStatement,
    single_node: bool,
    params: Sequence[Any] = (),
) -> MergeSpec:
    aggregates: list[AggregateSpec] = []
    avg_seen = 0
    derived_names = {
        (item.alias or "").lower(): i
        for i, item in enumerate(shared.select_items)
        if item.derived
    }
    for i, item in enumerate(shared.select_items):
        expr = item.expression
        if item.derived:
            continue
        if isinstance(expr, ast.FunctionCall) and expr.is_aggregate:
            func = expr.name.upper()
            spec = AggregateSpec(func=func, index=i, distinct=expr.distinct)
            if func == "AVG":
                spec.count_index = derived_names.get(f"avg_derived_count_{avg_seen}")
                spec.sum_index = derived_names.get(f"avg_derived_sum_{avg_seen}")
                avg_seen += 1
            aggregates.append(spec)

    group_keys: list[int | str] = []
    for expr in shared.group_by:
        index = _find_select_index(shared, expr)
        if index is not None:
            group_keys.append(index)
        elif isinstance(expr, ast.ColumnRef):
            group_keys.append(expr.name)
        else:
            group_keys.append(format_expression(expr))

    order_keys: list[tuple[int | str, bool]] = []
    for item in shared.order_by:
        index = _find_select_index(shared, item.expression)
        if index is not None:
            order_keys.append((index, item.desc))
        elif isinstance(item.expression, ast.ColumnRef):
            order_keys.append((item.expression.name, item.desc))
        else:
            order_keys.append((format_expression(item.expression), item.desc))

    output_width = sum(1 for item in shared.select_items if not item.derived)
    if _select_has_star(shared):
        output_width = -1  # pass everything through

    limit_count = _resolve_int(logical.limit.count, params) if logical.limit else None
    limit_offset = _resolve_int(logical.limit.offset, params) if logical.limit else None

    group_equals_order = False
    if shared.group_by and shared.order_by:
        group_text = [format_expression(e).lower() for e in shared.group_by]
        order_text = [format_expression(i.expression).lower() for i in shared.order_by[: len(group_text)]]
        group_equals_order = group_text == order_text and len(shared.order_by) == len(group_text)

    return MergeSpec(
        is_query=True,
        single_node=single_node,
        output_width=output_width,
        aggregates=aggregates,
        group_keys=group_keys,
        order_keys=order_keys,
        distinct=logical.distinct,
        limit_count=limit_count,
        limit_offset=limit_offset,
        group_equals_order=group_equals_order,
        has_group_by=bool(shared.group_by),
    )


# ---------------------------------------------------------------------------
# Identifier rewrite
# ---------------------------------------------------------------------------


def _rename_tables(stmt: ast.Statement, unit: RouteUnit) -> None:
    """Swap logic table names for the unit's actual tables."""
    renames: dict[str, str] = {}
    for ref in stmt.tables():
        if ref is None:
            continue
        actual = unit.table_map.get(ref.name.lower())
        if actual is not None and actual != ref.name:
            # A logic name used as a column qualifier must follow the rename
            # unless an alias shields it.
            if ref.alias is None:
                renames[ref.name.lower()] = actual
            ref.name = actual
    if renames:
        for expr in _iter_expressions(stmt):
            for node in expr.walk():
                if isinstance(node, ast.ColumnRef) and node.table and node.table.lower() in renames:
                    node.table = renames[node.table.lower()]
                if isinstance(node, ast.Star) and node.table and node.table.lower() in renames:
                    node.table = renames[node.table.lower()]


def _iter_expressions(stmt: ast.Statement) -> Iterator[ast.Expression]:
    """All expression roots of a statement in deterministic order."""
    if isinstance(stmt, ast.SelectStatement):
        for item in stmt.select_items:
            yield item.expression
        for join in stmt.joins:
            if join.condition is not None:
                yield join.condition
        if stmt.where is not None:
            yield stmt.where
        yield from stmt.group_by
        if stmt.having is not None:
            yield stmt.having
        for item in stmt.order_by:
            yield item.expression
        if stmt.limit is not None:
            if stmt.limit.count is not None:
                yield stmt.limit.count
            if stmt.limit.offset is not None:
                yield stmt.limit.offset
    elif isinstance(stmt, ast.InsertStatement):
        for row in stmt.values_rows:
            yield from row
    elif isinstance(stmt, ast.UpdateStatement):
        for _, expr in stmt.assignments:
            yield expr
        if stmt.where is not None:
            yield stmt.where
    elif isinstance(stmt, ast.DeleteStatement):
        if stmt.where is not None:
            yield stmt.where
