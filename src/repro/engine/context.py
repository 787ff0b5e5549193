"""Statement context: what the router needs to know about a parsed SQL.

The SQL parser produces a bare AST; this module extracts the routing
context (Section III "parsing contexts"): which logic tables are
referenced, the alias map, and — most importantly — the *sharding
conditions*: predicates over sharding columns in a form the strategies
understand (:class:`repro.sharding.ShardingValue`).

For INSERT it also performs distributed key generation: if the table rule
declares a key-generate column and the statement doesn't supply it, the
generated keys are appended *before* routing, because the key may be the
sharding column itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..exceptions import RouteError
from ..sharding import HINT_COLUMN, ShardingRule, ShardingValue
from ..sql import ast


@dataclass
class StatementContext:
    """Everything downstream pipeline stages need about one statement."""

    statement: ast.Statement
    sql: str
    params: tuple[Any, ...]
    #: logic table names as written (original case)
    logic_tables: list[str] = field(default_factory=list)
    #: alias (lower) -> logic table name (lower)
    alias_map: dict[str, str] = field(default_factory=dict)
    #: per logic table (lower): sharding column (lower) -> condition
    conditions: dict[str, dict[str, ShardingValue]] = field(default_factory=dict)
    #: for INSERT: per values-row conditions (router splits the batch)
    insert_row_conditions: list[dict[str, ShardingValue]] = field(default_factory=list)
    #: keys generated for INSERT (column, one value per row), for callers
    generated_keys: tuple[str, list[Any]] | None = None
    hint_values: list[Any] | None = None
    #: True when two predicates on one sharding column were intersected;
    #: the plan cache refuses such statements (the intersection result
    #: depends on the bound parameter values).
    merged_conditions: bool = False
    #: pairs of table references (exposed names, lower) whose sharding keys
    #: a top-level ON or WHERE conjunct equates: the router's evidence that
    #: their joined rows share a key (see :func:`repro.engine.router.route`)
    key_joins: list[tuple[str, str]] = field(default_factory=list)

    @property
    def category(self) -> str:
        return self.statement.category

    def conditions_for(self, logic_table: str) -> dict[str, ShardingValue]:
        merged = dict(self.conditions.get(logic_table.lower(), {}))
        if self.hint_values:
            merged[HINT_COLUMN] = ShardingValue(HINT_COLUMN, values=list(self.hint_values))
        return merged


def build_context(
    statement: ast.Statement,
    sql: str,
    params: Sequence[Any],
    rule: ShardingRule,
    hint_values: Sequence[Any] | None = None,
) -> StatementContext:
    """Extract the routing context for one parsed statement."""
    context = StatementContext(
        statement=statement,
        sql=sql,
        params=tuple(params),
        hint_values=list(hint_values) if hint_values else None,
    )
    tables = statement.tables()
    context.logic_tables = [t.name for t in tables if t is not None]
    for ref in tables:
        if ref is None:
            continue
        context.alias_map[ref.exposed_name.lower()] = ref.name.lower()

    if isinstance(statement, ast.InsertStatement):
        _generate_keys(statement, rule, context)
        _extract_insert_conditions(statement, rule, context)
        return context

    where = getattr(statement, "where", None)
    if where is not None:
        _extract_where_conditions(where, rule, context)
    for join in getattr(statement, "joins", ()):
        if join.condition is not None:
            _extract_where_conditions(join.condition, rule, context, join.kind)
    return context


# ---------------------------------------------------------------------------
# WHERE extraction
# ---------------------------------------------------------------------------


def _extract_where_conditions(
    expr: ast.Expression,
    rule: ShardingRule,
    context: StatementContext,
    join_kind: str = "",
) -> None:
    """Collect sharding conditions and key joins from the top-level AND
    conjunction. Of an ON clause (``join_kind``) only equalities count,
    and an outer join's narrow no table: that ON filters no table's rows.

    OR branches are ignored (conservatively routing wider), matching the
    paper's behaviour of broadcast-routing un-analyzable predicates.
    """
    for predicate in ast.conjuncts(expr):
        if isinstance(predicate, ast.BinaryOp) and predicate.op == "=":
            if join_kind in ("", "INNER"):
                _note_equality(predicate, rule, context)
            _note_key_join(predicate, rule, context)
        elif join_kind:
            continue
        elif isinstance(predicate, ast.InExpr) and not predicate.negated:
            _note_in(predicate, rule, context)
        elif isinstance(predicate, ast.BetweenExpr) and not predicate.negated:
            _note_between(predicate, rule, context)
        elif isinstance(predicate, ast.BinaryOp) and predicate.op in ("<", ">", "<=", ">="):
            _note_comparison(predicate, rule, context)


def _sharding_column_of(
    column: ast.ColumnRef, rule: ShardingRule, context: StatementContext
) -> tuple[str, str] | None:
    """If ``column`` is a sharding column, return (logic_table, column).

    Qualified refs resolve through the alias map; bare refs match any
    referenced sharded table that declares the column.
    """
    name = column.name.lower()
    if column.table is not None:
        logic = context.alias_map.get(column.table.lower())
        if logic is None or not rule.is_sharded(logic):
            return None
        if name in rule.sharding_columns_of(logic):
            return logic, name
        return None
    for exposed, logic in context.alias_map.items():
        if rule.is_sharded(logic) and name in rule.sharding_columns_of(logic):
            return logic, name
    return None


def _const_value(expr: ast.Expression, params: tuple[Any, ...]) -> tuple[bool, Any]:
    if isinstance(expr, ast.Literal):
        return True, expr.value
    if isinstance(expr, ast.Placeholder):
        if expr.index < len(params):
            return True, params[expr.index]
        return False, None
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        ok, value = _const_value(expr.operand, params)
        if ok and isinstance(value, (int, float)):
            return True, -value
    return False, None


def _merge_condition(context: StatementContext, logic: str, value: ShardingValue) -> None:
    table_conditions = context.conditions.setdefault(logic, {})
    existing = table_conditions.get(value.column)
    if existing is not None:
        context.merged_conditions = True
        table_conditions[value.column] = existing.intersect(value)
    else:
        table_conditions[value.column] = value


def _note_equality(predicate: ast.BinaryOp, rule: ShardingRule, context: StatementContext) -> None:
    left, right = predicate.left, predicate.right
    for col_expr, val_expr in ((left, right), (right, left)):
        if not isinstance(col_expr, ast.ColumnRef):
            continue
        target = _sharding_column_of(col_expr, rule, context)
        if target is None:
            continue
        ok, value = _const_value(val_expr, context.params)
        if ok:
            logic, column = target
            _merge_condition(context, logic, ShardingValue(column, values=[value]))


def _note_key_join(predicate: ast.BinaryOp, rule: ShardingRule, context: StatementContext) -> None:
    """Record ``a.x = b.y`` when ``x`` and ``y`` are each their table's one
    sharding column: the two references' rows that join share the key
    that places them. Only qualified references count."""
    refs = (predicate.left, predicate.right)
    if not all(isinstance(ref, ast.ColumnRef) and ref.table is not None for ref in refs):
        return
    a, b = (ref.table.lower() for ref in refs)  # type: ignore[union-attr]
    if a != b and all(
            rule.sharding_columns_of(context.alias_map.get(exposed, "")) == {ref.name.lower()}
            for exposed, ref in ((a, refs[0]), (b, refs[1]))):
        context.key_joins.append((a, b))


def _note_in(predicate: ast.InExpr, rule: ShardingRule, context: StatementContext) -> None:
    if not isinstance(predicate.operand, ast.ColumnRef):
        return
    target = _sharding_column_of(predicate.operand, rule, context)
    if target is None:
        return
    values = []
    for item in predicate.items:
        ok, value = _const_value(item, context.params)
        if not ok:
            return
        values.append(value)
    logic, column = target
    _merge_condition(context, logic, ShardingValue(column, values=values))


def _note_between(predicate: ast.BetweenExpr, rule: ShardingRule, context: StatementContext) -> None:
    if not isinstance(predicate.operand, ast.ColumnRef):
        return
    target = _sharding_column_of(predicate.operand, rule, context)
    if target is None:
        return
    ok_low, low = _const_value(predicate.low, context.params)
    ok_high, high = _const_value(predicate.high, context.params)
    if not (ok_low and ok_high):
        return
    logic, column = target
    _merge_condition(context, logic, ShardingValue(column, range_=(low, high)))


def _note_comparison(predicate: ast.BinaryOp, rule: ShardingRule, context: StatementContext) -> None:
    left, right = predicate.left, predicate.right
    op = predicate.op
    col_expr, val_expr = left, right
    if not isinstance(col_expr, ast.ColumnRef):
        col_expr, val_expr = right, left
        op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}[op]
    if not isinstance(col_expr, ast.ColumnRef):
        return
    target = _sharding_column_of(col_expr, rule, context)
    if target is None:
        return
    ok, value = _const_value(val_expr, context.params)
    if not ok:
        return
    logic, column = target
    if op in ("<", "<="):
        condition = ShardingValue(column, range_=(None, value))
    else:
        condition = ShardingValue(column, range_=(value, None))
    _merge_condition(context, logic, condition)


# ---------------------------------------------------------------------------
# INSERT extraction + key generation
# ---------------------------------------------------------------------------


def _generate_keys(stmt: ast.InsertStatement, rule: ShardingRule, context: StatementContext) -> None:
    if not rule.is_sharded(stmt.table.name):
        return
    key_config = rule.table_rule(stmt.table.name).key_generate
    if key_config is None:
        return
    column = key_config.column
    present = any(c.lower() == column.lower() for c in stmt.columns)
    if present:
        return
    keys: list[Any] = []
    stmt.columns.append(column)
    for row in stmt.values_rows:
        key = key_config.generator.next_key()
        keys.append(key)
        row.append(ast.Literal(key))
    context.generated_keys = (column, keys)


def _extract_insert_conditions(
    stmt: ast.InsertStatement, rule: ShardingRule, context: StatementContext
) -> None:
    logic = stmt.table.name.lower()
    if not rule.is_sharded(logic):
        return
    sharding_columns = rule.sharding_columns_of(logic)
    if not sharding_columns:
        return
    column_positions = {c.lower(): i for i, c in enumerate(stmt.columns)}
    missing = [c for c in sharding_columns if c not in column_positions]
    if missing and HINT_COLUMN not in missing:
        raise RouteError(
            f"INSERT into sharded table {stmt.table.name!r} must supply "
            f"sharding column(s) {sorted(missing)}"
        )
    for row in stmt.values_rows:
        row_conditions: dict[str, ShardingValue] = {}
        for column in sharding_columns:
            position = column_positions[column]
            ok, value = _const_value(row[position], context.params)
            if not ok:
                raise RouteError(
                    f"sharding column {column!r} in INSERT must be a literal or bound parameter"
                )
            row_conditions[column] = ShardingValue(column, values=[value])
        context.insert_row_conditions.append(row_conditions)
