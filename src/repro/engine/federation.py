"""Federation executor: cross-source joins without co-located shards.

The cartesian route (Section V-B) requires every joined table to have a
shard in the same data source. When tables live in disjoint sources —
e.g. vertically-sharded tables on different servers — upstream
ShardingSphere 5.x falls back to its *Federation* engine: pull the
(filtered) rows of each table into the middleware and finish the query
there. This module is that fallback.

It is deliberately a last resort: the pipeline only federates when the
router raises the no-co-located-shards error, and per-table WHERE
conjuncts are pushed down so each shard ships only matching rows.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from ..exceptions import UnsupportedSQLError
from ..sql import ast
from ..storage.database import Database
from ..storage.executor import QueryResult
from ..storage.plans import execute_statement
from .context import StatementContext

if TYPE_CHECKING:
    from ..metadata import MetadataContext
    from .pipeline import SQLEngine

#: refuse to materialize more rows than this into the federation scratch DB
MAX_FEDERATION_ROWS = 500_000


class _RowBudget:
    """Exact shared row-count guard for concurrent materialization.

    Every pulled row is charged under a lock, so the limit cannot be
    overshot by racing per-table tasks losing each other's counts; the
    first task to cross it raises and the others are surfaced via their
    futures.
    """

    __slots__ = ("limit", "_count", "_lock")

    def __init__(self, limit: int):
        self.limit = limit
        self._count = 0
        self._lock = threading.Lock()

    def charge(self, rows: int = 1) -> None:
        with self._lock:
            self._count += rows
            if self._count > self.limit:
                raise UnsupportedSQLError(
                    f"federated query would materialize more than "
                    f"{self.limit} rows; add narrowing predicates"
                )


def federate_select(
    engine: "SQLEngine",
    context: StatementContext,
    snap: "MetadataContext | None" = None,
) -> QueryResult:
    """Execute a SELECT by materializing each referenced table locally.

    Per-table pulls are independent, so they fan out over the engine's
    worker pool; a single-table statement stays on the calling thread.
    ``snap`` pins the statement to one metadata snapshot (rule + data
    sources); None falls back to the engine's live view.
    """
    statement = context.statement
    if not isinstance(statement, ast.SelectStatement):
        raise UnsupportedSQLError("only SELECT statements can be federated")

    scratch = Database("federation")
    # Predicates on the nullable side of an outer join filter *after* the
    # join produces NULLs; pushing them below the join would change results.
    no_pushdown = {
        join.table.exposed_name.lower()
        for join in statement.joins
        if join.kind in ("LEFT", "RIGHT", "FULL")
    }
    refs: list[ast.TableRef] = []
    seen: set[str] = set()
    for ref in statement.tables():
        if ref.name.lower() in seen:
            continue
        seen.add(ref.name.lower())
        refs.append(ref)
    budget = _RowBudget(MAX_FEDERATION_ROWS)
    if len(refs) <= 1:
        for ref in refs:
            pushdown_ok = ref.exposed_name.lower() not in no_pushdown
            _materialize(engine, context, ref, scratch, budget, pushdown_ok, snap)
    else:
        futures = [
            engine.executor.submit(
                _materialize, engine, context, ref, scratch, budget,
                ref.exposed_name.lower() not in no_pushdown, snap,
            )
            for ref in refs
        ]
        first_error: Exception | None = None
        for future in futures:
            try:
                future.result()
            except Exception as exc:  # collect all; every task must finish
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
    return execute_statement(scratch, statement, context.params)


def _materialize(
    engine: "SQLEngine",
    context: StatementContext,
    ref: ast.TableRef,
    scratch: Database,
    budget: _RowBudget,
    pushdown_ok: bool = True,
    snap: "MetadataContext | None" = None,
) -> int:
    """Copy one logic table's (filtered) rows into the scratch database."""
    logic = ref.name
    sources = snap.data_sources if snap is not None else engine.data_sources
    nodes = _nodes_of(engine, logic, snap)
    schema = None
    fetched = 0
    pushdown = _pushdown_predicate(context, ref) if pushdown_ok else None
    for ds_name, actual in nodes:
        source = sources[ds_name]
        table = source.database.table(actual)
        if schema is None:
            schema = table.schema.clone_renamed(logic)
            scratch.create_table(schema)
        target = scratch.table(logic)
        per_shard = ast.SelectStatement(
            select_items=[ast.SelectItem(ast.Star())],
            from_table=ast.TableRef(actual, alias=ref.alias),
            where=ast.clone_expression(pushdown) if pushdown is not None else None,
        )
        connection = source.pool.acquire()
        try:
            cursor = connection.execute(per_shard, context.params)
            columns = cursor.columns
            for row in cursor:
                budget.charge()
                target.insert(dict(zip(columns, row)))
                fetched += 1
        finally:
            source.pool.release(connection)
    return fetched


def _nodes_of(
    engine: "SQLEngine", logic: str, snap: "MetadataContext | None" = None
) -> list[tuple[str, str]]:
    rule = snap.rule if snap is not None else engine.rule
    sources = snap.data_sources if snap is not None else engine.data_sources
    if rule.is_sharded(logic):
        return [(n.data_source, n.table) for n in rule.table_rule(logic).data_nodes]
    # broadcast tables are replicated everywhere (one copy suffices) and
    # unsharded tables live on the default source
    default = rule.default_data_source or next(iter(sources))
    return [(default, logic)]


def _pushdown_predicate(context: StatementContext, ref: ast.TableRef) -> ast.Expression | None:
    """AND of the WHERE conjuncts that reference only this table.

    A conjunct qualifies when every column it mentions is either qualified
    by this table's exposed name or unqualified-and-unclaimed by other
    tables (single-table queries never reach federation, so unqualified
    columns are kept only when no other table could own them).
    """
    statement = context.statement
    where = getattr(statement, "where", None)
    if where is None:
        return None
    exposed = ref.exposed_name.lower()
    other_names = {
        t.exposed_name.lower() for t in statement.tables() if t.exposed_name.lower() != exposed
    }
    kept: list[ast.Expression] = []
    for predicate in _conjuncts(where):
        qualifiers = {
            node.table.lower()
            for node in predicate.walk()
            if isinstance(node, ast.ColumnRef) and node.table is not None
        }
        has_unqualified = any(
            isinstance(node, ast.ColumnRef) and node.table is None
            for node in predicate.walk()
        )
        if has_unqualified:
            continue  # ambiguous ownership; evaluate after the join
        if qualifiers and qualifiers <= {exposed}:
            kept.append(ast.clone_expression(predicate))
    if not kept:
        return None
    out = kept[0]
    for predicate in kept[1:]:
        out = ast.BinaryOp("AND", out, predicate)
    # Rewrite the qualifier to the per-shard alias-or-name (the alias is
    # preserved on the per-shard FROM, so qualified refs still resolve).
    return out


def _conjuncts(expr: ast.Expression):
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr
