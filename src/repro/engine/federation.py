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

from collections import Counter
from typing import TYPE_CHECKING, Mapping

from ..exceptions import UnsupportedSQLError
from ..sql import ast
from ..storage.database import Database
from ..storage.executor import QueryResult
from ..storage.plans import execute_statement
from .context import StatementContext
from .rewriter import ExecutionUnit
from .router import RouteUnit

if TYPE_CHECKING:
    from ..metadata import MetadataContext
    from ..observability.trace import Span, Trace
    from ..storage import Connection
    from ..storage.table import Table
    from .executor import ExecutionEngine

#: refuse to materialize more rows than this into the federation scratch DB
MAX_FEDERATION_ROWS = 500_000


def federate_select(
    executor: "ExecutionEngine",
    context: StatementContext,
    snap: "MetadataContext",
    held_connections: Mapping[str, "Connection"] | None = None,
    trace: "Trace | None" = None,
    parent_span: "Span | None" = None,
) -> QueryResult:
    """Execute a SELECT by materializing each referenced table locally.

    Every data node of every referenced table is one pull, ``SELECT * FROM
    <actual> [alias] WHERE <pushdown>``, and all of them are the units of
    one :meth:`ExecutionEngine.execute` call: issued by the calling thread
    and booked as one step, on the open transaction's connections
    (``held_connections``), under the same breakers, health check,
    deadline and trace (``parent_span``) as any other statement's units.
    ``snap`` pins the statement to one metadata snapshot (rule + data
    sources).
    """
    statement = context.statement
    if not isinstance(statement, ast.SelectStatement):
        raise UnsupportedSQLError("only SELECT statements can be federated")

    scratch = Database("federation")
    sources = snap.data_sources
    # Predicates on the nullable side of an outer join filter *after* the
    # join produces NULLs; pushing them below the join would change results.
    no_pushdown = {
        join.table.exposed_name.lower()
        for join in statement.joins
        if join.kind in ("LEFT", "RIGHT", "FULL")
    }
    params = tuple(context.params)
    #: (pull, the scratch table its rows go to)
    pulls: list[tuple[ExecutionUnit, "Table"]] = []
    seen: set[str] = set()
    for ref in statement.tables():
        logic = ref.name
        if logic.lower() in seen:
            continue
        seen.add(logic.lower())
        pushdown = (_pushdown_predicate(context, ref)
                    if ref.exposed_name.lower() not in no_pushdown else None)
        nodes = _nodes_of(snap, logic)
        first_ds, first_actual = nodes[0]
        scratch.create_table(
            sources[first_ds].database.table(first_actual).schema.clone_renamed(logic))
        target = scratch.table(logic)
        for ds_name, actual in nodes:
            per_shard = ast.SelectStatement(
                select_items=[ast.SelectItem(ast.Star())],
                from_table=ast.TableRef(actual, alias=ref.alias),
                where=ast.clone_expression(pushdown) if pushdown is not None else None,
            )
            unit = ExecutionUnit(ds_name, params, per_shard,
                                 RouteUnit(ds_name, {logic.lower(): actual}),
                                 snap.dialect_of(ds_name))
            pulls.append((unit, target))
    # the engine answers group by group, in order of first appearance: sorted
    # by data source, its results line up with the pulls one for one
    pulls.sort(key=lambda pull: pull[0].data_source)
    execution = executor.execute(
        [unit for unit, _ in pulls], True, held_connections, route_type="federation",
        trace=trace, parent_span=parent_span, sources=sources)
    observability = executor.observability
    if observability is not None:  # the pulls answered, and are not the statement's units
        for ds_name, count in Counter(unit.data_source for unit, _ in pulls).items():
            observability.on_source_attempt(ds_name, True, count)
    try:
        budget = MAX_FEDERATION_ROWS
        for (_unit, target), shard in zip(pulls, execution.results):
            columns = shard.columns
            for row in shard:
                budget -= 1
                if budget < 0:
                    raise UnsupportedSQLError(
                        f"federated query would materialize more than "
                        f"{MAX_FEDERATION_ROWS} rows; add narrowing predicates"
                    )
                target.insert(dict(zip(columns, row)))
    finally:
        execution.release()
    return execute_statement(scratch, statement, context.params)


def _nodes_of(snap: "MetadataContext", logic: str) -> list[tuple[str, str]]:
    rule = snap.rule
    if rule.is_sharded(logic):
        return [(n.data_source, n.table) for n in rule.table_rule(logic).data_nodes]
    # broadcast tables are replicated everywhere (one copy suffices) and
    # unsharded tables live on the default source
    default = rule.default_data_source or next(iter(snap.data_sources))
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
