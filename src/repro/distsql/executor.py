"""DistSQL executor: applies RDL/RQL/RAL statements to a runtime.

The :class:`~repro.adaptors.ShardingRuntime` provides the data sources, the
live sharding rule, the variables and the config center. A rule statement
turns into the rule's Governor config and hands it to
``ShardingRuntime.apply_rule`` (``drop_rule``), which builds, applies and
persists it; resources go through runtime methods too. Each mutation
produces the next immutable metadata snapshot, which is what invalidates
the engine's plan caches — there is no explicit cache-clearing in this
module.

AutoTable: a ``CREATE SHARDING TABLE RULE`` computes the data distribution
up front, so a later logical ``CREATE TABLE`` materializes the physical
shards automatically via DDL broadcast routing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..exceptions import DistSQLError, ShardingConfigError
from . import parser as p
from .show import SHOW_FORMS

if TYPE_CHECKING:
    from ..adaptors.runtime import ShardingRuntime


@dataclass
class DistSQLResult:
    """Uniform result shape: a tiny result set plus an outcome message."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple[Any, ...]] = field(default_factory=list)
    message: str = "OK"

    def fetchall(self) -> list[tuple[Any, ...]]:
        return list(self.rows)


def execute_distsql(sql: str, runtime: ShardingRuntime) -> DistSQLResult:
    """Parse and apply one DistSQL statement."""
    statement = p.parse_distsql(sql)
    handler = _HANDLERS.get(type(statement))
    if handler is None:
        raise DistSQLError(f"no handler for {type(statement).__name__}")
    return handler(statement, runtime)


# ---------------------------------------------------------------------------
# RDL
# ---------------------------------------------------------------------------


def _register_resource(stmt: p.RegisterResource, runtime: ShardingRuntime) -> DistSQLResult:
    for name, props in stmt.resources:
        if name in runtime.data_sources:
            raise DistSQLError(f"resource {name!r} already registered")
        runtime.register_resource(name, props)
    return DistSQLResult(message=f"registered {len(stmt.resources)} resource(s)")


def _unregister_resource(stmt: p.UnregisterResource, runtime: ShardingRuntime) -> DistSQLResult:
    # Idempotent: unknown (already unregistered) names are skipped, so a
    # retried or doubled UNREGISTER RESOURCE never raises — only resources
    # still referenced by a sharding rule are refused.
    removed = 0
    skipped: list[str] = []
    for name in stmt.names:
        if name not in runtime.data_sources:
            skipped.append(name)
            continue
        in_use = any(
            name in rule.data_source_names for rule in runtime.rule.table_rules()
        )
        if in_use:
            raise DistSQLError(f"resource {name!r} is referenced by sharding rules")
        runtime.unregister_resource(name)
        removed += 1
    message = f"unregistered {removed} resource(s)"
    if skipped:
        message += f"; skipped {', '.join(skipped)} (not registered)"
    return DistSQLResult(message=message)


def _rule_change(change: Callable[..., None], *args: Any) -> None:
    """``ShardingRuntime.apply_rule`` or ``drop_rule``; a rule that cannot
    be built or dropped is a DistSQLError."""
    try:
        change(*args)
    except ShardingConfigError as exc:
        raise DistSQLError(str(exc)) from exc


def _create_sharding_rule(
    stmt: p.CreateShardingTableRule, runtime: ShardingRuntime
) -> DistSQLResult:
    missing = [r for r in stmt.resources if r not in runtime.data_sources]
    if missing:
        raise DistSQLError(f"unknown resources {missing}; REGISTER RESOURCE first")
    if runtime.rule.is_sharded(stmt.table) and not stmt.alter:
        raise DistSQLError(
            f"sharding rule for {stmt.table!r} exists; use ALTER SHARDING TABLE RULE"
        )
    if not runtime.rule.is_sharded(stmt.table) and stmt.alter:
        raise DistSQLError(f"no sharding rule for {stmt.table!r} to alter")
    _rule_change(runtime.apply_rule, "sharding", stmt.table, {
        "resources": stmt.resources,
        "sharding_column": stmt.sharding_column,
        "type": stmt.algorithm_type,
        "props": stmt.properties,
        "key_generate_column": stmt.key_generate_column,
        "key_generator": stmt.key_generator,
    })
    verb = "altered" if stmt.alter else "created"
    nodes = len(runtime.rule.table_rule(stmt.table).data_nodes)
    return DistSQLResult(message=f"{verb} sharding rule for {stmt.table} over {nodes} data nodes")


def _drop_sharding_rule(stmt: p.DropShardingTableRule, runtime: ShardingRuntime) -> DistSQLResult:
    _rule_change(runtime.drop_rule, "sharding", stmt.table)
    return DistSQLResult(message=f"dropped sharding rule for {stmt.table}")


def _create_binding(stmt: p.CreateBindingRule, runtime: ShardingRuntime) -> DistSQLResult:
    from ..adaptors.runtime import binding_name

    _rule_change(runtime.apply_rule, "binding", binding_name(stmt.tables), {"tables": stmt.tables})
    return DistSQLResult(message=f"bound tables {', '.join(stmt.tables)}")


def _create_broadcast(stmt: p.CreateBroadcastRule, runtime: ShardingRuntime) -> DistSQLResult:
    _rule_change(runtime.apply_rule, "broadcast", stmt.table, {"table": stmt.table})
    return DistSQLResult(message=f"broadcast table {stmt.table}")


def _create_rwsplit(
    stmt: p.CreateReadwriteSplittingRule, runtime: ShardingRuntime
) -> DistSQLResult:
    if not stmt.primary or not stmt.replicas:
        raise DistSQLError("READWRITE_SPLITTING RULE requires PRIMARY and REPLICAS")
    unknown = [
        name for name in [stmt.primary, *stmt.replicas] if name not in runtime.data_sources
    ]
    if unknown:
        raise DistSQLError(f"unknown resources {unknown}")
    _rule_change(runtime.apply_rule, "readwrite_splitting", stmt.name,
                 {"source": stmt.primary, "primary": stmt.primary, "replicas": stmt.replicas})
    return DistSQLResult(message=f"readwrite-splitting rule {stmt.name} created")


# ---------------------------------------------------------------------------
# RQL
# ---------------------------------------------------------------------------


def _show(stmt: p.ShowStatement, runtime: ShardingRuntime) -> DistSQLResult:
    form = SHOW_FORMS[stmt.subject]
    columns = form.columns.split()
    rows = form.rows(runtime, stmt.argument)
    if rows and isinstance(rows[0], dict):  # a report keyed by the column names
        rows = [tuple(row[column] for column in columns) for row in rows]
    message = form.message if isinstance(form.message, str) else form.message(runtime, rows)
    return DistSQLResult(columns=columns, rows=rows, message=message)


# ---------------------------------------------------------------------------
# RAL
# ---------------------------------------------------------------------------

def _set_variable(stmt: p.SetVariable, runtime: ShardingRuntime) -> DistSQLResult:
    runtime.set_variable(stmt.name, stmt.value)
    return DistSQLResult(message=f"{stmt.name.lower()} = {stmt.value}")


def _preview(stmt: p.Preview, runtime: ShardingRuntime) -> DistSQLResult:
    rows = runtime.preview(stmt.sql)
    return DistSQLResult(columns=["data_source", "actual_sql"], rows=list(rows))


def _trace(stmt: p.TraceStatement, runtime: ShardingRuntime) -> DistSQLResult:
    """Execute the statement with a one-shot trace; rows are the span tree."""
    result = runtime.engine.execute(stmt.sql, force_trace=True)
    if result.is_query:
        consumed = len(result.fetchall())
        outcome = f"{consumed} row(s)"
    else:
        outcome = f"{result.update_count} row(s) updated"
    trace = result.trace
    rows = list(trace.tree_rows())
    return DistSQLResult(
        columns=["span", "wall_ms", "simulated_ms", "detail"],
        rows=rows,
        message=(
            f"trace #{trace.trace_id}: {outcome}, route={result.route_type}, "
            f"wall {trace.wall * 1000:.3f}ms, simulated {trace.simulated * 1000:.3f}ms"
        ),
    )


def _clear_plan_cache(stmt: p.ClearPlanCache, runtime: ShardingRuntime) -> DistSQLResult:
    plan_cache = runtime.engine.plan_cache
    dropped = len(plan_cache)
    plan_cache.invalidate("CLEAR PLAN CACHE")
    return DistSQLResult(message=f"cleared {dropped} plan(s)")


def _clear_result_cache(stmt: p.ClearResultCache, runtime: ShardingRuntime) -> DistSQLResult:
    dropped = runtime.engine.result_cache.clear("CLEAR RESULT CACHE")
    return DistSQLResult(message=f"cleared {dropped} cached result(s)")


def _reset_workload(stmt: p.ResetWorkload, runtime: ShardingRuntime) -> DistSQLResult:
    runtime.observability.workload.reset()
    return DistSQLResult(message="workload analytics reset")


def _migrate_table(stmt: p.MigrateTable, runtime: ShardingRuntime) -> DistSQLResult:
    """RAL scaling: build the target AutoTable layout and run the scaling
    job (prepare -> inventory -> check -> switchover), as Section V-A's
    "added-on administrator features, such as ... scaling". The switchover
    applies and persists the target's config, actual table names and the
    table's key generator included."""
    from ..adaptors.runtime import sharding_table_rule
    from ..features.scaling import ScalingJob

    if not runtime.rule.is_sharded(stmt.table):
        raise DistSQLError(f"no sharding rule for table {stmt.table!r} to migrate")
    missing = [r for r in stmt.resources if r not in runtime.data_sources]
    if missing:
        raise DistSQLError(f"unknown resources {missing}; REGISTER RESOURCE first")
    source_rule = runtime.rule.table_rule(stmt.table)
    key_generate = source_rule.key_generate
    config = {
        "resources": stmt.resources,
        "sharding_column": stmt.sharding_column,
        "type": stmt.algorithm_type,
        "props": stmt.properties,
        "key_generate_column": key_generate.column if key_generate else None,
        "key_generator": key_generate.generator.type_name if key_generate else "SNOWFLAKE",
        "tables": None,
    }
    # Disambiguate target table names from the source generation.
    existing = {node.table.lower() for node in source_rule.data_nodes}
    generation = 1
    try:
        target = sharding_table_rule(stmt.table, config)
        while any(node.table.lower() in existing for node in target.data_nodes):
            generation += 1
            config["tables"] = [
                f"{stmt.table}_g{generation}_{i}" for i in range(len(target.data_nodes))]
            target = sharding_table_rule(stmt.table, config)
    except ShardingConfigError as exc:
        raise DistSQLError(str(exc)) from exc
    job = ScalingJob(
        runtime.rule, target, runtime.data_sources, drop_source_tables=True,
        apply_rule=lambda _: runtime.apply_rule("sharding", stmt.table, config),
    )
    report = job.run()
    return DistSQLResult(
        columns=["table", "rows_migrated", "source_nodes", "target_nodes", "consistent"],
        rows=[(stmt.table, report.rows_migrated, report.source_nodes,
               report.target_nodes, report.consistent)],
        message=f"migrated {stmt.table}: {report.rows_migrated} rows to "
                f"{report.target_nodes} shards",
    )


_HANDLERS = {
    p.RegisterResource: _register_resource,
    p.UnregisterResource: _unregister_resource,
    p.CreateShardingTableRule: _create_sharding_rule,
    p.DropShardingTableRule: _drop_sharding_rule,
    p.CreateBindingRule: _create_binding,
    p.CreateBroadcastRule: _create_broadcast,
    p.CreateReadwriteSplittingRule: _create_rwsplit,
    p.ShowStatement: _show,
    p.SetVariable: _set_variable,
    p.Preview: _preview,
    p.TraceStatement: _trace,
    p.ClearPlanCache: _clear_plan_cache,
    p.ClearResultCache: _clear_result_cache,
    p.ResetWorkload: _reset_workload,
    p.MigrateTable: _migrate_table,
}
