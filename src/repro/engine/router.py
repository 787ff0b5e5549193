"""SQL router: map a statement context onto route units (Section V-B).

Implements the paper's two strategies and their sub-strategies:

- **Broadcast route** — statements without usable sharding keys, DDL on
  sharded tables, and writes to broadcast tables fan out to every
  relevant node/data source.
- **Sharding route**
  - *standard route*: one logic table, or several tables within one
    binding group — conditions narrow the node set; binding partners are
    derived by node index so joins stay shard-local;
  - *cartesian route*: joined tables without a binding relationship —
    per data source, the cross product of both tables' actual tables.

INSERT batches are routed per values-row, so one logical multi-row INSERT
becomes one unit per shard holding only that shard's rows.

Concurrency contract: ``route(context, rule)`` is a pure function of its
arguments. The pipeline always passes the rule of the statement's pinned
:class:`~repro.metadata.MetadataContext` snapshot — frozen, so neither
this module nor a concurrent DistSQL mutation can change it mid-route —
which is what makes routing lock-free under live reconfiguration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..exceptions import RouteError
from ..sharding import DataNode, ShardingRule
from ..sql import ast
from .context import StatementContext


@dataclass
class RouteUnit:
    """One executable target: a data source plus logic->actual table map."""

    data_source: str
    table_map: dict[str, str] = field(default_factory=dict)
    #: for INSERT: indexes of values-rows this unit receives
    row_indexes: tuple[int, ...] | None = None

    def actual_table(self, logic_table: str) -> str:
        return self.table_map.get(logic_table.lower(), logic_table)


@dataclass
class RouteResult:
    """Outcome of routing one statement."""

    units: list[RouteUnit]
    route_type: str  # "standard" | "broadcast" | "cartesian" | "unicast"
    #: the routed node set, as a compiled plan's unit memo keys it (set by
    #: ``CompiledPlan.route_bound`` only; ``None`` means no memo)
    memo_key: object = None

    @property
    def is_single(self) -> bool:
        return len(self.units) == 1

    def data_sources(self) -> list[str]:
        seen: dict[str, None] = {}
        for unit in self.units:
            seen.setdefault(unit.data_source)
        return list(seen)


def shard_key_values(context: StatementContext) -> list[tuple[str, str, Any]]:
    """(logic table, column, value) triples this statement routed by.

    Feeds the workload tracker's hot-key sketches: only *point* values
    count (equality / small IN lists / per-row INSERT keys) — ranges and
    wide IN lists say nothing about individual key popularity.
    """
    out: list[tuple[str, str, Any]] = []
    statement = context.statement
    if isinstance(statement, ast.InsertStatement):
        logic = statement.table.name.lower()
        for row in context.insert_row_conditions:
            for column, condition in row.items():
                if condition.values:
                    out.append((logic, column, condition.values[0]))
        return out
    for table, columns in context.conditions.items():
        if table.startswith("__"):  # marker entries such as "__join__"
            continue
        for column, condition in columns.items():
            values = condition.values
            if values is not None and 0 < len(values) <= 8:
                for value in values:
                    out.append((table, column, value))
    return out


def route(context: StatementContext, rule: ShardingRule) -> RouteResult:
    """Route one statement context against the sharding rule."""
    statement = context.statement
    if isinstance(statement, ast.InsertStatement):
        return _route_insert(context, rule)
    if statement.category == "DDL":
        return _route_ddl(context, rule)
    if statement.category in ("TCL", "DAL"):
        return _route_all_sources(rule)

    sharded = [t for t in context.logic_tables if rule.is_sharded(t)]
    broadcast = [t for t in context.logic_tables if rule.is_broadcast(t)]

    if not sharded:
        if broadcast and statement.category == "DML":
            return _route_all_sources(rule)
        return _unicast(rule)

    unique_sharded = list(dict.fromkeys(t.lower() for t in sharded))
    if len(unique_sharded) == 1:
        return _standard_route(context, rule, unique_sharded[0])
    if rule.are_binding(unique_sharded):
        return _binding_route(context, rule, unique_sharded)
    return _cartesian_route(context, rule, unique_sharded)


# ---------------------------------------------------------------------------
# Sub-strategies
# ---------------------------------------------------------------------------


def _standard_route(context: StatementContext, rule: ShardingRule, logic_table: str) -> RouteResult:
    table_rule = rule.table_rule(logic_table)
    nodes = table_rule.route(context.conditions_for(logic_table))
    units = [
        RouteUnit(node.data_source, {logic_table: node.table}) for node in nodes
    ]
    route_type = "standard"
    if len(nodes) == len(table_rule.data_nodes) and not context.conditions_for(logic_table):
        route_type = "broadcast"
    return RouteResult(units, route_type)


def _binding_route(context: StatementContext, rule: ShardingRule, tables: list[str]) -> RouteResult:
    """Route the primary table, then align partners by node index."""
    primary_name = tables[0]
    primary = rule.table_rule(primary_name)
    # Conditions may be attached to any binding member (e.g. WHERE on the
    # order table while the user table is primary); merge them since all
    # members share the sharding key semantics.
    merged_conditions = dict(context.conditions_for(primary_name))
    for other in tables[1:]:
        for column, condition in context.conditions_for(other).items():
            existing = merged_conditions.get(column)
            merged_conditions[column] = existing.intersect(condition) if existing else condition
    nodes = primary.route(merged_conditions)
    units = []
    for node in nodes:
        table_map = {primary_name: node.table}
        for other in tables[1:]:
            partner = rule.binding_partner_node(primary, node, rule.table_rule(other))
            table_map[other] = partner.table
        units.append(RouteUnit(node.data_source, table_map))
    return RouteResult(units, "standard")


def _cartesian_route(context: StatementContext, rule: ShardingRule, tables: list[str]) -> RouteResult:
    """Per data source, cross-product the routed tables of each logic table."""
    per_table_nodes: dict[str, list[DataNode]] = {
        t: rule.table_rule(t).route(context.conditions_for(t)) for t in tables
    }
    data_sources: list[str] = []
    for nodes in per_table_nodes.values():
        for node in nodes:
            if node.data_source not in data_sources:
                data_sources.append(node.data_source)
    units: list[RouteUnit] = []
    for ds in data_sources:
        tables_in_ds: list[list[str]] = []
        for t in tables:
            local = [n.table for n in per_table_nodes[t] if n.data_source == ds]
            tables_in_ds.append(local)
        if any(not local for local in tables_in_ds):
            continue  # join cannot execute here; some table has no shard in ds
        for combo in itertools.product(*tables_in_ds):
            units.append(RouteUnit(ds, dict(zip(tables, combo))))
    if not units:
        raise RouteError(
            f"cartesian route found no co-located shards for tables {tables}"
        )
    return RouteResult(units, "cartesian")


def _route_insert(context: StatementContext, rule: ShardingRule) -> RouteResult:
    statement = context.statement
    assert isinstance(statement, ast.InsertStatement)
    logic = statement.table.name
    if rule.is_broadcast(logic):
        return _route_all_sources(rule)
    if not rule.is_sharded(logic):
        return _unicast(rule)
    table_rule = rule.table_rule(logic)
    if not context.insert_row_conditions:
        # No sharding columns on this rule (vertical / single-node table):
        # the whole batch goes to the rule's one data node.
        nodes = table_rule.route({})
        if len(nodes) != 1:
            raise RouteError(
                f"INSERT into {logic!r} has no sharding values but the rule "
                f"spans {len(nodes)} data nodes"
            )
        unit = RouteUnit(nodes[0].data_source, {logic.lower(): nodes[0].table})
        return RouteResult([unit], "standard")
    by_node: dict[DataNode, list[int]] = {}
    for row_index, conditions in enumerate(context.insert_row_conditions):
        nodes = table_rule.route(conditions)
        if len(nodes) != 1:
            raise RouteError(
                f"INSERT row #{row_index} routed to {len(nodes)} nodes; "
                "sharding values must identify exactly one shard"
            )
        by_node.setdefault(nodes[0], []).append(row_index)
    units = [
        RouteUnit(node.data_source, {logic.lower(): node.table}, row_indexes=tuple(rows))
        for node, rows in by_node.items()
    ]
    return RouteResult(units, "standard")


def _route_ddl(context: StatementContext, rule: ShardingRule) -> RouteResult:
    tables = [t for t in context.logic_tables]
    if tables and rule.is_sharded(tables[0]):
        table_rule = rule.table_rule(tables[0])
        units = [
            RouteUnit(node.data_source, {tables[0].lower(): node.table})
            for node in table_rule.data_nodes
        ]
        return RouteResult(units, "broadcast")
    if tables and rule.is_broadcast(tables[0]):
        return _route_all_sources(rule)
    return _unicast(rule)


def _route_all_sources(rule: ShardingRule) -> RouteResult:
    sources = rule.all_data_sources()
    if not sources:
        raise RouteError("no data sources configured")
    return RouteResult([RouteUnit(ds) for ds in sources], "broadcast")


def _unicast(rule: ShardingRule) -> RouteResult:
    sources = rule.all_data_sources()
    if not sources:
        raise RouteError("no data sources configured")
    target = rule.default_data_source or sources[0]
    return RouteResult([RouteUnit(target)], "unicast")
