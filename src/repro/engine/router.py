"""SQL router: map a statement context onto route units (Section V-B).

- **Broadcast route**: DDL on sharded tables, writes to broadcast tables
  and statements with no usable sharding condition fan out.
- **Standard route**: one table reference; its conditions narrow the nodes.
- **Joins** (:func:`_join_route`, the one co-location decision) run as
  units only where the units provably find every joined pair: the
  *binding route* (partners aligned by node index) or the *cartesian
  route* (per data source, the cross product of each table's routed
  nodes). Anything else raises :class:`~repro.exceptions.CoLocationError`,
  and the engine federates the SELECT.

INSERT batches are routed per values-row, so one multi-row INSERT becomes
one unit per shard holding only that shard's rows; a row with a NULL
sharding value has no data node and is refused. An UPDATE that assigns a
sharding column is refused unless the new value provably routes to the
node the row is on (:func:`_check_key_assignment`); compiled plans bypass
such an UPDATE, so this is the one place that decides it.

``route(context, rule)`` is a pure function of its arguments. The pipeline
passes the frozen rule of the statement's pinned metadata snapshot, so
routing takes no lock under live reconfiguration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..exceptions import CoLocationError, RouteError
from ..sharding import DataNode, ShardingRule, ShardingValue
from ..sql import ast
from .context import StatementContext, _const_value


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
        return list(dict.fromkeys(unit.data_source for unit in self.units))


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

    # one entry per table reference (a self-join counts twice); every
    # source holds a broadcast table, so it never decides co-location
    refs = [t.lower() for t in context.logic_tables if not rule.is_broadcast(t)]
    if not any(rule.is_sharded(t) for t in refs):
        if len(refs) < len(context.logic_tables) and statement.category == "DML":
            return _route_all_sources(rule)
        return _unicast(rule)
    if len(refs) == 1:
        result = _standard_route(context, rule, refs[0])
        if isinstance(statement, ast.UpdateStatement):
            _check_key_assignment(context, rule, refs[0], result)
        return result
    return _join_route(context, rule, refs)


def assigned_sharding_columns(statement: ast.UpdateStatement,
                              rule: ShardingRule) -> dict[str, ast.Expression]:
    """The sharding columns (lower-cased) an UPDATE's SET assigns, each
    with its new value's expression."""
    columns = rule.sharding_columns_of(statement.table.name)
    return {name.lower(): value for name, value in statement.assignments
            if name.lower() in columns}


def _check_key_assignment(context: StatementContext, rule: ShardingRule, logic: str,
                          result: RouteResult) -> None:
    """Refuse an UPDATE that could move a row off the node its key routes
    to. It passes only when the WHERE routes to one node and the same
    conditions, with each assigned sharding column taking its new value,
    route to that node again (``SET id = 0 WHERE id = 0``)."""
    assigned = assigned_sharding_columns(context.statement, rule)  # type: ignore[arg-type]
    if not assigned:
        return
    table_rule = rule.table_rule(logic)
    conditions = context.conditions_for(logic)
    for column, expr in assigned.items():
        known, value = _const_value(expr, context.params)
        if not known or value is None:
            break
        conditions[column] = ShardingValue(column, values=[value])
    else:
        units = result.units
        if len(units) == 1 and table_rule.route(conditions) == [
                DataNode(units[0].data_source, units[0].table_map[logic])]:
            return
    raise RouteError(
        f"UPDATE of {context.statement.table.name} assigns sharding column(s) "  # type: ignore[attr-defined]
        f"{sorted(assigned)}: the new value must route to the row's current data node")


# ---------------------------------------------------------------------------
# Sub-strategies
# ---------------------------------------------------------------------------


def _standard_route(context: StatementContext, rule: ShardingRule, logic_table: str) -> RouteResult:
    table_rule = rule.table_rule(logic_table)
    nodes = table_rule.route(context.conditions_for(logic_table))
    units = [RouteUnit(node.data_source, {logic_table: node.table}) for node in nodes]
    route_type = "standard"
    if len(nodes) == len(table_rule.data_nodes) and not context.conditions_for(logic_table):
        route_type = "broadcast"
    return RouteResult(units, route_type)


def _join_route(context: StatementContext, rule: ShardingRule, refs: list[str]) -> RouteResult:
    """The one co-location decision: may a statement over several table
    references run as shard units, or must it federate?

    Units find every joined pair when the key joins (``context.key_joins``)
    connect every reference and (a) the tables are one table or one
    declared binding group: node by node; or (b) every table places a key
    on the same data source: the cartesian route. Or when (c) every routed
    node lies on one data source: the cartesian route. Anything else
    raises :class:`CoLocationError`.
    """
    tables = list(dict.fromkeys(t for t in refs if rule.is_sharded(t)))
    keyed = _keys_connect(context.key_joins, len(refs))
    if keyed and len(tables) == 1:  # a self-join on the key: node by node
        return _standard_route(context, rule, tables[0])
    if keyed and rule.are_binding(tables):
        return _binding_route(context, rule, tables)
    # a table referenced twice mixes both references' conditions: route it whole
    nodes = {t: rule.table_rule(t).data_nodes if not keyed and refs.count(t) > 1
             else rule.table_rule(t).route(context.conditions_for(t)) for t in tables}
    sources = {node.data_source for found in nodes.values() for node in found}
    if len(tables) < len(set(refs)):  # a table in no rule lives on the default source
        sources.add(_default_source(rule))
    # one node per doubly referenced table: a unit maps a table to one actual table
    one_source = len(sources) == 1 and all(
        len(nodes[t]) == 1 for t in tables if refs.count(t) > 1)
    if one_source or keyed and _placed_alike(rule, tables):
        units = []
        for ds in dict.fromkeys(n.data_source for t in tables for n in nodes[t]):
            local = [[n.table for n in nodes[t] if n.data_source == ds] for t in tables]
            units += [RouteUnit(ds, dict(zip(tables, combo)))
                      for combo in itertools.product(*local)]
        if units:  # none when the conditions route the key-joined tables apart
            return RouteResult(units, "cartesian")
    raise CoLocationError(
        f"no co-located shards for {refs}: their joined rows are not proved "
        f"to meet on one data source")


def _keys_connect(key_joins: list[tuple[str, str]], references: int) -> bool:
    """Do the key joins connect ``references`` table references?"""
    reached = set(key_joins[0]) if key_joins else set()
    for _ in key_joins:  # a chain of n key joins is walked in at most n passes
        reached.update(*(pair for pair in key_joins if reached.intersection(pair)))
    return len(reached) == references


def _placed_alike(rule: ShardingRule, tables: list[str]) -> bool:
    """Does every table's database strategy put one key on one data
    source: the same strategy and algorithm class, equal algorithm state,
    and the same ordered sources? (An AutoTable places by its table
    strategy, so it is never proved here.)"""
    placements = []
    for table_rule in map(rule.table_rule, tables):
        strategy = table_rule.database_strategy
        if not strategy.columns or table_rule.auto:
            return False
        algorithm = strategy.algorithm  # type: ignore[attr-defined]
        placements.append((type(strategy), type(algorithm), vars(algorithm),
                           table_rule.data_source_names))
    return all(placement == placements[0] for placement in placements)


def _binding_route(context: StatementContext, rule: ShardingRule, tables: list[str]) -> RouteResult:
    """Route the primary table, then align partners by node index."""
    primary_name = tables[0]
    primary = rule.table_rule(primary_name)
    # Conditions may be attached to any binding member (e.g. WHERE on the
    # order table while the user table is primary); the key joins equate
    # the members' keys, so each member's condition holds for all.
    merged = dict(context.conditions_for(primary_name))
    for other in tables[1:]:
        for column, condition in context.conditions_for(other).items():
            merged[column] = merged[column].intersect(condition) if column in merged else condition
    members = [rule.table_rule(t) for t in tables]
    units = [RouteUnit(node.data_source, {
        t: rule.binding_partner_node(primary, node, member).table
        for t, member in zip(tables, members)}) for node in primary.route(merged)]
    return RouteResult(units, "standard")


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
        for condition in conditions.values():
            if None in condition.values:  # type: ignore[operator]
                raise RouteError(
                    f"INSERT row #{row_index} into {logic!r} has NULL in sharding column "
                    f"{condition.column!r}: a row has a data node only by its value")
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
    table = context.logic_tables[0].lower() if context.logic_tables else ""
    if rule.is_sharded(table):
        return RouteResult([RouteUnit(node.data_source, {table: node.table})
                            for node in rule.table_rule(table).data_nodes], "broadcast")
    if rule.is_broadcast(table):
        return _route_all_sources(rule)
    return _unicast(rule)


def _route_all_sources(rule: ShardingRule) -> RouteResult:
    sources = rule.all_data_sources()
    if not sources:
        raise RouteError("no data sources configured")
    return RouteResult([RouteUnit(ds) for ds in sources], "broadcast")


def _unicast(rule: ShardingRule) -> RouteResult:
    return RouteResult([RouteUnit(_default_source(rule))], "unicast")


def _default_source(rule: ShardingRule) -> str:
    """Where a table in no rule lives."""
    sources = rule.all_data_sources()
    if not sources:
        raise RouteError("no data sources configured")
    return rule.default_data_source or sources[0]
