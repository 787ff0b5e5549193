"""Sharding rule model: data nodes, strategies, table rules, binding rules.

Terminology follows Section IV-A of the paper:

- *logic table* — the table name applications see (``t_user``);
- *actual table* — a physical table in some data source (``t_user_h0``);
- *data node* — ``data_source.actual_table``, the atomic sharding unit;
- *binding tables* — logic tables sharded by the same key/algorithm whose
  same-index shards co-reside, enabling the join optimization;
- *broadcast tables* — small tables replicated to every data source.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from ..exceptions import RouteError, ShardingConfigError
from .algorithms import ShardingAlgorithm, create_algorithm
from .keygen import KeyGenerator, create_key_generator

HINT_COLUMN = "__hint__"
"""Pseudo sharding column carrying hint values for HintShardingStrategy."""

POINT_ROUTES = 65536
"""Values a table rule's point-route memo keeps per sharding column: all of
an OLTP key space the size of sysbench's (20k ids); past it, a new value is
routed and not kept."""


@dataclass(frozen=True)
class DataNode:
    """One shard: an actual table within a data source."""

    data_source: str
    table: str

    def __str__(self) -> str:
        return f"{self.data_source}.{self.table}"

    @classmethod
    def parse(cls, text: str) -> "DataNode":
        try:
            data_source, table = text.split(".", 1)
        except ValueError:
            raise ShardingConfigError(f"bad data node {text!r}, expected 'ds.table'") from None
        return cls(data_source, table)


@dataclass
class ShardingValue:
    """Extracted condition on one sharding column.

    Either a list of precise ``values`` (from ``=`` / ``IN``) or a
    ``range_`` (low, high) from ``BETWEEN`` / comparisons — None bounds
    mean unbounded.
    """

    column: str
    values: list[Any] | None = None
    range_: tuple[Any, Any] | None = None

    @property
    def is_precise(self) -> bool:
        return self.values is not None

    def intersect(self, other: "ShardingValue") -> "ShardingValue":
        """AND-combine two conditions on the same column (best effort)."""
        if self.is_precise and other.is_precise:
            merged = [v for v in self.values if v in other.values]  # type: ignore[operator]
            return ShardingValue(self.column, values=merged)
        if self.is_precise:
            return self
        if other.is_precise:
            return other
        return self


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class ShardingStrategy:
    """Maps sharding conditions to a subset of target names.

    A NULL precise value never reaches an algorithm: ``col = NULL`` matches
    no row, so it selects no target (and ``TableRule.route`` answers an
    empty route with one node). An INSERT of a NULL sharding value is
    refused before routing (``repro.engine.router``)."""

    #: sharding columns this strategy consumes (lower-cased)
    columns: tuple[str, ...] = ()

    def route(self, targets: Sequence[str], conditions: Mapping[str, ShardingValue]) -> list[str]:
        raise NotImplementedError


class NoneShardingStrategy(ShardingStrategy):
    """No sharding: every target matches."""

    def route(self, targets: Sequence[str], conditions: Mapping[str, ShardingValue]) -> list[str]:
        return list(targets)


class StandardShardingStrategy(ShardingStrategy):
    """Single sharding column routed through one algorithm."""

    def __init__(self, column: str, algorithm: ShardingAlgorithm):
        self.column = column
        self.columns = (column.lower(),)
        self.algorithm = algorithm

    def route(self, targets: Sequence[str], conditions: Mapping[str, ShardingValue]) -> list[str]:
        condition = conditions.get(self.columns[0])
        if condition is None:
            return list(targets)
        if condition.is_precise:
            values = condition.values
            if len(values) == 1:  # type: ignore[arg-type]  # point lookup
                value = values[0]  # type: ignore[index]
                return [] if value is None else [self.algorithm.do_sharding(targets, value)]
            seen: dict[str, None] = {}
            for value in values:  # type: ignore[union-attr]
                if value is not None:
                    seen.setdefault(self.algorithm.do_sharding(targets, value))
            return list(seen)
        low, high = condition.range_  # type: ignore[misc]
        return self.algorithm.do_range_sharding(targets, low, high)


class ComplexShardingStrategy(ShardingStrategy):
    """Multiple sharding columns routed through one algorithm.

    The algorithm receives a column->value mapping; routing enumerates the
    cartesian product of precise values on all configured columns. If any
    column is missing or non-precise, the strategy degrades to all targets.
    """

    def __init__(self, columns: Sequence[str], algorithm: ShardingAlgorithm):
        self.columns = tuple(c.lower() for c in columns)
        self.original_columns = list(columns)
        self.algorithm = algorithm

    def route(self, targets: Sequence[str], conditions: Mapping[str, ShardingValue]) -> list[str]:
        value_lists: list[list[Any]] = []
        for column in self.columns:
            condition = conditions.get(column)
            if condition is None or not condition.is_precise or not condition.values:
                return list(targets)
            value_lists.append(condition.values)
        seen: dict[str, None] = {}
        for combo in itertools.product(*value_lists):
            if None not in combo:
                bindings = dict(zip(self.original_columns, combo))
                seen.setdefault(self.algorithm.do_sharding(targets, bindings))
        return list(seen)


class HintShardingStrategy(ShardingStrategy):
    """Routed by hint values supplied outside the SQL statement."""

    def __init__(self, algorithm: ShardingAlgorithm):
        self.columns = (HINT_COLUMN,)
        self.algorithm = algorithm

    def route(self, targets: Sequence[str], conditions: Mapping[str, ShardingValue]) -> list[str]:
        condition = conditions.get(HINT_COLUMN)
        if condition is None or not condition.is_precise:
            return list(targets)
        seen: dict[str, None] = {}
        for value in condition.values:  # type: ignore[union-attr]
            if value is not None:
                seen.setdefault(self.algorithm.do_sharding(targets, value))
        return list(seen)


# ---------------------------------------------------------------------------
# Table rules
# ---------------------------------------------------------------------------


@dataclass
class KeyGenerateConfig:
    """Distributed key generation for one column of a logic table."""

    column: str
    generator: KeyGenerator


class TableRule:
    """Sharding configuration of one logic table."""

    def __init__(
        self,
        logic_table: str,
        data_nodes: Sequence[DataNode],
        database_strategy: ShardingStrategy | None = None,
        table_strategy: ShardingStrategy | None = None,
        key_generate: KeyGenerateConfig | None = None,
        auto: bool = False,
    ):
        if not data_nodes:
            raise ShardingConfigError(f"table rule {logic_table!r} needs at least one data node")
        self.logic_table = logic_table
        self.data_nodes = list(data_nodes)
        self.database_strategy = database_strategy or NoneShardingStrategy()
        self.table_strategy = table_strategy or NoneShardingStrategy()
        self.key_generate = key_generate
        self.auto = auto
        # Table names are only unique *within* a data source in the common
        # grid layout (ds0.t_user_0, ds1.t_user_0, ...), so nodes are keyed
        # by (data source, table). AutoTable requires globally unique names
        # because its single-level routing picks by table name alone.
        self._nodes_by_key: dict[tuple[str, str], DataNode] = {}
        self._node_by_table: dict[str, DataNode | None] = {}
        self._tables_by_ds: dict[str, list[str]] = {}
        for node in self.data_nodes:
            self._nodes_by_key[(node.data_source, node.table.lower())] = node
            key = node.table.lower()
            self._node_by_table[key] = None if key in self._node_by_table else node
            self._tables_by_ds.setdefault(node.data_source, []).append(node.table)
        self._data_source_names = list(self._tables_by_ds)
        if auto and any(n is None for n in self._node_by_table.values()):
            raise ShardingConfigError(
                f"AutoTable rule {logic_table!r} requires unique actual table names"
            )
        # Route memos, filled by compiled plans (``CompiledPlan.route_bound``)
        # and shared by every plan and session. A rule is replaced, never
        # changed, so they go with the rule object.
        #: sharding column -> point value -> the nodes it routes to, at
        #: most ``POINT_ROUTES`` values a column; a value's entry is the
        #: one shared list of its node set (``node_lists``)
        self.point_routes: dict[str, dict[Any, list[DataNode]]] = {
            column: {} for column in self.sharding_columns}
        self.node_lists: dict[tuple[DataNode, ...], list[DataNode]] = {}
        #: the route of a statement with no sharding condition, once routed
        self.all_nodes: list[DataNode] | None = None

    # -- views ------------------------------------------------------------

    @property
    def data_source_names(self) -> list[str]:
        return self._data_source_names

    @property
    def actual_table_names(self) -> list[str]:
        return [node.table for node in self.data_nodes]

    def node_index(self, node: DataNode) -> int:
        return self.data_nodes.index(node)

    # -- routing -------------------------------------------------------------

    def route(self, conditions: Mapping[str, ShardingValue]) -> list[DataNode]:
        """Data nodes matching the sharding conditions.

        AutoTables route in one step over actual table names (the algorithm
        owns the table->data-source assignment); classic rules route the
        data-source level then the table level, as in the paper's example
        ``uid % 2`` -> ``DS0.t_user_h0`` / ``DS1.t_user_h1``.
        """
        if self.auto:
            tables = self.table_strategy.route(self.actual_table_names, conditions)
            routed = [self._node_by_table[t.lower()] for t in tables]
        else:
            routed = []
            for ds in self.database_strategy.route(self.data_source_names, conditions):
                tables = self._tables_by_ds.get(ds)
                if not tables:
                    raise RouteError(f"database strategy produced unknown data source {ds!r}")
                for table in self.table_strategy.route(tables, conditions):
                    routed.append(self._nodes_by_key[(ds, table.lower())])
        # No node: the conditions contradict each other (``uid = 1 AND uid = 3``),
        # so no row matches, and one node answers that with none.
        return routed or self.data_nodes[:1]  # type: ignore[return-value]

    @property
    def sharding_columns(self) -> set[str]:
        return set(self.database_strategy.columns) | set(self.table_strategy.columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TableRule({self.logic_table!r}, nodes={len(self.data_nodes)}, auto={self.auto})"


def build_standard_table_rule(
    logic_table: str,
    data_sources: Sequence[str],
    tables_per_source: int,
    database_column: str | None = None,
    database_algorithm: ShardingAlgorithm | None = None,
    table_column: str | None = None,
    table_algorithm: ShardingAlgorithm | None = None,
    key_generate: KeyGenerateConfig | None = None,
) -> TableRule:
    """Convenience constructor for the common grid layout.

    Creates data nodes ``ds_i.{logic}_{j}`` for every source i and table j,
    with optional standard strategies at each level.
    """
    nodes = [
        DataNode(ds, f"{logic_table}_{j}")
        for ds in data_sources
        for j in range(tables_per_source)
    ]
    db_strategy = (
        StandardShardingStrategy(database_column, database_algorithm)
        if database_column and database_algorithm
        else None
    )
    tb_strategy = (
        StandardShardingStrategy(table_column, table_algorithm)
        if table_column and table_algorithm
        else None
    )
    return TableRule(
        logic_table,
        nodes,
        database_strategy=db_strategy,
        table_strategy=tb_strategy,
        key_generate=key_generate,
    )


# ---------------------------------------------------------------------------
# The aggregate rule
# ---------------------------------------------------------------------------


class ShardingRule:
    """Complete sharding configuration of one logical schema.

    Rules start mutable (DistSQL RDL and tests build them incrementally).
    Once handed to a :class:`~repro.metadata.MetadataContext` snapshot the
    managing :class:`~repro.metadata.ContextManager` calls :meth:`freeze`;
    frozen rules reject every mutator, and the single writer mutates a
    :meth:`copy` instead (copy-on-write snapshots).
    """

    def __init__(
        self,
        table_rules: Iterable[TableRule] = (),
        binding_groups: Iterable[Sequence[str]] = (),
        broadcast_tables: Iterable[str] = (),
        default_data_source: str | None = None,
    ):
        self._frozen = False
        self._table_rules: dict[str, TableRule] = {}
        for rule in table_rules:
            self.add_table_rule(rule)
        self.binding_groups: list[set[str]] = []
        for group in binding_groups:
            self.add_binding_group(group)
        self.broadcast_tables = {t.lower() for t in broadcast_tables}
        self._default_data_source = default_data_source

    # -- freeze / copy (versioned metadata contexts) -------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "ShardingRule":
        """Make this rule immutable; mutators raise from now on."""
        self._frozen = True
        return self

    def copy(self) -> "ShardingRule":
        """A mutable shallow copy (TableRule objects are immutable in
        practice and stay shared: an untouched table keeps its route
        memos)."""
        clone = ShardingRule.__new__(ShardingRule)
        clone._frozen = False
        clone._table_rules = dict(self._table_rules)
        clone.binding_groups = [set(group) for group in self.binding_groups]
        clone.broadcast_tables = set(self.broadcast_tables)
        clone._default_data_source = self._default_data_source
        return clone

    def _check_mutable(self) -> None:
        if self._frozen:
            raise ShardingConfigError(
                "this ShardingRule belongs to an immutable metadata snapshot; "
                "mutate through the runtime/ContextManager (copy-on-write)"
            )

    @property
    def default_data_source(self) -> str | None:
        return self._default_data_source

    @default_data_source.setter
    def default_data_source(self, name: str | None) -> None:
        self._check_mutable()
        self._default_data_source = name

    # -- mutation (used by DistSQL RDL) --------------------------------------

    def add_table_rule(self, rule: TableRule) -> None:
        self._check_mutable()
        self._table_rules[rule.logic_table.lower()] = rule

    def drop_table_rule(self, logic_table: str) -> None:
        self._check_mutable()
        key = logic_table.lower()
        if key not in self._table_rules:
            raise ShardingConfigError(f"no sharding rule for table {logic_table!r}")
        del self._table_rules[key]
        self.binding_groups = [
            g for g in (group - {key} for group in self.binding_groups) if len(g) > 1
        ]

    def add_binding_group(self, tables: Sequence[str]) -> None:
        self._check_mutable()
        group = {t.lower() for t in tables}
        if len(group) < 2:
            raise ShardingConfigError("a binding group needs at least two tables")
        missing = [t for t in group if t not in self._table_rules]
        if missing:
            raise ShardingConfigError(f"binding group references unsharded tables {missing}")
        sizes = {len(self._table_rules[t].data_nodes) for t in group}
        if len(sizes) != 1:
            raise ShardingConfigError("binding tables must have the same number of data nodes")
        self.binding_groups.append(group)

    def add_broadcast_table(self, table: str) -> None:
        self._check_mutable()
        self.broadcast_tables.add(table.lower())

    # -- queries -------------------------------------------------------------

    def table_rule(self, logic_table: str) -> TableRule:
        try:
            return self._table_rules[logic_table.lower()]
        except KeyError:
            raise ShardingConfigError(f"no sharding rule for table {logic_table!r}") from None

    def is_sharded(self, table: str) -> bool:
        return table.lower() in self._table_rules

    def is_broadcast(self, table: str) -> bool:
        return table.lower() in self.broadcast_tables

    def table_rules(self) -> list[TableRule]:
        return list(self._table_rules.values())

    def logic_tables(self) -> list[str]:
        return [rule.logic_table for rule in self._table_rules.values()]

    def are_binding(self, tables: Sequence[str]) -> bool:
        """True if every table is sharded and all share one binding group."""
        lowered = {t.lower() for t in tables}
        if len(lowered) < 2:
            return True
        for group in self.binding_groups:
            if lowered <= group:
                return True
        return False

    def binding_partner_node(self, primary: TableRule, node: DataNode, partner: TableRule) -> DataNode:
        """The partner table's data node aligned with the primary's node."""
        return partner.data_nodes[primary.node_index(node)]

    def all_data_sources(self) -> list[str]:
        seen: dict[str, None] = {}
        if self.default_data_source:
            seen.setdefault(self.default_data_source)
        for rule in self._table_rules.values():
            for name in rule.data_source_names:
                seen.setdefault(name)
        return list(seen)

    def sharding_columns_of(self, table: str) -> set[str]:
        if not self.is_sharded(table):
            return set()
        return self.table_rule(table).sharding_columns
