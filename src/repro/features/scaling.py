"""Online scaling (resharding) feature.

Moves a sharded logic table from its current layout to a new one — more
shards, more data sources, or both — the workflow upstream ships as
ShardingSphere-Scaling:

1. **prepare**: create the target physical tables from the live schema;
2. **inventory**: stream every row out of the old shards and insert it
   into the shard the *target* rule routes it to;
3. **check**: source/target row-count consistency verification;
4. **switchover**: atomically swap the table rule inside the sharding
   rule, after which new traffic uses the new layout;
5. optionally drop the old physical tables.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..exceptions import ShardingConfigError, ShardingSphereError
from ..sharding import DataNode, ShardingRule, ShardingValue, TableRule
from ..storage import DataSource


class ScalingPhase(enum.Enum):
    CREATED = "created"
    PREPARING = "preparing"
    INVENTORY = "inventory"
    CHECKING = "checking"
    SWITCHING = "switching"
    DONE = "done"
    FAILED = "failed"


@dataclass
class ScalingReport:
    """Outcome and statistics of one scaling job."""

    logic_table: str = ""
    rows_migrated: int = 0
    source_nodes: int = 0
    target_nodes: int = 0
    consistent: bool = False
    phase: ScalingPhase = ScalingPhase.CREATED


class ScalingJob:
    """One resharding run for one logic table."""

    def __init__(
        self,
        rule: ShardingRule,
        target_table_rule: TableRule,
        data_sources: Mapping[str, DataSource],
        batch_size: int = 1000,
        drop_source_tables: bool = False,
        progress: Callable[[str, int], None] | None = None,
        apply_rule: Callable[[TableRule], None] | None = None,
    ):
        self.rule = rule
        self.target = target_table_rule
        self.data_sources = dict(data_sources)
        self.batch_size = batch_size
        self.drop_source_tables = drop_source_tables
        self.progress = progress or (lambda phase, count: None)
        #: how switchover installs the target rule. Runtimes pass their
        #: ContextManager-backed installer (snapshots are immutable, so an
        #: in-place add would raise on a frozen rule); the default mutates
        #: the given rule directly for standalone/embedded use.
        self.apply_rule = apply_rule or (lambda table_rule: rule.add_table_rule(table_rule))
        self.phase = ScalingPhase.CREATED
        self.report = ScalingReport(logic_table=target_table_rule.logic_table)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def run(self) -> ScalingReport:
        source_rule = self.rule.table_rule(self.target.logic_table)
        try:
            self._prepare(source_rule)
            self._inventory(source_rule)
            self._check(source_rule)
            self._switchover(source_rule)
        except Exception:
            self.phase = ScalingPhase.FAILED
            self.report.phase = self.phase
            raise
        self.phase = ScalingPhase.DONE
        self.report.phase = self.phase
        return self.report

    # -- phases -----------------------------------------------------------

    def _source_of(self, node: DataNode) -> DataSource:
        try:
            return self.data_sources[node.data_source]
        except KeyError:
            raise ShardingConfigError(
                f"scaling references unknown data source {node.data_source!r}"
            ) from None

    def _prepare(self, source_rule: TableRule) -> None:
        self.phase = ScalingPhase.PREPARING
        first = source_rule.data_nodes[0]
        schema = self._source_of(first).database.table(first.table).schema
        existing = {str(n) for n in source_rule.data_nodes}
        for node in self.target.data_nodes:
            if str(node) in existing:
                raise ShardingConfigError(
                    f"target node {node} collides with a source node; "
                    "scaling requires disjoint target tables"
                )
            self._source_of(node).database.create_table(
                schema.clone_renamed(node.table), if_not_exists=True
            )
        self.report.source_nodes = len(source_rule.data_nodes)
        self.report.target_nodes = len(self.target.data_nodes)
        self.progress("preparing", self.report.target_nodes)

    def _route_row(self, row: dict) -> DataNode:
        conditions = {}
        for column in self.target.sharding_columns:
            for key, value in row.items():
                if key.lower() == column:
                    conditions[column] = ShardingValue(column, values=[value])
        nodes = self.target.route(conditions)
        if len(nodes) != 1:
            raise ShardingSphereError(
                f"row routed to {len(nodes)} target nodes; sharding column missing?"
            )
        return nodes[0]

    def _inventory(self, source_rule: TableRule) -> None:
        self.phase = ScalingPhase.INVENTORY
        migrated = 0
        for node in source_rule.data_nodes:
            database = self._source_of(node).database
            table = database.table(node.table)
            buffers: dict[DataNode, list[dict]] = {}
            for _, row in table.scan():
                target_node = self._route_row(row)
                buffers.setdefault(target_node, []).append(dict(row))
                if len(buffers[target_node]) >= self.batch_size:
                    migrated += self._flush(target_node, buffers.pop(target_node))
            for target_node, rows in buffers.items():
                migrated += self._flush(target_node, rows)
            self.progress("inventory", migrated)
        self.report.rows_migrated = migrated

    def _flush(self, node: DataNode, rows: list[dict]) -> int:
        database = self._source_of(node).database
        table = database.table(node.table)
        with database.write_lock():  # the rows are scan() images: one column order
            table.inserter(list(rows[0]))([list(row.values()) for row in rows], [])
        return len(rows)

    def _check(self, source_rule: TableRule) -> None:
        self.phase = ScalingPhase.CHECKING
        source_count = sum(
            self._source_of(n).database.table(n.table).row_count for n in source_rule.data_nodes
        )
        target_count = sum(
            self._source_of(n).database.table(n.table).row_count for n in self.target.data_nodes
        )
        self.report.consistent = source_count == target_count
        if not self.report.consistent:
            raise ShardingSphereError(
                f"scaling consistency check failed: {source_count} source rows "
                f"vs {target_count} target rows"
            )
        self.progress("checking", target_count)

    def _switchover(self, source_rule: TableRule) -> None:
        self.phase = ScalingPhase.SWITCHING
        with self._lock:
            self.apply_rule(self.target)
        if self.drop_source_tables:
            for node in source_rule.data_nodes:
                self._source_of(node).database.drop_table(node.table, if_exists=True)
        self.progress("switching", 1)
