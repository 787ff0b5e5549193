"""Topology builders shared by the systems under test.

The paper's default layout (Table II / Settings): data sharded across
``num_sources`` data sources and, within each source, into
``tables_per_source`` tables. The grid rule places key ``k`` at data
source ``k % S`` and table ``(k // S) % T`` so every (source, table) node
receives a uniform slice.
"""

from __future__ import annotations

from typing import Sequence

from repro.sharding import (
    ClassBasedShardingAlgorithm,
    DataNode,
    ModShardingAlgorithm,
    ShardingAlgorithm,
    ShardingRule,
    StandardShardingStrategy,
    TableRule,
)
from repro.storage import DataSource, LatencyModel


def make_sources(
    names: Sequence[str],
    latency: LatencyModel | None = None,
    network_hop: float = 0.0,
    pool_size: int = 64,
    io_channels: int = 4,
) -> dict[str, DataSource]:
    return {
        name: DataSource(name, latency=latency, network_hop=network_hop,
                         pool_size=pool_size, io_channels=io_channels)
        for name in names
    }


def _table_level_algorithm(num_sources: int, tables_per_source: int) -> ShardingAlgorithm:
    """table index = (k // S) % T, matched to the ``_i`` suffix."""

    def pick(targets, value):
        index = (int(value) // num_sources) % tables_per_source
        return ShardingAlgorithm.pick_by_index(targets, index)

    return ClassBasedShardingAlgorithm({"function": pick})


def make_grid_rule(
    logic_table: str,
    source_names: Sequence[str],
    tables_per_source: int,
    column: str,
) -> TableRule:
    """Two-level rule over the S x T grid described in the module doc."""
    num_sources = len(source_names)
    nodes = [
        DataNode(ds, f"{logic_table}_{j}")
        for ds in source_names
        for j in range(tables_per_source)
    ]
    database_strategy = StandardShardingStrategy(
        column, ModShardingAlgorithm({"sharding-count": num_sources})
    )
    table_strategy = StandardShardingStrategy(
        column, _table_level_algorithm(num_sources, tables_per_source)
    )
    if num_sources == 1:
        database_strategy = None  # type: ignore[assignment]
    return TableRule(
        logic_table,
        nodes,
        database_strategy=database_strategy,
        table_strategy=table_strategy,
    )


def make_grid_sharding(
    tables: Sequence[tuple],
    source_names: Sequence[str],
    tables_per_source: int,
    binding_groups: Sequence[Sequence[str]] = (),
    broadcast_tables: Sequence[str] = (),
    layout: str = "hash",
    key_space: int = 0,
) -> ShardingRule:
    """A full rule set: each (logic_table, column[, tables_per_source])
    sharded over the grid. A per-table third element overrides the default
    ``tables_per_source`` (the paper's TPC-C layout shards order_line into
    10 tables per source while the other tables get one each).

    ``layout="hash"`` spreads keys mod/div-mod style; ``layout="range"``
    (requires ``key_space``) uses contiguous blocks so small BETWEEN
    ranges stay shard-local.
    """
    rules = []
    for entry in tables:
        if len(entry) == 3:
            table, column, tps = entry
        else:
            table, column = entry
            tps = tables_per_source
        if layout == "range":
            if key_space < 1:
                raise ValueError("range layout requires a positive key_space")
            rules.append(make_range_grid_rule(table, source_names, tps, column, key_space))
        else:
            rules.append(make_grid_rule(table, source_names, tps, column))
    return ShardingRule(
        rules,
        binding_groups=binding_groups,
        broadcast_tables=broadcast_tables,
        default_data_source=source_names[0],
    )


class RangeLevelAlgorithm(ShardingAlgorithm):
    """Contiguous-block range sharding for one level of the grid.

    ``index = clamp(offset(value) // block, 0, count-1)`` where ``offset``
    lets the table level work within its data source's block. Ranges prune
    to exactly the overlapped blocks, which is what keeps sysbench's small
    BETWEEN ranges shard-local (see EXPERIMENTS.md on layout choice).
    """

    type_name = "RANGE_GRID_LEVEL"

    def __init__(self, block: int, count: int, modulo: int | None = None):
        super().__init__({})
        if block < 1 or count < 1:
            raise ValueError("block and count must be positive")
        self.block = block
        self.count = count
        self.modulo = modulo  # offset within the parent block (table level)

    def _index(self, value) -> int:
        v = int(value)
        if self.modulo is not None:
            v = v % self.modulo
        return max(0, min(v // self.block, self.count - 1))

    def do_sharding(self, targets, value):
        return self.pick_by_index(targets, self._index(value))

    def do_range_sharding(self, targets, low, high):
        if low is None or high is None:
            return list(targets)
        low_i, high_i = int(low), int(high)
        if self.modulo is not None:
            # Crossing a parent-block boundary scrambles local offsets.
            if high_i - low_i + 1 >= self.modulo or low_i // self.modulo != high_i // self.modulo:
                return list(targets)
        indexes = range(self._index(low_i), self._index(high_i) + 1)
        seen: dict[str, None] = {}
        for index in indexes:
            seen.setdefault(self.pick_by_index(targets, index))
        return list(seen)


def make_range_grid_rule(
    logic_table: str,
    source_names: Sequence[str],
    tables_per_source: int,
    column: str,
    key_space: int,
) -> TableRule:
    """Range-partitioned S x T grid over keys in [0, key_space)."""
    num_sources = len(source_names)
    ds_block = -(-key_space // num_sources)  # ceil
    table_block = max(1, -(-ds_block // tables_per_source))
    nodes = [
        DataNode(ds, f"{logic_table}_{j}")
        for ds in source_names
        for j in range(tables_per_source)
    ]
    database_strategy = (
        StandardShardingStrategy(column, RangeLevelAlgorithm(ds_block, num_sources))
        if num_sources > 1
        else None
    )
    table_strategy = StandardShardingStrategy(
        column, RangeLevelAlgorithm(table_block, tables_per_source, modulo=ds_block)
    )
    return TableRule(
        logic_table,
        nodes,
        database_strategy=database_strategy,
        table_strategy=table_strategy,
    )
