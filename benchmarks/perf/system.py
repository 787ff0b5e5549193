"""Build the system under test from its public API and load ``sbtest``.

Only ``repro.adaptors``, ``repro.protocol``, ``repro.sharding`` and
``repro.storage`` are imported; nothing from ``repro.bench`` or
``repro.baselines``. What is loaded is the generator's own copy of the
data (``dataset.Dataset``).
"""

from __future__ import annotations

from repro.adaptors import ShardingDataSource, ShardingProxyServer, ShardingRuntime
from repro.sharding import (
    DataNode,
    ShardingAlgorithm,
    ShardingRule,
    StandardShardingStrategy,
    TableRule,
)
from repro.storage import DataSource, LatencyModel

import config
from dataset import Dataset


class RangeBlocks(ShardingAlgorithm):
    """Contiguous blocks of ids: index = ((id - 1) mod modulo) // block.

    One instance per level of the grid: the data-source level uses
    ``block = rows / sources``; the table level works inside its data
    source's block (``modulo``), so ``BETWEEN`` ranges prune to the blocks
    they overlap and stay shard-local.
    """

    def __init__(self, block: int, count: int, modulo: int | None = None):
        super().__init__({})
        self.block = block
        self.count = count
        self.modulo = modulo

    def _index(self, value) -> int:
        offset = int(value) - 1
        if self.modulo is not None:
            offset %= self.modulo
        return max(0, min(offset // self.block, self.count - 1))

    def do_sharding(self, targets, value):
        return self.pick_by_index(targets, self._index(value))

    def do_range_sharding(self, targets, low, high):
        if low is None or high is None:
            return list(targets)
        low, high = int(low), int(high)
        if self.modulo is not None and (low - 1) // self.modulo != (high - 1) // self.modulo:
            return list(targets)  # spans data sources: local offsets wrap
        return [self.pick_by_index(targets, i)
                for i in range(self._index(low), self._index(high) + 1)]


class System:
    """One built and loaded deployment; ``close()`` stops every thread."""

    def __init__(self, with_proxy: bool):
        latency = LatencyModel(**config.LATENCY)
        names = [f"ds{i}" for i in range(config.NUM_SOURCES)]
        self.sources = {
            name: DataSource(name, latency=latency, pool_size=config.POOL_SIZE,
                             io_channels=config.IO_CHANNELS)
            for name in names
        }
        per_source = config.TABLE_ROWS // config.NUM_SOURCES
        per_table = per_source // config.TABLES_PER_SOURCE
        nodes = [DataNode(name, f"sbtest_{j}")
                 for name in names for j in range(config.TABLES_PER_SOURCE)]
        rule = ShardingRule(
            [TableRule(
                "sbtest", nodes,
                database_strategy=StandardShardingStrategy(
                    "id", RangeBlocks(per_source, config.NUM_SOURCES)),
                table_strategy=StandardShardingStrategy(
                    "id", RangeBlocks(per_table, config.TABLES_PER_SOURCE,
                                      modulo=per_source)),
            )],
            default_data_source=names[0],
        )
        self.runtime = ShardingRuntime(
            self.sources, rule,
            max_connections_per_query=config.VARIABLES["max_connections_per_query"],
            worker_threads=config.WORKER_THREADS,
        )
        for name, value in config.VARIABLES.items():
            self.runtime.set_variable(name, value, persist=False)
        self.data_source = ShardingDataSource(self.runtime)
        self.server: ShardingProxyServer | None = None
        if with_proxy:
            self.server = ShardingProxyServer(
                self.runtime, workers=config.PROXY_WORKERS,
                max_queue=config.PROXY_MAX_QUEUE).start()

    def load(self, data: Dataset) -> None:
        conn = self.data_source.get_connection()
        try:
            conn.execute(config.CREATE_TABLE)
            batch = config.LOAD_BATCH_ROWS
            sql = ("INSERT INTO sbtest (id, k, c, pad) VALUES "
                   + ", ".join(["(?, ?, ?, ?)"] * batch))
            for start in range(1, data.rows + 1, batch):
                params: list = []
                for row_id in range(start, start + batch):
                    params += (row_id, data.k[row_id], data.c[row_id], data.pad[row_id])
                conn.execute(sql, params)
            conn.execute(config.CREATE_INDEX)
        finally:
            conn.close()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        self.data_source.close()
        for source in self.sources.values():
            source.pool.close()
