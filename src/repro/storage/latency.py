"""Simulated I/O latency model for the embedded storage engine.

The paper's experiments run against real MySQL/PostgreSQL servers whose
per-operation cost grows with table size (B-tree height ~ log n) and whose
disk/network I/O dominates middleware CPU. Our engine executes in-process,
so without a latency model every middleware effect the paper measures
(smaller shards are faster; serial vs parallel fan-out; 2PC round trips)
would be drowned by Python overhead or vanish entirely.

:class:`LatencyModel` prices each storage operation:

- ``base`` — fixed per-statement cost (parse/plan/syscall floor),
- ``index_io * log2(table_rows)`` — B-tree descent cost for index lookups,
- ``row_cost * rows_touched`` — per-row read/write cost,
- ``write_io`` — per-DML dirty-page/WAL write cost, *paid while holding
  the written table's I/O lock* — the hot-table write bottleneck that
  sharding a big table into many small ones removes,
- ``commit_io`` — fsync-like cost on commit/prepare,
- ``buffer_pool_rows`` — working-set knee: a table larger than this no
  longer fits the buffer pool and its I/O costs are multiplied by
  ``disk_penalty`` (the Fig. 10 degradation at the largest data size).

All knobs are seconds. ``scale=0`` disables simulation (pure in-memory
speed, used by unit tests); benchmarks use the default profile so the
*shape* of the paper's results emerges from the same mechanics.

Costs are *computed* by the executor but *paid* (slept) by the connection
after it releases the database lock, so concurrent clients overlap their
simulated I/O the way they overlap real I/O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .. import clock


def pay(seconds: float) -> None:
    """Wait out the priced cost on the one clock, releasing the GIL.

    Every simulated cost is waited for here and nowhere else, under this
    name: the benchmark harness measures "everything that was waited
    for" by replacing ``pay`` as bound in this module,
    ``repro.storage.connection`` and ``repro.storage.engine``.
    """
    if seconds > 0:  # checked here too: a free operation costs no call into the clock
        clock.sleep(seconds)


@dataclass(frozen=True)
class LatencyModel:
    """Tunable cost model; see module docstring for the knobs."""

    base: float = 30e-6
    index_io: float = 4e-6
    row_cost: float = 0.6e-6
    write_io: float = 0.0
    commit_io: float = 80e-6
    buffer_pool_rows: int | None = None
    disk_penalty: float = 3.0
    scale: float = 1.0

    @classmethod
    def off(cls) -> "LatencyModel":
        """No simulated latency (unit tests)."""
        return cls(scale=0.0)

    def scaled(self, factor: float) -> "LatencyModel":
        return replace(self, scale=self.scale * factor)

    def _spill_factor(self, table_rows: int) -> float:
        if self.buffer_pool_rows is not None and table_rows > self.buffer_pool_rows:
            return self.disk_penalty
        return 1.0

    def statement_cost(self, table_rows: int, rows_touched: int, uses_index: bool) -> float:
        """Price one executed statement (seconds)."""
        if self.scale == 0.0:
            return 0.0
        cost = self.base
        io = self.index_io * math.log2(max(table_rows, 2)) if uses_index \
            else self.row_cost * table_rows  # full scan reads every row
        io += self.row_cost * rows_touched
        cost += io * self._spill_factor(table_rows)
        return cost * self.scale

    def write_cost(self, table_rows: int = 0) -> float:
        """Price the per-DML dirty-page/WAL write (seconds)."""
        return self.write_io * self._spill_factor(table_rows) * self.scale

    def commit_cost(self) -> float:
        """Price the fsync-like cost of a commit or prepare (seconds)."""
        return self.commit_io * self.scale

    def charge_commit(self) -> None:
        """Convenience: price and immediately pay a commit."""
        pay(self.commit_cost())
