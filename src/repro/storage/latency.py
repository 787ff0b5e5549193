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
- ``write_io`` — per-DML dirty-page/WAL write cost; the I/O windows of
  writes to one table follow each other on the server's
  :class:`IOTimeline` — the hot-table write bottleneck that sharding a
  big table into many small ones removes,
- ``commit_io`` — fsync-like cost on commit/prepare,
- ``buffer_pool_rows`` — working-set knee: a table larger than this no
  longer fits the buffer pool and its I/O costs are multiplied by
  ``disk_penalty`` (the Fig. 10 degradation at the largest data size).

All knobs are seconds. ``scale=0`` disables simulation (pure in-memory
speed, used by unit tests); benchmarks use the default profile so the
*shape* of the paper's results emerges from the same mechanics.

Costs are *computed* by the executor but *paid* (slept) by the connection
after it releases the database lock, so concurrent clients overlap their
simulated I/O the way they overlap real I/O. Between the two, the cost's
I/O window is *reserved* on the server's :class:`IOTimeline`: what a
statement waits for is the end of its window, and nobody holds a lock
while waiting for it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import TYPE_CHECKING

from .. import clock

if TYPE_CHECKING:
    from .table import Table


def pay(seconds: float, until: float | None = None) -> None:
    """Wait out the priced cost on the one clock, releasing the GIL.

    ``seconds`` is what the operation was priced at. With ``until`` — the
    ``clock.now()`` instant at which its reserved I/O window ends
    (:meth:`IOTimeline.reserve`) — the wait is for what is left of that
    window: longer than the price behind a queue, nothing once the
    instant has passed.

    Every simulated cost is waited for here and nowhere else, under this
    name: the benchmark harness measures "everything that was waited
    for" by replacing ``pay`` as bound in this module,
    ``repro.storage.connection`` and ``repro.storage.engine``, and reads
    the first argument as the price.
    """
    if until is not None:
        # asked of the clock even when the window is over (it returns at
        # once): how many calls a statement makes must not depend on how
        # fast the host ran it — the harness counts them, exactly
        clock.sleep(until - clock.now())
    elif seconds > 0:  # a free operation costs no call into the clock
        clock.sleep(seconds)


class IOTimeline:
    """When one server's I/O is next free: per channel and per written table.

    A server pays at most ``channels`` priced costs at a time (the finite
    capacity that makes "more data servers, more throughput" true, Fig.
    12), and the write I/O of one table is serial (page/WAL contention:
    the hot table of Table IV). Both used to be locks held across the
    sleep; here they are instants. :meth:`reserve` books the window
    ``[start, start + cost)`` with ``start`` the latest of: now (plus the
    statement's ``delay``), the written table's free-at, the channel's
    free-at. Reservations are served in the order they are made, like a
    FIFO semaphore behind a FIFO table lock — but the waiting itself
    (:func:`pay` ``until`` the returned instant) holds nothing, so a
    caller may reserve many windows and wait once for the last of them,
    and one sleeper's late wake-up delays nobody else's window.
    """

    __slots__ = ("_free_at", "_lock")

    def __init__(self, channels: int):
        self._free_at = [0.0] * channels
        self._lock = threading.Lock()

    def reserve(self, cost: float, table: "Table | None" = None, delay: float = 0.0) -> float:
        """Book ``cost`` seconds of I/O (write I/O names its ``table``) that
        cannot start before ``delay`` seconds from now; returns when it ends."""
        with self._lock:
            start = clock.now() + delay
            if cost <= 0:  # nothing to book: a delay alone occupies no channel
                return start
            if table is not None and table.io_free_at > start:
                start = table.io_free_at
            # The channel that has been free for the shortest time at
            # ``start``, so a writer queued behind its table books the
            # channel its predecessor used and leaves the idle ones to
            # statements that can start now; with none free by then, the
            # one that frees first.
            free_at = self._free_at
            channel = None
            for index, free in enumerate(free_at):
                if free <= start and (channel is None or free > free_at[channel]):
                    channel = index
            if channel is None:
                start = min(free_at)
                channel = free_at.index(start)
            free_at[channel] = ready_at = start + cost
            if table is not None:
                table.io_free_at = ready_at
        return ready_at


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

    def charge_commit(self, spike: float = 0.0) -> tuple[float, float]:
        """Price a commit or prepare, and with it an injected latency
        ``spike`` (``Database.maybe_fail``'s return). Returns its window
        ``(priced, ready_at)``, for the caller to wait for: a commit
        occupies no I/O channel, so it ends that many seconds from now."""
        priced = self.commit_cost() + spike
        return priced, clock.now() + priced


def pay_all(windows: "list[tuple[float, float]]") -> None:
    """Wait once for a round of issued ``(priced, ready_at)`` windows: the
    one that ends last is paid first, so every other ``pay`` finds its
    window over and returns at once — one ``pay`` per window all the same,
    as the harness counts them."""
    for priced, ready_at in sorted(windows, key=itemgetter(1), reverse=True):
        pay(priced, ready_at)
