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

Costs are *computed* by the executor, their I/O window is *reserved* on
the server's :class:`IOTimeline` and *booked* (:func:`book`) in the open
scope, the :class:`Booked` record of one session call, which pays once
(DESIGN.md "Issue and await"); with no scope open a booking is paid at
once. Nobody holds a lock while waiting, so concurrent clients overlap
their simulated I/O the way they overlap real I/O.
"""

from __future__ import annotations

import math
import threading
from contextvars import ContextVar
from dataclasses import dataclass, replace
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


class Booked:
    """The open scope's record (DESIGN.md "Issue and await"): ``priced``
    seconds booked, the ``ready_at`` instant the last window ends, and the
    ``lag`` by which the session call's time runs ahead of ``clock.now()``.
    A session call opens the scope; each round under it (a statement's
    units, one transaction-end verb on every participant) is a step: its
    windows overlap, and its close raises ``lag`` so that all work after it
    runs after ``ready_at``. Sites open and close it inline — no Python
    call on the hot path — and the outermost pays ``lag``, once.
    """

    priced = 0.0
    ready_at = 0.0
    lag = 0.0


#: the open scope's record; None: no scope is open, and a booking is paid
booking: "ContextVar[Booked | None]" = ContextVar("booking", default=None)


def now() -> float:
    """The session call's now: ``clock.now()``, plus the open scope's lag
    (the earliest a window booked now may start)."""
    booked = booking.get()
    return clock.now() if booked is None else clock.now() + booked.lag


def book(priced: float, ready_at: float) -> None:
    """Book a window of ``priced`` seconds ending at ``ready_at`` in the
    open scope; with none open, pay it at once."""
    booked = booking.get()
    if booked is None:
        pay(priced, ready_at)
    else:
        booked.priced += priced
        booked.ready_at = max(booked.ready_at, ready_at)


def step(priced: float, ready_at: float) -> None:
    """:func:`book` a window that the next one waits for: a round of one
    (a pipeline's settle, a coordinator round trip)."""
    booked = booking.get()
    book(priced, ready_at)
    if booked is not None:
        booked.lag = max(booked.lag, ready_at - clock.now())


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
        return Pricer(self).statement(table_rows, rows_touched, uses_index)

    def write_cost(self, table_rows: int = 0) -> float:
        """Price the per-DML dirty-page/WAL write (seconds)."""
        return Pricer(self).write(table_rows)

    def commit_cost(self) -> float:
        """Price the fsync-like cost of a commit or prepare (seconds)."""
        return self.commit_io * self.scale

    def charge_commit(self, spike: float = 0.0) -> tuple[float, float]:
        """Price a commit or prepare, and with it an injected latency
        ``spike`` (``Database.maybe_fail``'s return). Returns its window
        ``(priced, ready_at)``, for the caller to book: a commit occupies
        no I/O channel, so it ends that many seconds after the session
        call's :func:`now`."""
        priced = self.commit_cost() + spike
        booked = booking.get()  # now(), inline: a commit is on the hot path
        return priced, clock.now() + (0.0 if booked is None else booked.lag) + priced


class Pricer:
    """The prices of one compiled plan's statements, with the cost inputs
    that depend on the table's row count alone — the B-tree descent
    ``index_io * log2(rows)`` and the spill factor — kept for the row count
    last priced. A read of a table that did not change computes neither
    again. The rest is :meth:`LatencyModel.statement_cost`'s operations in
    its order, which is this code: the same price to the bit."""

    __slots__ = ("model", "memo")

    def __init__(self, model: LatencyModel):
        self.model = model
        #: (row count, index descent, spill factor), replaced whole so a
        #: concurrent reader never sees inputs of two row counts
        self.memo: tuple[int, float, float] = (-1, 0.0, 1.0)

    def _inputs(self, table_rows: int) -> tuple[int, float, float]:
        model = self.model
        self.memo = memo = (table_rows, model.index_io * math.log2(max(table_rows, 2)),
                            model._spill_factor(table_rows))
        return memo

    def statement(self, table_rows: int, rows_touched: int, uses_index: bool) -> float:
        """:meth:`LatencyModel.statement_cost`."""
        model = self.model
        if model.scale == 0.0:
            return 0.0
        memo = self.memo
        if memo[0] != table_rows:
            memo = self._inputs(table_rows)
        io = memo[1] if uses_index else model.row_cost * table_rows  # full scan reads every row
        io += model.row_cost * rows_touched
        return (model.base + io * memo[2]) * model.scale

    def write(self, table_rows: int) -> float:
        """:meth:`LatencyModel.write_cost`."""
        memo = self.memo
        if memo[0] != table_rows:
            memo = self._inputs(table_rows)
        model = self.model
        return model.write_io * memo[2] * model.scale
