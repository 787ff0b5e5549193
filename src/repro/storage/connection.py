"""DB-API-flavored connections and cursors for a data source.

This is the JDBC stand-in: the sharding executor, the adaptors and the
benchmarks all talk to data sources through :class:`Connection` /
:class:`Cursor`. Cursors stream rows from the engine lazily, which is what
lets the result merger choose stream merging over memory merging.

Isolation note: like the paper's setup, transactional isolation is provided
by the underlying data source. Our engine implements statement-atomic
writes with undo-based rollback (roughly READ COMMITTED without MVCC);
that is sufficient for every behaviour the paper measures.

A statement is *issued* — run, priced, its I/O window booked on the
server's timeline behind this connection's last one — then *waited for*.
Below the public verbs nothing waits: ``_run`` returns the price as
``QueryResult.cost`` and what must pass before the I/O starts (a latency
spike, a commit, a network hop) as ``QueryResult.delay``;
:meth:`Cursor.execute` books both and waits unless ``wait=False``, which is
what lets the execution engine issue a fan-out from one thread and sleep
once (DESIGN.md "Issue and await"). ``commit``, ``xa_prepare`` and
``xa_commit`` return their window ``(priced, ready_at)`` and pay it unless
``wait=False``. Nothing here sleeps holding a lock.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from .. import clock
from ..exceptions import (
    ConnectionClosedError,
    ConnectionDropError,
    DataSourceUnavailableError,
    TransactionError,
)
from ..sql import ast, parse
from .executor import QueryResult
from .latency import pay
from .plans import execute_planned, execute_planned_many
from .transaction import Transaction, commit_prepared, rollback_prepared

_TCL_STATEMENTS = (ast.BeginStatement, ast.CommitStatement, ast.RollbackStatement)

if TYPE_CHECKING:
    from .engine import DataSource

_connection_ids = itertools.count(1)


def _pay_traced(amount: float, ready_at: float, asked: float, span: Any) -> None:
    """``pay(amount, ready_at)`` for a traced statement: the same wait, and
    the wall time split three ways on ``span`` — the priced amount, the
    queueing behind earlier reservations (the window, reserved at
    ``asked``, started later than that), and how far the sleep ran past
    the window's end: nothing, for a window that was over before anybody
    slept for it."""
    before = clock.now()
    pay(amount, ready_at)
    span.record_simulated(amount)
    span.record_lock_wait(ready_at - amount - asked)
    if before < ready_at:
        span.record_pay_overshoot(clock.now() - ready_at)


class Connection:
    """A session against one data source.

    Starts in autocommit mode (each DML statement commits immediately),
    like a fresh JDBC/MySQL connection. ``begin()`` or executing ``BEGIN``
    opens an explicit transaction ended by ``commit()``/``rollback()``.
    """

    #: trace context handed down by the execution engine for the duration
    #: of one statement: latency-model sleeps and lock waits in ``_run``
    #: are attributed to this span (class default None = not traced)
    trace_span = None
    #: ``clock.now()`` instant at which the last window booked here ends. A
    #: connection runs one statement at a time, so the next one booked
    #: starts no earlier, blocking or not.
    free_at = 0.0

    def __init__(self, data_source: "DataSource"):
        self.data_source = data_source
        self.database = data_source.database
        self.id = next(_connection_ids)
        self.autocommit = True
        self._transaction: Transaction | None = None
        self.closed = False
        self._lock = threading.RLock()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            if self._transaction is not None and self._transaction.status.value == "active":
                self._transaction.rollback()
            self._transaction = None
            self.closed = True
        self.data_source.on_connection_closed(self)

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _check_open(self) -> None:
        if self.closed:
            raise ConnectionClosedError("connection is closed")

    # -- transaction control ---------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._transaction is not None and self._transaction.status.value == "active"

    def current_transaction(self) -> Transaction | None:
        """The open transaction, if any (Seata-AT inspects its undo log)."""
        return self._transaction if self.in_transaction else None

    def begin(self) -> None:
        self._check_open()
        with self._lock:
            if self.in_transaction:
                raise TransactionError("transaction already in progress")
            self._transaction = Transaction(self.database)
            self.autocommit = False

    def commit(self, wait: bool = True) -> tuple[float, float] | None:
        """Commit the open transaction (if any). Returns the commit's window
        ``(priced, ready_at)``; with ``wait`` it is paid before returning —
        outside this connection's lock — without, the caller pays it."""
        self._check_open()
        window = None
        with self._lock:
            if self._transaction is not None:
                window = self._transaction.commit()
                self._transaction = None
            self.autocommit = True
        if wait and window is not None:
            pay(*window)
        return window

    def rollback(self) -> None:
        self._check_open()
        with self._lock:
            if self._transaction is not None:
                self._transaction.rollback()
                self._transaction = None
            self.autocommit = True

    # -- XA verbs ---------------------------------------------------------------

    def xa_prepare(self, xid: str, wait: bool = True) -> tuple[float, float] | None:
        """2PC phase 1: park the open transaction as prepared under xid.

        Returns the window of the prepare's log write, paid as by
        :meth:`commit`. None is the XA read-only vote: the branch wrote
        nothing, so there is nothing to log or to park, the branch ends here
        and must be left out of phase 2.
        """
        self._check_open()
        window = None
        with self._lock:
            transaction = self._transaction
            if transaction is not None and transaction.mutation_count > 0:
                # a "NO" raises and leaves the branch open
                window = transaction.prepare(xid)
            self._transaction = None
            self.autocommit = True
        if wait and window is not None:
            pay(*window)
        return window

    def xa_commit(self, xid: str, wait: bool = True) -> tuple[float, float] | None:
        """2PC phase 2: commit the branch parked under xid; the window is
        returned and paid as by :meth:`commit`."""
        window = commit_prepared(self.database, xid)
        if wait and window is not None:
            pay(*window)
        return window

    def xa_rollback(self, xid: str) -> None:
        rollback_prepared(self.database, xid)

    # -- statement execution ------------------------------------------------------

    def cursor(self) -> "Cursor":
        self._check_open()
        return Cursor(self)

    def execute(self, sql: str | ast.Statement, params: Sequence[Any] = (),
                wait: bool = True) -> "Cursor":
        """Convenience: open a cursor and execute on it (``wait=False``:
        issue only, see :meth:`Cursor.execute`)."""
        return Cursor(self).execute(sql, params, wait)

    def _run(self, stmt: ast.Statement, params: Sequence[Any]) -> QueryResult:
        """Issue one statement: admit, run and price it. Nothing in here
        waits: the caller books ``result.cost`` behind ``result.delay``."""
        if self.closed:
            raise ConnectionClosedError("connection is closed")
        if isinstance(stmt, ast.BeginStatement):
            self.begin()
            return QueryResult(rowcount=0)
        if isinstance(stmt, ast.CommitStatement):
            window = self.commit(False)
            return QueryResult(rowcount=0, delay=window[0] if window else 0.0)
        if isinstance(stmt, ast.RollbackStatement):
            self.rollback()
            return QueryResult(rowcount=0)
        return self._issue(stmt, execute_planned, params)

    def _issue(self, stmt: ast.Statement,
               execute: Callable[..., tuple[QueryResult, str]], params: Any) -> QueryResult:
        """Admit ``stmt`` and run it with ``execute`` (:func:`execute_planned`,
        or :func:`execute_planned_many` on a batch of bindings).

        A replica first applies the log records whose lag has elapsed;
        writes are rejected on replicas and fenced primaries. A write runs
        under the write lock in the open transaction or in an implicit one,
        undone if it raises and committed if not: that commit's price joins
        ``result.delay``, so the write's window starts after the commit's.
        """
        source = self.data_source
        replica = source.replica
        if replica is not None:
            replica.apply_due()
        write = stmt.category in ("DML", "DDL")
        if write:
            if source.fenced:
                raise DataSourceUnavailableError(
                    f"data source {source.name!r} is fenced (failed-over primary)")
            if replica is not None:
                raise DataSourceUnavailableError(f"data source {source.name!r} is a read replica")
        database = self.database
        database.statements_executed += 1
        try:
            delay = database.maybe_fail("statement")  # an injected latency spike
        except ConnectionDropError:
            # The "server" dropped us: this session is dead. close() rolls
            # back any open transaction; the pool discards closed conns.
            self.close()
            raise
        span = self.trace_span
        if write:
            with self._lock:
                txn = self._transaction
                implicit = txn is None
                if implicit:
                    txn = self._transaction = Transaction(database)
                try:
                    lock_t0 = clock.now() if span is not None else 0.0
                    with database.write_lock():
                        if span is not None:
                            span.record_lock_wait(clock.now() - lock_t0)
                        result, plan_status = execute(database, stmt, params, txn)
                except Exception:
                    if implicit:
                        txn.rollback()
                        self._transaction = None
                    raise
                if implicit:
                    delay += txn.commit()[0]
                    self._transaction = None
        else:
            result, plan_status = execute(database, stmt, params, self._transaction)
        result.plan = plan_status  # workload analytics read this off cursor._result
        if span is not None:
            span.attributes["storage_plan"] = plan_status
        result.delay = delay
        return result

    # -- statement pipelining ---------------------------------------------------

    def execute_pipeline(
        self, statements: Sequence[tuple[str | ast.Statement, Sequence[Any]]]
    ) -> list[QueryResult]:
        """Execute a batch of statements in order, one storage round trip.

        Per-statement semantics (3VL, errors, rowcounts, transaction undo)
        are those of running them serially; what changes is the payment
        (:meth:`_settle`): write I/O is coalesced per written table, cut at
        every COMMIT/ROLLBACK so write-before-fsync ordering holds, and the
        batch waits once. On a mid-batch error, what ran so far is paid and
        the exception propagates; earlier statements' effects stand.
        """
        self._check_open()
        results: list[QueryResult] = []
        batches: list[list[QueryResult]] = [[]]
        try:
            for sql, params in statements:
                if isinstance(sql, str):
                    stmt = parse(sql)
                    stmt.storage_plan_key = sql
                else:
                    stmt = sql
                if isinstance(stmt, _TCL_STATEMENTS) and batches[-1]:
                    batches.append([])
                result = self._run(stmt, params)
                results.append(result)
                batches[-1].append(result)
        finally:
            self._settle(batches)
        return results

    def _settle(self, batches: list[list[QueryResult]]) -> None:
        """Book what run statements owe, one window after another behind
        this connection's last, and wait once, for the last window. Per
        batch, write I/O is coalesced to **one charge per written table**
        (group commit: one dirty-page flush per table), booked behind that
        table's earlier writes; the reads are summed into one charge, booked
        first and behind the statements' delays.
        """
        asked = clock.now()
        timeline = self.data_source.io_timeline
        owed = 0.0
        for batch in batches:
            # written table -> [non-I/O cost, write I/O]; the reads (None)
            # come first, and open the batch's window with its delays
            charges: dict[Any, list[float]] = {None: [0.0, 0.0]}
            for result in batch:
                if result.cost > 0:
                    charge = charges.setdefault(result.written_table, [0.0, 0.0])
                    charge[0] += result.cost - result.write_cost
                    charge[1] = max(charge[1], result.write_cost)
            delay = sum(result.delay for result in batch)
            for table, (non_io, io) in charges.items():
                owed += non_io + io + delay
                now = clock.now()
                if self.free_at > now:  # behind this connection's last window
                    delay += self.free_at - now
                self.free_at = timeline.reserve(non_io + io, table, delay)
                delay = 0.0
        if owed > 0:
            span = self.trace_span
            if span is None:
                pay(owed, self.free_at)
            else:
                _pay_traced(owed, self.free_at, asked, span)

    def _run_many(self, stmt: ast.Statement,
                  seq_of_params: Sequence[Sequence[Any]]) -> QueryResult:
        """Issue an executemany. DML bindings run as one batch: one lock
        acquisition, one (implicit) transaction and one coalesced write-I/O
        charge for all of them (:func:`execute_planned_many`).

        In autocommit mode the batch commits once at the end, making it
        atomic — a mid-batch error rolls back every binding. Inside an
        explicit transaction semantics are unchanged (earlier bindings'
        effects stand until the transaction resolves).
        """
        self._check_open()
        seq = list(seq_of_params)
        if not seq:
            return QueryResult(rowcount=0)
        if stmt.category == "DML":
            return self._issue(stmt, execute_planned_many, seq)
        # DDL/TCL/queries: one run per binding, their prices and delays
        # added up; executemany on these is a rarity.
        results = [self._run(stmt, params) for params in seq]
        counts = [result.rowcount for result in results if result.rowcount >= 0]
        last = results[-1]
        return QueryResult(
            columns=last.columns, rows=last.rows, rowcount=sum(counts) if counts else -1,
            cost=sum(result.cost for result in results), written_table=last.written_table,
            delay=sum(result.delay for result in results),
        )


class Cursor:
    """Streaming result cursor (DB-API style)."""

    arraysize = 100

    #: ``clock.now()`` instant at which the last statement's I/O window
    #: ends (0.0: it cost nothing)
    ready_at = 0.0
    #: what an issued statement still has to wait for, to ``ready_at``:
    #: ``(seconds priced, when the window was reserved, trace span)``; None
    #: once waited for, and so always after a blocking ``execute``
    _pending: tuple[float, float, Any] | None = None

    def __init__(self, connection: Connection):
        self.connection = connection
        self._result: QueryResult | None = None
        self._rows: Iterator[tuple[Any, ...]] = iter(())
        self._closed = False

    # -- metadata --------------------------------------------------------------

    @property
    def description(self) -> list[tuple] | None:
        if self._result is None or not self._result.columns:
            return None
        return [(name, None, None, None, None, None, None) for name in self._result.columns]

    @property
    def columns(self) -> list[str]:
        return list(self._result.columns) if self._result else []

    @property
    def rowcount(self) -> int:
        return self._result.rowcount if self._result else -1

    # -- execution ----------------------------------------------------------------

    def execute(self, sql: str | ast.Statement, params: Sequence[Any] = (),
                wait: bool = True) -> "Cursor":
        """Run one statement: issue it — run, price, book its I/O window
        behind this connection's last — then :meth:`wait` for the window.
        With ``wait=False`` it returns at once, and :meth:`wait` (or the
        first fetch) sleeps to the window's end later, so no caller reads a
        result before its priced time."""
        if self._closed:
            raise ConnectionClosedError("cursor is closed")
        if isinstance(sql, str):
            stmt = parse(sql)
            # Key the database's compiled-plan cache by SQL text so every
            # cursor executing this statement shares one storage plan.
            stmt.storage_plan_key = sql
        else:
            stmt = sql
        connection = self.connection
        self._result = result = connection._run(stmt, params)
        self._rows = iter(result.rows)
        if (owed := result.cost + result.delay) > 0:
            asked = clock.now()
            delay = result.delay
            if connection.free_at > asked:  # behind this connection's last window
                delay += connection.free_at - asked
            self.ready_at = connection.free_at = connection.data_source.io_timeline.reserve(
                result.cost, result.written_table, delay)
            self._pending = (owed, asked, connection.trace_span)
            if wait:
                self.wait()
        elif self.ready_at:  # a cursor used again after an issued statement
            self._pending, self.ready_at = None, 0.0
        return self

    def wait(self) -> None:
        """Sleep until an issued statement's I/O is done (at most once; a
        no-op after a blocking ``execute``)."""
        if self._pending is not None:
            (owed, asked, span), self._pending = self._pending, None
            if span is None:
                pay(owed, self.ready_at)
            else:
                _pay_traced(owed, self.ready_at, asked, span)

    def executemany(self, sql: str | ast.Statement, seq_of_params: Sequence[Sequence[Any]]) -> "Cursor":
        """Execute once per parameter row, parsing/planning only once.

        DML bindings run as one batched plan invocation: a single lock
        acquisition, one (implicit) transaction and one coalesced
        write-I/O charge (see :meth:`Connection._run_many`), booked and
        waited for as one window. Reports the cumulative rowcount across
        all bindings (DB-API semantics).
        """
        if self._closed:
            raise ConnectionClosedError("cursor is closed")
        if isinstance(sql, str):
            stmt = parse(sql)
            stmt.storage_plan_key = sql
        else:
            stmt = sql
        connection = self.connection
        self._result = result = connection._run_many(stmt, seq_of_params)
        self._rows = iter(result.rows)
        self._pending = None
        connection._settle([[result]])
        return self

    # -- fetching ---------------------------------------------------------------------

    def fetchone(self) -> tuple[Any, ...] | None:
        if self._pending is not None:
            self.wait()
        return next(self._rows, None)

    def fetchmany(self, size: int | None = None) -> list[tuple[Any, ...]]:
        if self._pending is not None:
            self.wait()
        limit = size if size is not None else self.arraysize
        return list(itertools.islice(self._rows, limit))

    def fetchall(self) -> list[tuple[Any, ...]]:
        if self._pending is not None:
            self.wait()
        return list(self._rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        if self._pending is not None:
            self.wait()
        return self._rows

    def close(self) -> None:
        self._rows = iter(())
        self._closed = True

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
