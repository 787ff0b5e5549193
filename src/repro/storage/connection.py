"""DB-API-flavored connections and cursors for a data source.

This is the JDBC stand-in: the sharding executor, the adaptors and the
benchmarks all talk to data sources through :class:`Connection` /
:class:`Cursor`. Cursors stream rows from the engine lazily, which is what
lets the result merger choose stream merging over memory merging.

Isolation note: like the paper's setup, transactional isolation is provided
by the underlying data source. Our engine implements statement-atomic
writes with undo-based rollback (roughly READ COMMITTED without MVCC);
that is sufficient for every behaviour the paper measures.

A statement is *issued* (admitted, run, priced, its I/O window reserved on
the server's timeline) and then *waited for*. ``execute`` does both;
``execute(..., wait=False)`` returns after the first, which is what an
asynchronous driver gives — send, collect later — and what lets the
execution engine issue every unit of a fan-out from one thread and sleep
once (DESIGN.md "Issue and await"). The transaction verbs (``commit``,
``xa_prepare``, ``xa_commit``) take the same ``wait`` and return their
window ``(priced, ready_at)``; nothing here sleeps holding a lock.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Any, Iterator, Sequence

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
    #: ``clock.now()`` instant at which the last statement issued here
    #: (``execute(..., wait=False)``) is done. A connection runs one
    #: statement at a time, so one issued behind it starts no earlier.
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
                window = self._transaction.commit(wait=False)
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
                window = transaction.prepare(xid, wait=False)
            self._transaction = None
            self.autocommit = True
        if wait and window is not None:
            pay(*window)
        return window

    def xa_commit(self, xid: str, wait: bool = True) -> tuple[float, float] | None:
        """2PC phase 2: commit the branch parked under xid; the window is
        returned and paid as by :meth:`commit`."""
        return commit_prepared(self.database, xid, wait)

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

    def _run(self, stmt: ast.Statement, params: Sequence[Any],
             wait: bool = True) -> QueryResult:
        """Admit, run and price one statement; with ``wait`` also reserve
        and wait out its I/O. Without, nothing in here waits: the caller
        settles ``result.cost`` and ``result.delay`` (a pipeline coalesces
        them, an issued cursor reserves now and waits later)."""
        if self.closed:
            raise ConnectionClosedError("connection is closed")
        if isinstance(stmt, ast.BeginStatement):
            self.begin()
            return QueryResult(rowcount=0)
        if isinstance(stmt, ast.CommitStatement):
            self.commit()
            return QueryResult(rowcount=0)
        if isinstance(stmt, ast.RollbackStatement):
            self.rollback()
            return QueryResult(rowcount=0)

        self._admit(stmt)
        try:
            delay = self.database.maybe_fail("statement")
        except ConnectionDropError:
            # The "server" dropped us: this session is dead. close() rolls
            # back any open transaction; the pool discards closed conns.
            self.close()
            raise
        if delay and wait:  # an injected latency spike, before the statement runs
            pay(delay)
        span = self.trace_span
        commit = None  # an autocommit write's implicit commit: its window
        if stmt.category in ("DML", "DDL"):
            with self._lock:
                implicit = False
                if self._transaction is None:
                    self._transaction = Transaction(self.database)
                    implicit = True
                txn = self._transaction
                try:
                    lock_t0 = clock.now() if span is not None else 0.0
                    with self.database.write_lock():
                        if span is not None:
                            span.record_lock_wait(clock.now() - lock_t0)
                        result, plan_status = execute_planned(self.database, stmt, params, txn)
                        # workload analytics read this off cursor._result
                        result.plan = plan_status
                        if span is not None:
                            span.attributes["storage_plan"] = plan_status
                except Exception:
                    if implicit:
                        txn.rollback()
                        self._transaction = None
                    raise
                if implicit:
                    commit = txn.commit(wait=False)
                    self._transaction = None
        else:
            result, plan_status = execute_planned(
                self.database, stmt, params, self._transaction)
            result.plan = plan_status
            if span is not None:
                span.attributes["storage_plan"] = plan_status
        if wait:
            if commit is not None:
                self._pay_commit(commit, span)
            self._pay(result.cost, result.written_table, span)
        else:
            # issued: the write's window starts once its commit's has ended
            result.delay = delay if commit is None else delay + commit[0]
        return result

    @staticmethod
    def _pay_commit(window: tuple[float, float], span: Any) -> None:
        """Pay an autocommit write's implicit commit, outside every lock."""
        pay(*window)
        if span is not None:
            # autocommit fsync happens inside this statement
            span.record_simulated(window[0])

    def _admit(self, stmt: ast.Statement) -> None:
        """Replica-group role checks + the storage statement counter.

        On a read replica, first lazily apply every replication-log record
        whose lag has elapsed, so this statement sees exactly the
        snapshot its staleness bound allows. Writes are rejected on
        replicas and on fenced (failed-over) primaries.
        """
        source = self.data_source
        replica = source.replica
        if replica is not None:
            replica.apply_due()
        if stmt.category in ("DML", "DDL"):
            if source.fenced:
                raise DataSourceUnavailableError(
                    f"data source {source.name!r} is fenced (failed-over primary)"
                )
            if replica is not None:
                raise DataSourceUnavailableError(
                    f"data source {source.name!r} is a read replica"
                )
        self.database.statements_executed += 1

    def _pay(self, amount: float, table: Any, span: Any) -> None:
        """Pay simulated I/O cost: reserve its window on the server's I/O
        timeline (write I/O names its ``table`` and follows that table's
        earlier writes — the hot-table bottleneck the paper's sharding
        removes), then sleep to the window's end."""
        if amount <= 0:
            return
        if span is None:
            pay(amount, self.data_source.io_timeline.reserve(amount, table))
        else:
            asked = clock.now()
            _pay_traced(amount, self.data_source.io_timeline.reserve(amount, table),
                        asked, span)

    # -- statement pipelining ---------------------------------------------------

    def execute_pipeline(
        self, statements: Sequence[tuple[str | ast.Statement, Sequence[Any]]]
    ) -> list[QueryResult]:
        """Execute a batch of statements in order, one storage round trip.

        Per-statement semantics (3VL, errors, rowcounts, transaction
        undo) are identical to running the same statements serially; what
        changes is the simulated-I/O payment: the write-I/O slice of each
        statement's cost is coalesced to **one charge per distinct written
        table** in the batch (the group-commit / write-combining analog of
        a real engine flushing one dirty page per table), reserved behind
        that table's earlier writes so hot-table serialization is preserved.

        Pending write I/O is flushed before any COMMIT/ROLLBACK in the
        batch so the write-before-fsync ordering holds. On a mid-batch
        error, costs accrued so far are paid and the original exception
        propagates — earlier statements' effects stand, exactly as in
        serial execution (an enclosing transaction's undo still covers
        them).
        """
        self._check_open()
        results: list[QueryResult] = []
        pending: list[QueryResult] = []
        try:
            for sql, params in statements:
                if isinstance(sql, str):
                    stmt = parse(sql)
                    stmt.storage_plan_key = sql
                else:
                    stmt = sql
                if isinstance(stmt, _TCL_STATEMENTS) and pending:
                    self._flush_pipeline_costs(pending)
                    pending = []
                result = self._run(stmt, params, False)
                results.append(result)
                pending.append(result)
        finally:
            self._flush_pipeline_costs(pending)
        return results

    def _flush_pipeline_costs(self, pending: list[QueryResult]) -> None:
        """Pay deferred costs: delays (network hops, injected spikes) and
        reads summed, writes coalesced per table."""
        span = self.trace_span
        read_cost = 0.0
        per_table: dict[int, list] = {}
        for result in pending:
            if result.delay:
                pay(result.delay)
            if result.cost <= 0:
                continue
            if result.written_table is None:
                read_cost += result.cost
                continue
            entry = per_table.get(id(result.written_table))
            if entry is None:
                per_table[id(result.written_table)] = [
                    result.written_table, result.cost - result.write_cost,
                    result.write_cost,
                ]
            else:
                entry[1] += result.cost - result.write_cost
                entry[2] = max(entry[2], result.write_cost)
        for table, non_io, io in per_table.values():
            self._pay(non_io + io, table, span)
        self._pay(read_cost, None, span)

    def _run_many(self, stmt: ast.Statement,
                  seq_of_params: Sequence[Sequence[Any]]) -> QueryResult:
        """Batched executemany: one lock acquisition, one (implicit)
        transaction and one coalesced write-I/O charge for all bindings.

        In autocommit mode the batch commits once at the end, making it
        atomic — a mid-batch error rolls back every binding. Inside an
        explicit transaction semantics are unchanged (earlier bindings'
        effects stand until the transaction resolves).
        """
        self._check_open()
        seq = list(seq_of_params)
        if not seq:
            return QueryResult(rowcount=0)
        if stmt.category != "DML":
            # DDL/TCL/queries: keep per-binding execution (and its
            # per-binding payment); executemany on these is a rarity.
            total = 0
            counted = False
            result: QueryResult | None = None
            for params in seq:
                result = self._run(stmt, params)
                if result.rowcount >= 0:
                    counted = True
                    total += result.rowcount
            return QueryResult(
                columns=result.columns, rows=result.rows,
                rowcount=total if counted else -1, cost=result.cost,
                written_table=result.written_table,
            )
        self._admit(stmt)
        try:
            delay = self.database.maybe_fail("statement")
        except ConnectionDropError:
            self.close()
            raise
        if delay:
            pay(delay)
        span = self.trace_span
        commit = None
        with self._lock:
            implicit = False
            if self._transaction is None:
                self._transaction = Transaction(self.database)
                implicit = True
            txn = self._transaction
            try:
                lock_t0 = clock.now() if span is not None else 0.0
                with self.database.write_lock():
                    if span is not None:
                        span.record_lock_wait(clock.now() - lock_t0)
                    result, plan_status = execute_planned_many(
                        self.database, stmt, seq, txn)
                    result.plan = plan_status
                    if span is not None:
                        span.attributes["storage_plan"] = plan_status
            except Exception:
                if implicit:
                    txn.rollback()
                    self._transaction = None
                raise
            if implicit:
                commit = txn.commit(wait=False)
                self._transaction = None
        if commit is not None:
            self._pay_commit(commit, span)
        self._pay(result.cost, result.written_table, span)
        return result


class Cursor:
    """Streaming result cursor (DB-API style)."""

    arraysize = 100

    #: ``clock.now()`` instant at which an issued statement's I/O window
    #: ends (0.0: it was done when ``execute`` returned)
    ready_at = 0.0
    #: what an issued statement still has to wait for, to ``ready_at``:
    #: ``(seconds priced, when the window was reserved, trace span)``; None
    #: once waited for, and always after a blocking ``execute``
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
        """Run one statement. With ``wait=False`` it is only *issued*: run
        and priced, its I/O window reserved on the server's timeline, and
        the call returns without sleeping; :meth:`wait` (or the first
        fetch) then sleeps to the end of that window, so no caller reads
        a result before its priced time. A write's implicit commit is
        applied at issue and its cost opens the window, as a delay."""
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
        self._result = result = connection._run(stmt, params, wait)
        self._rows = iter(result.rows)
        if not wait and (owed := result.cost + result.delay) > 0:
            asked = clock.now()
            delay = result.delay
            if connection.free_at > asked:  # behind this connection's last statement
                delay += connection.free_at - asked
            self.ready_at = connection.free_at = connection.data_source.io_timeline.reserve(
                result.cost, result.written_table, delay)
            self._pending = (owed, asked, connection.trace_span)
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
        write-I/O charge (see :meth:`Connection._run_many`). Reports the
        cumulative rowcount across all bindings (DB-API semantics).
        """
        if self._closed:
            raise ConnectionClosedError("cursor is closed")
        if isinstance(sql, str):
            stmt = parse(sql)
            stmt.storage_plan_key = sql
        else:
            stmt = sql
        self._result = self.connection._run_many(stmt, seq_of_params)
        self._rows = iter(self._result.rows)
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
