"""DB-API-flavored connections and cursors for a data source.

This is the JDBC stand-in: the sharding executor, the adaptors and the
benchmarks all talk to data sources through :class:`Connection`, whose
``execute`` returns one :class:`~repro.storage.executor.QueryResult` per
statement — also its cursor (``Cursor`` is the same type). A result reads
its rows when it is first fetched, which is what lets the result merger
choose stream merging over memory merging.

Isolation note: in the paper's setup transactional isolation is provided by
the underlying data source (InnoDB's row locks). This storage gives none
between connections. Writes are statement-atomic with undo-based rollback,
but a statement reads the latest value written, committed or not (dirty
read), and a write may overwrite another transaction's uncommitted write,
which that transaction's rollback then undoes (dirty write, then a lost
update). That is weaker than READ UNCOMMITTED, which forbids dirty writes
(DESIGN.md "Isolation"; ``tests/test_storage_isolation.py``).

A statement is *issued* — run, priced, its I/O window reserved on the
server's timeline behind this connection's last one — and its window is
*booked* in the open scope (:mod:`repro.storage.latency`). ``_run``, the
one storage door every statement passes, returns the price as
``QueryResult.cost`` and what must pass before the I/O starts (a latency
spike, a commit, a network hop) as ``QueryResult.delay``;
:meth:`Connection.execute` reserves and books both in the same frame. A
read's rows are read at its result's first fetch, not at issue.
``commit``, ``xa_prepare`` and ``xa_commit`` book their window
``(priced, ready_at)`` and return it. With no scope open a booking is paid
at once, so a direct caller blocks as before; through a session the
boundary pays once (DESIGN.md "Issue and await"). Nothing here sleeps
holding a lock.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Any, Sequence

from .. import clock
from ..exceptions import (
    ConnectionClosedError,
    ConnectionDropError,
    DataSourceUnavailableError,
    TransactionError,
)
from ..sql import ast, parse
from .executor import QueryResult, execute_ddl
from .latency import book, booking, now, pay, step
from .plans import find_plan, missing_parameter, run_many
from .transaction import Transaction, commit_prepared, rollback_prepared

_TCL_STATEMENTS = (ast.BeginStatement, ast.CommitStatement, ast.RollbackStatement)

if TYPE_CHECKING:
    from .engine import DataSource

_connection_ids = itertools.count(1)


class Connection:
    """A session against one data source.

    Starts in autocommit mode (each DML statement commits immediately),
    like a fresh JDBC/MySQL connection. ``begin()`` or executing ``BEGIN``
    opens an explicit transaction ended by ``commit()``/``rollback()``.
    """

    #: trace context handed down by the execution engine for the duration
    #: of one statement: priced time and lock waits are attributed to this
    #: span when booked (class default None = not traced)
    trace_span = None
    #: ``clock.now()`` instant at which the last window booked here ends. A
    #: connection runs one statement at a time, so the next one booked
    #: starts no earlier — also after the pool handed it to someone else.
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

    def commit(self) -> tuple[float, float] | None:
        """Commit the open transaction (if any); books and returns the
        commit's window ``(priced, ready_at)``."""
        return self._book(self._commit())

    def _commit(self) -> tuple[float, float] | None:
        self._check_open()
        window = None
        with self._lock:
            if self._transaction is not None:
                window = self._transaction.commit()
                self._transaction = None
            self.autocommit = True
        return window

    def _book(self, window: tuple[float, float] | None) -> tuple[float, float] | None:
        """Book a transaction-end ``window``; the connection is busy until it ends."""
        if window is not None:
            self.free_at = max(self.free_at, window[1])
            book(*window)
        return window

    def rollback(self) -> None:
        self._check_open()
        with self._lock:
            if self._transaction is not None:
                self._transaction.rollback()
                self._transaction = None
            self.autocommit = True

    # -- XA verbs ---------------------------------------------------------------

    def xa_prepare(self, xid: str) -> tuple[float, float] | None:
        """2PC phase 1: park the open transaction as prepared under xid.

        Returns the window of the prepare's log write, booked as by
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
        return self._book(window)

    def xa_commit(self, xid: str) -> tuple[float, float] | None:
        """2PC phase 2: commit the branch parked under xid; the window is
        booked and returned as by :meth:`commit`."""
        return self._book(commit_prepared(self.database, xid))

    def xa_rollback(self, xid: str) -> None:
        rollback_prepared(self.database, xid)

    # -- statement execution ------------------------------------------------------

    def cursor(self) -> QueryResult:
        """An empty result to :meth:`~QueryResult.execute` statements on."""
        self._check_open()
        result = QueryResult()
        result.connection = self
        return result

    def execute(self, sql: str | ast.Statement, params: Sequence[Any] = ()) -> QueryResult:
        """Run one statement: issue it through :meth:`_run` — run and price
        it — then reserve its I/O window behind this connection's last and
        the session call's :func:`~repro.storage.latency.now`, and book the
        window (:func:`~repro.storage.latency.book`, inline: this is the hot
        path). With no scope open it is paid here. Returns the result, whose
        rows are read at its first fetch."""
        if isinstance(sql, str):  # _statement, inline: this is the hot path
            stmt = parse(sql)
            stmt.storage_plan_key = sql
        else:
            stmt = sql
        result = self._run(stmt, params)
        result.connection = self
        if (owed := result.cost + result.delay) <= 0:
            return result
        booked = booking.get()
        issued = clock.now()
        # after the session call's last step, and behind this connection's last window
        asked = issued if booked is None else issued + booked.lag
        after = max(self.free_at, asked)
        result.ready_at = self.free_at = ready_at = self.data_source.io_timeline.reserve(
            result.cost, result.written_table, result.delay + after - issued)
        span = self.trace_span
        if span is not None:
            # the price, and the queueing behind windows reserved earlier
            span.record_simulated(owed)
            span.record_lock_wait(ready_at - owed - asked)
        if booked is not None:
            booked.priced += owed
            booked.ready_at = max(booked.ready_at, ready_at)
            return result
        pay(owed, ready_at)  # no scope open: the caller blocks here
        if span is not None and ready_at > issued:
            span.record_pay_overshoot(clock.now() - ready_at)
        return result

    def executemany(self, sql: str | ast.Statement,
                    seq_of_params: Sequence[Sequence[Any]]) -> QueryResult:
        """Execute once per parameter row, parsing/planning only once.

        DML bindings run as one batched plan invocation: a single lock
        acquisition, one (implicit) transaction and one coalesced
        write-I/O charge (see :meth:`_run_many`), booked as one window.
        Reports the cumulative rowcount across all bindings (DB-API
        semantics).
        """
        result = self._run_many(_statement(sql), seq_of_params)
        result.connection = self
        self._settle([[result]])
        return result

    def _run(self, stmt: ast.Statement, params: Any, many: bool = False) -> QueryResult:
        """The storage door: issue one statement — admit, run and price it —
        or, with ``many``, a DML statement once per binding in ``params``
        (:func:`~repro.storage.plans.run_many`). Nothing in here books: the
        caller books ``result.cost`` behind ``result.delay``.

        A replica first applies the log records whose lag has elapsed;
        writes are rejected on replicas and fenced primaries. A read whose
        statement is bound to a plan of this database at its current schema
        epoch runs that plan after one check (a *hit*); any other read
        finds or compiles its plan first (:func:`find_plan`). A write finds
        its plan and runs under the write lock in the open transaction or in
        an implicit one, undone if it raises and committed if not: that
        commit's price joins ``result.delay``, so the write's window starts
        after the commit's. Every statement, TCL too, crosses the network
        once: its ``delay`` starts at the source's ``network_hop``.
        """
        if self.closed:
            raise ConnectionClosedError("connection is closed")
        category = stmt.category
        source = self.data_source
        if category == "TCL":
            result = self._control(stmt)
            result.delay += source.network_hop
            return result
        replica = source.replica
        if replica is not None:
            replica.apply_due()
        write = category in ("DML", "DDL")
        if write:
            if source.fenced:
                raise DataSourceUnavailableError(
                    f"data source {source.name!r} is fenced (failed-over primary)")
            if replica is not None:
                raise DataSourceUnavailableError(f"data source {source.name!r} is a read replica")
        database = self.database
        database.statements_executed += 1
        delay = source.network_hop  # the statement crosses the network once
        if database.armed:
            try:
                delay += database.maybe_fail("statement")  # an injected latency spike
            except ConnectionDropError:
                # The "server" dropped us: this session is dead. close() rolls
                # back any open transaction; the pool discards closed conns.
                self.close()
                raise
        if write:
            result, status = self._write(stmt, params, many)
        else:
            bound = stmt.bound_plan
            if bound is not None and bound[0] is database and bound[1] == database.schema_epoch:
                database.plan_cache.hits += 1
                plan, status = bound[2], "hit"
            else:
                plan, status = find_plan(database, stmt)
            if plan is None:  # no plan and no write: not a storage statement
                result = execute_ddl(database, stmt)
            else:
                if len(params) < plan.param_count:
                    raise missing_parameter(params)
                result = plan.runner(params, self._transaction)
        result.plan = status  # workload analytics read this off the result
        span = self.trace_span
        if span is not None:
            span.attributes["storage_plan"] = status
        result.delay += delay
        return result

    def _control(self, stmt: ast.Statement) -> QueryResult:
        """BEGIN, COMMIT or ROLLBACK; a COMMIT's price is ``result.delay``."""
        if isinstance(stmt, ast.BeginStatement):
            self.begin()
            return QueryResult(rowcount=0)
        if isinstance(stmt, ast.CommitStatement):
            window = self._commit()
            return QueryResult(rowcount=0, delay=window[0] if window else 0.0)
        self.rollback()
        return QueryResult(rowcount=0)

    def _write(self, stmt: ast.Statement, params: Any,
               many: bool) -> tuple[QueryResult, str]:
        """Find and run a write's plan (DDL has none) under the write lock,
        in the open transaction or in an implicit one (see :meth:`_run`)."""
        database = self.database
        span = self.trace_span
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
                    plan, status = find_plan(database, stmt)
                    if plan is None:
                        result = execute_ddl(database, stmt)
                    elif many:
                        result = run_many(plan, params, txn)
                    else:
                        if len(params) < plan.param_count:
                            raise missing_parameter(params)
                        result = plan.runner(params, txn)
            except Exception:
                if implicit:
                    txn.rollback()
                    self._transaction = None
                raise
            if implicit:
                result.delay += txn.commit()[0]
                self._transaction = None
        return result, status

    # -- statement pipelining ---------------------------------------------------

    def execute_pipeline(
        self, statements: Sequence[tuple[str | ast.Statement, Sequence[Any]]]
    ) -> list[QueryResult]:
        """Execute a batch of statements in order, one storage round trip.

        Per-statement semantics (3VL, errors, rowcounts, transaction undo)
        are those of running them serially; what changes is the payment
        (:meth:`_settle`): write I/O is coalesced per written table, cut at
        every COMMIT/ROLLBACK so write-before-fsync ordering holds, and the
        batch is booked as one step. On a mid-batch error, what ran so far
        is booked and the exception propagates; earlier statements' effects
        stand.
        """
        self._check_open()
        results: list[QueryResult] = []
        batches: list[list[QueryResult]] = [[]]
        try:
            for sql, params in statements:
                stmt = _statement(sql)
                if isinstance(stmt, _TCL_STATEMENTS) and batches[-1]:
                    batches.append([])
                result = self._run(stmt, params)
                results.append(result)
                batches[-1].append(result)
        finally:
            self._settle(batches)
        return results

    def _settle(self, batches: list[list[QueryResult]]) -> None:
        """Reserve what run statements owe, one window after another behind
        this connection's last and the session call's :func:`now`, and book
        them as one :func:`step`. Per batch, write I/O is coalesced to **one
        charge per written table** (group commit: one dirty-page flush per
        table), reserved behind that table's earlier writes; the reads are
        summed into one charge, reserved first and behind the statements'
        delays.
        """
        asked = now()
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
                after = max(self.free_at, asked)  # behind the last window
                delay += max(after - clock.now(), 0.0)
                self.free_at = timeline.reserve(non_io + io, table, delay)
                delay = 0.0
        if owed > 0:
            step(owed, self.free_at)

    def _run_many(self, stmt: ast.Statement,
                  seq_of_params: Sequence[Sequence[Any]]) -> QueryResult:
        """Issue an executemany. DML bindings run as one batch: one lock
        acquisition, one (implicit) transaction and one coalesced write-I/O
        charge for all of them (:func:`~repro.storage.plans.run_many`).

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
            return self._run(stmt, seq, many=True)
        # DDL/TCL/queries: one run per binding, their prices and delays
        # added up; executemany on these is a rarity.
        results = [self._run(stmt, params) for params in seq]
        counts = [result.rowcount for result in results if result.rowcount >= 0]
        last = results[-1]
        return QueryResult(
            columns=last.columns, rows=last.fetchall(), rowcount=sum(counts) if counts else -1,
            cost=sum(result.cost for result in results), written_table=last.written_table,
            delay=sum(result.delay for result in results),
        )


def _statement(sql: str | ast.Statement) -> ast.Statement:
    """``sql`` parsed, keyed by its text: every execution of one text
    shares one plan in the database's compiled-plan cache."""
    if not isinstance(sql, str):
        return sql
    stmt = parse(sql)
    stmt.storage_plan_key = sql
    return stmt


#: the DB-API name of the result type: a result is its own cursor
Cursor = QueryResult
