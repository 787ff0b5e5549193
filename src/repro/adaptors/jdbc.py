"""ShardingSphere-JDBC adaptor: the in-process enhanced driver.

Applications get DB-API-flavoured connections whose statements run through
the full sharding pipeline in the same process — no extra network hop,
which is why the paper's SSJ configurations outperform SSP. DistSQL
statements are recognized and dispatched to the DistSQL executor, so one
connection is enough to both configure and use the sharded fleet.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator, Sequence

from .. import clock
from ..distsql import DISTSQL_VERBS, execute_distsql, is_distsql
from ..engine.pipeline import EngineResult
from ..exceptions import ConnectionClosedError, TransactionError, UnsupportedSQLError
from ..session import SessionContext, activate
from ..sql import ast, leading_words
from ..storage import latency
from ..transaction import DistributedTransaction
from .runtime import ShardingRuntime


class ShardingResult:
    """Cursor-like view over one statement's outcome."""

    def __init__(self, columns: list[str], rows: Iterator[tuple[Any, ...]],
                 rowcount: int = -1, generated_keys: tuple[str, list[Any]] | None = None,
                 message: str | None = None, diagnostics: EngineResult | None = None):
        self.columns = columns
        self._rows = iter(rows)
        self.rowcount = rowcount
        self.generated_keys = generated_keys
        self.message = message
        self.diagnostics = diagnostics

    @property
    def description(self) -> list[tuple] | None:
        if not self.columns:
            return None
        return [(name, None, None, None, None, None, None) for name in self.columns]

    def fetchone(self) -> tuple[Any, ...] | None:
        return next(self._rows, None)

    def fetchmany(self, size: int = 100) -> list[tuple[Any, ...]]:
        return list(itertools.islice(self._rows, size))

    def fetchall(self) -> list[tuple[Any, ...]]:
        return list(self._rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return self._rows


class _PinnedConnections:
    """dict-like view handing the execution engine the transaction's
    per-data-source connections, pinning them lazily on first use."""

    def __init__(self, transaction: DistributedTransaction):
        self.transaction = transaction

    def get(self, ds_name: str):
        return self.transaction.connection_for(ds_name)


class ShardingConnection:
    """A logical connection to the sharded fleet.

    Owns one :class:`~repro.session.SessionContext`: causal replication
    tokens, primary pinning and SHOW SESSIONS bookkeeping are scoped to
    the *connection*, not to whichever OS thread happens to run its
    statements. Every entry point activates the session, so the same
    connection driven from a proxy worker pool behaves identically to one
    driven by a dedicated thread.
    Each one is also one session call: everything below it books its
    priced windows in one scope, paid once on the way out (:meth:`_call`).
    """

    def __init__(self, runtime: ShardingRuntime,
                 session: SessionContext | None = None):
        self.runtime = runtime
        self.session = (
            session if session is not None else SessionContext(kind="jdbc")
        )
        runtime.sessions.register(self.session)
        self._transaction: DistributedTransaction | None = None
        self._closed = False
        self.hint_values: list[Any] = []

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        if self.in_transaction:
            self.rollback()
        self._transaction = None
        self._closed = True
        self.session.in_transaction = False
        self.runtime.sessions.unregister(self.session)

    def __enter__(self) -> "ShardingConnection":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ConnectionClosedError("sharding connection is closed")

    # -- transactions ------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._transaction is not None and not self._transaction.finished

    def begin(self) -> None:
        self._check_open()
        if self.in_transaction:
            raise TransactionError("transaction already in progress")
        self._transaction = self._call(self.runtime.transaction_manager.begin)
        self.session.in_transaction = True

    def commit(self) -> None:
        self._check_open()
        transaction = self._transaction
        if transaction is not None:
            try:
                self._call(transaction.commit)
            finally:
                self._transaction = None
                self.session.in_transaction = False
                if transaction.failures:
                    self.runtime.observability.on_commit_failures(
                        transaction.type.value, len(transaction.failures))

    def rollback(self) -> None:
        self._check_open()
        if self._transaction is not None:
            try:
                self._call(self._transaction.rollback)
            finally:
                self._transaction = None
                self.session.in_transaction = False

    def set_transaction_type(self, type_name: str) -> None:
        """Per-deployment transaction type switch (DistSQL RAL shortcut)."""
        self.runtime.set_variable("transaction_type", type_name)

    # -- hints ----------------------------------------------------------------

    def set_hint(self, *values: Any) -> None:
        """Supply hint sharding values for subsequent statements."""
        self.hint_values = list(values)

    def clear_hint(self) -> None:
        self.hint_values = []

    def hint(self, *values: Any) -> "HintManager":
        """Scoped hint values::

            with conn.hint(7):
                conn.execute("SELECT * FROM t_user")   # routed by hint 7
        """
        return HintManager(self, values)

    def primary(self):
        """Scope reads to primaries (HintManager.setPrimaryRouteOnly)::

            with conn.primary():
                conn.execute("SELECT ...")   # never served by a replica

        Pins this connection's session: read-write splitting sends reads
        to the group primary and the result cache is bypassed for the
        block.
        """
        return self.session.pin()

    # -- DAL -----------------------------------------------------------------

    def _show(self, statement: ast.ShowStatement) -> ShardingResult:
        subject = statement.subject.upper()
        if subject == "TABLES":
            names: dict[str, None] = {}
            for table in self.runtime.rule.logic_tables():
                names.setdefault(table)
            for name in sorted(self.runtime.rule.broadcast_tables):
                names.setdefault(name)
            default = self.runtime.rule.default_data_source
            if default and default in self.runtime.data_sources:
                for name in self.runtime.data_sources[default].database.table_names():
                    # physical shards of known logic tables stay hidden
                    if not any(
                        name.lower().startswith(logic.lower() + "_")
                        for logic in names
                    ):
                        names.setdefault(name)
            rows = [(n,) for n in names]
            return ShardingResult(["table"], iter(rows))
        raise UnsupportedSQLError(f"SHOW {statement.subject} is not supported")


    # -- execution ----------------------------------------------------------------

    #: leading keywords that must be parsed here (transaction control and
    #: session statements the engine pipeline never sees)
    _CONTROL_VERBS = frozenset({"BEGIN", "START", "COMMIT", "ROLLBACK", "SET", "SHOW"})

    def prepare(self, sql: str) -> "PreparedStatement":
        """JDBC-style ``prepareStatement``: repeated executions of the
        returned statement run from the engine's plan cache."""
        self._check_open()
        return PreparedStatement(self, sql)

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ShardingResult:
        self._check_open()
        # :meth:`_call`, inline (the hot path). Any thread may drive this
        # connection (proxy workers do): state lands on the session.
        booked = latency.booking.get()
        token = None if booked is not None else latency.booking.set(booked := latency.Booked())
        try:
            with activate(self.session):
                self.session.statements += 1
                self.session.last_sql = sql
                return self._execute_in_session(sql, params)
        finally:
            booked.lag = max(booked.lag, booked.ready_at - clock.now())
            if token is not None:
                latency.booking.reset(token)
                if booked.ready_at:
                    latency.pay(booked.priced, clock.now() + booked.lag)

    def _call(self, verb: Callable[..., Any], *args: Any) -> Any:
        """``verb(*args)`` as one session call: the session active, and one
        scope open that pays what was booked under it on the way out."""
        booked = latency.booking.get()
        token = None if booked is not None else latency.booking.set(booked := latency.Booked())
        try:
            with activate(self.session):
                return verb(*args)
        finally:
            booked.lag = max(booked.lag, booked.ready_at - clock.now())
            if token is not None:
                latency.booking.reset(token)
                if booked.ready_at:
                    latency.pay(booked.priced, clock.now() + booked.lag)

    def _execute_in_session(self, sql: str, params: Sequence[Any]) -> ShardingResult:
        # Cheap leading-verb dispatch: DistSQL and control/session
        # statements are handled here. Everything else passes through as
        # raw SQL text so the engine's plan cache can key by it
        # (pre-parsing would force the slow path every time).
        head = leading_words(sql)
        verb = head[0]
        if verb in DISTSQL_VERBS and is_distsql(sql, head):
            result = execute_distsql(sql, self.runtime)
            return ShardingResult(result.columns, iter(result.rows), message=result.message)
        if verb in self._CONTROL_VERBS:
            statement = self.runtime.engine._parse_cached(sql)
            if isinstance(statement, ast.BeginStatement):
                self.begin()
                return ShardingResult([], iter(()), rowcount=0, message="BEGIN")
            if isinstance(statement, ast.CommitStatement):
                self.commit()
                return ShardingResult([], iter(()), rowcount=0, message="COMMIT")
            if isinstance(statement, ast.RollbackStatement):
                self.rollback()
                return ShardingResult([], iter(()), rowcount=0, message="ROLLBACK")
            if isinstance(statement, ast.SetStatement):
                self.runtime.set_variable(statement.name, statement.value)
                return ShardingResult([], iter(()), rowcount=0, message="OK")
            if isinstance(statement, ast.ShowStatement):
                return self._show(statement)

        if self.in_transaction:
            # Reads inside an explicit transaction must observe its own
            # uncommitted writes: pin the session so read-write splitting
            # keeps every statement on the primary's pinned connection.
            with self.session.pin():
                engine_result = self.runtime.engine.execute(
                    sql, params,
                    held_connections=_PinnedConnections(self._transaction),
                    hint_values=self.hint_values or None,
                )
        else:
            engine_result = self.runtime.engine.execute(
                sql, params,
                held_connections=None,
                hint_values=self.hint_values or None,
            )
        return self._wrap(engine_result)

    def execute_pipeline(
        self, statements: Sequence[tuple[str, Sequence[Any]]]
    ) -> list[ShardingResult]:
        """Fused statement pipelining: ship a batch of plain SQL statements
        through the engine in one go.

        Consecutive statements routing to one shard travel as a single
        connection checkout and storage round trip (write-I/O coalesced
        per written table — the group-commit analog); semantics stay
        serial-equivalent. Inside an open transaction the batch reuses the
        transaction's pinned connections; hint values set on the connection
        apply to every statement, as in :meth:`execute`. Only plain SQL is
        accepted — DistSQL, transaction control and session statements must
        go through :meth:`execute`.
        """
        self._check_open()
        for sql, _params in statements:
            head = leading_words(sql)
            verb = head[0]
            if verb in self._CONTROL_VERBS or is_distsql(sql, head):
                raise UnsupportedSQLError(
                    "execute_pipeline only accepts plain SQL statements; "
                    f"route {verb or sql!r} through execute()"
                )
        self.session.statements += len(statements)
        if statements:
            self.session.last_sql = statements[-1][0]
        engine = self.runtime.engine
        if self.in_transaction:
            with self.session.pin():
                engine_results = self._call(
                    engine.execute_pipeline, list(statements),
                    _PinnedConnections(self._transaction), self.hint_values or None)
        else:
            engine_results = self._call(
                engine.execute_pipeline, list(statements), None, self.hint_values or None)
        return [self._wrap(engine_result) for engine_result in engine_results]

    def _wrap(self, engine_result: EngineResult) -> ShardingResult:
        if engine_result.is_query:
            merged = engine_result.merged
            assert merged is not None
            return ShardingResult(
                merged.columns, merged.rows,
                generated_keys=engine_result.generated_keys,
                diagnostics=engine_result,
            )
        return ShardingResult(
            [], iter(()), rowcount=engine_result.update_count,
            generated_keys=engine_result.generated_keys,
            diagnostics=engine_result,
        )


class PreparedStatement:
    """Client-side prepared statement bound to one connection.

    Mirrors JDBC's ``Connection#prepareStatement``: the first execution
    compiles the SQL text into the engine's plan cache; each subsequent
    ``execute`` binds parameters into the cached plan, skipping parse,
    context build, route and rewrite entirely::

        stmt = conn.prepare("SELECT c FROM sbtest WHERE id = ?")
        for key in keys:
            rows = stmt.execute((key,)).fetchall()
    """

    def __init__(self, connection: ShardingConnection, sql: str):
        self.connection = connection
        self.sql = sql

    def execute(self, params: Sequence[Any] = ()) -> ShardingResult:
        return self.connection.execute(self.sql, params)

    def plan(self):
        """The engine's CompiledPlan for this statement, if compiled yet.

        Peeks without touching hit/miss counters or LRU recency.
        """
        return self.connection.runtime.engine.plan_cache.peek(self.sql)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedStatement({self.sql!r})"


class ShardingDataSource:
    """The JDBC-mode entry point: hand out sharding connections."""

    def __init__(self, runtime: ShardingRuntime | None = None, **runtime_kwargs: Any):
        self.runtime = runtime if runtime is not None else ShardingRuntime(**runtime_kwargs)

    def get_connection(self) -> ShardingConnection:
        return ShardingConnection(self.runtime)

    def close(self) -> None:
        self.runtime.close()

    def __enter__(self) -> "ShardingDataSource":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class HintManager:
    """Context manager scoping hint sharding values to a block, mirroring
    the upstream HintManager API."""

    def __init__(self, connection: "ShardingConnection", values: Sequence[Any]):
        self.connection = connection
        self.values = list(values)
        self._saved: list[Any] = []

    def __enter__(self) -> "HintManager":
        self._saved = list(self.connection.hint_values)
        self.connection.hint_values = list(self.values)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.connection.hint_values = self._saved
