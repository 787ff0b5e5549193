"""What every storage statement shares: the result type, DDL, AST helpers.

SELECT / INSERT / UPDATE / DELETE run as compiled plans
(:mod:`repro.storage.plans`, the only executor of DQL/DML). This module
holds the :class:`QueryResult` they return (which is also the DB-API
cursor), the execution of the statements that have no plan (DDL and
TRUNCATE), and the statement-shape helpers the plan compiler and the
reference interpreter under ``tests/oracle`` both read.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from ..exceptions import ConnectionClosedError, UnsupportedSQLError
from ..sql import ast
from ..sql.formatter import format_expression
from .table import Table

if TYPE_CHECKING:
    from .database import Database


class QueryResult:
    """One statement's outcome, and the DB-API cursor that reads it.

    Column metadata plus rows or a rowcount. ``cost`` is the priced
    simulated-I/O latency in seconds and ``delay`` what must pass before its
    I/O can start (an injected latency spike, an autocommit write's implicit
    commit, a COMMIT's commit, a network hop): ``Connection.execute``
    reserves and books both and sets ``ready_at``, the instant the window
    ends (0.0: it cost nothing). ``written_table`` is the table whose write
    I/O a DML statement serializes on, ``write_cost`` the slice of ``cost``
    a statement pipeline may coalesce per written table, and ``plan`` the
    storage plan cache's status (``hit``, ``miss`` or ``bypass``).

    A SELECT's rows are not read at issue: its plan leaves ``produce`` and
    the arguments to call it with, and the first fetch or iteration calls
    it once and keeps the list. ``Connection.cursor()`` gives an empty
    result; :meth:`execute` refills it in place.
    """

    __slots__ = ("columns", "rowcount", "cost", "written_table", "write_cost", "delay",
                 "plan", "ready_at", "connection", "_rows", "_produce", "_args", "_closed")

    arraysize = 100

    def __init__(self, columns: list[str] | None = None,
                 rows: Iterable[tuple[Any, ...]] = (), rowcount: int = -1,
                 cost: float = 0.0, written_table: "Table | None" = None,
                 write_cost: float = 0.0, delay: float = 0.0,
                 produce: Callable[..., list] | None = None, args: tuple = ()):
        self.columns = [] if columns is None else columns
        self.rowcount = rowcount
        self.cost = cost
        self.written_table = written_table
        self.write_cost = write_cost
        self.delay = delay
        self.plan = ""
        self.ready_at = 0.0
        self.connection: Any = None
        #: None until the first fetch calls ``produce(*args)``
        self._rows: Iterator[tuple[Any, ...]] | None = None if produce else iter(rows)
        self._produce = produce
        self._args = args
        self._closed = False

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        rows = self._rows
        if rows is None:
            self._rows = rows = iter(self._produce(*self._args))
            self._produce = self._args = None
        return rows

    @property
    def rows(self) -> Iterator[tuple[Any, ...]]:
        return iter(self)

    @property
    def _result(self) -> "QueryResult":
        """The result itself (a cursor used to hold its result apart)."""
        return self

    def fetchone(self) -> tuple[Any, ...] | None:
        return next(iter(self), None)

    def fetchmany(self, size: int | None = None) -> list[tuple[Any, ...]]:
        return list(islice(iter(self), size if size is not None else self.arraysize))

    def fetchall(self) -> list[tuple[Any, ...]]:
        return list(iter(self))

    @property
    def description(self) -> list[tuple] | None:
        if not self.columns:
            return None
        return [(name, None, None, None, None, None, None) for name in self.columns]

    def execute(self, sql: Any, params: Sequence[Any] = ()) -> "QueryResult":
        """Run one statement on this cursor's connection; refills it."""
        return self._refill(self._open().execute(sql, params))

    def executemany(self, sql: Any, seq_of_params: Sequence[Sequence[Any]]) -> "QueryResult":
        """``Connection.executemany`` on this cursor's connection; refills it."""
        return self._refill(self._open().executemany(sql, seq_of_params))

    def _open(self) -> Any:
        if self._closed:
            raise ConnectionClosedError("cursor is closed")
        return self.connection

    def _refill(self, other: "QueryResult") -> "QueryResult":
        for name in _STATE:
            setattr(self, name, getattr(other, name))
        return self

    def close(self) -> None:
        self._rows = iter(())
        self._produce = self._args = None
        self._closed = True

    def __enter__(self) -> "QueryResult":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: what :meth:`QueryResult.execute` copies from a fresh result
_STATE = tuple(name for name in QueryResult.__slots__ if name != "_closed")


def execute_ddl(database: "Database", stmt: ast.Statement) -> QueryResult:
    """Execute CREATE TABLE / DROP TABLE / CREATE INDEX / TRUNCATE."""
    if isinstance(stmt, ast.CreateTableStatement):
        database.create_table_from_ast(stmt)
        return QueryResult(rowcount=0)
    if isinstance(stmt, ast.DropTableStatement):
        database.drop_table(stmt.table.name, if_exists=stmt.if_exists)
        return QueryResult(rowcount=0)
    if isinstance(stmt, ast.CreateIndexStatement):
        table = database.table(stmt.table.name)
        table.create_index(stmt.index_name, stmt.columns, unique=stmt.unique)
        database.bump_schema_version(stmt.table.name)
        if database.replication is not None:
            database.replication.publish([
                ("create_index", table.name, stmt.index_name,
                 tuple(stmt.columns), stmt.unique),
            ])
        return QueryResult(rowcount=0)
    if isinstance(stmt, ast.TruncateStatement):
        table = database.table(stmt.table.name)
        count = table.truncate()
        database.bump_schema_version(stmt.table.name)
        if database.replication is not None:
            database.replication.publish([("truncate", table.name)])
        return QueryResult(rowcount=count)
    raise UnsupportedSQLError(f"storage engine cannot execute {type(stmt).__name__}")


# ---------------------------------------------------------------------------
# Statement-shape helpers (plan compiler + test oracle)
# ---------------------------------------------------------------------------


def _freeze(value: Any) -> Any:
    if isinstance(value, (list, dict, set)):
        return str(value)
    return value


def _conjuncts(expr: ast.Expression) -> Iterator[ast.Expression]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _local_column(expr: ast.Expression, table: Table, exposed_name: str) -> str | None:
    if not isinstance(expr, ast.ColumnRef):
        return None
    if expr.table is not None and expr.table.lower() != exposed_name.lower():
        return None
    if not table.schema.has_column(expr.name):
        return None
    return table.schema.column(expr.name).name


def _equi_join_columns(condition: ast.Expression, right_name: str) -> tuple[ast.Expression, str] | None:
    """If the join condition is `left_expr = right.col`, return the pair."""
    if not (isinstance(condition, ast.BinaryOp) and condition.op == "="):
        return None
    left, right = condition.left, condition.right
    for a, b in ((left, right), (right, left)):
        if isinstance(b, ast.ColumnRef) and b.table and b.table.lower() == right_name.lower():
            if isinstance(a, ast.ColumnRef) and a.table and a.table.lower() == right_name.lower():
                continue
            return a, b.name
    return None


def _collect_aggregates(stmt: ast.SelectStatement) -> list[ast.FunctionCall]:
    seen: dict[str, ast.FunctionCall] = {}
    scopes: list[ast.Expression] = [item.expression for item in stmt.select_items]
    if stmt.having is not None:
        scopes.append(stmt.having)
    for item in stmt.order_by:
        scopes.append(item.expression)
    for scope in scopes:
        for node in scope.walk():
            if isinstance(node, ast.FunctionCall) and node.is_aggregate:
                seen.setdefault(format_expression(node), node)
    return list(seen.values())
