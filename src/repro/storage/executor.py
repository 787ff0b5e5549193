"""What every storage statement shares: the result type, DDL, AST helpers.

SELECT / INSERT / UPDATE / DELETE run as compiled plans
(:mod:`repro.storage.plans`, the only executor of DQL/DML). This module
holds the :class:`QueryResult` they return, the execution of the
statements that have no plan (DDL and TRUNCATE), and the statement-shape
helpers the plan compiler and the reference interpreter under
``tests/oracle`` both read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from ..exceptions import UnsupportedSQLError
from ..sql import ast
from ..sql.formatter import format_expression
from .table import Table

if TYPE_CHECKING:
    from .database import Database


@dataclass(slots=True)
class QueryResult:
    """Execution outcome: column metadata + streaming rows or a rowcount.

    ``cost`` is the priced simulated-I/O latency in seconds; the cursor
    books it after the database lock is released.
    """

    columns: list[str] = field(default_factory=list)
    rows: Iterator[tuple[Any, ...]] = iter(())
    rowcount: int = -1
    cost: float = 0.0
    #: the table whose write I/O this statement must serialize on (DML only)
    written_table: "Table | None" = None
    #: the write-I/O slice of ``cost`` — the portion a statement pipeline may
    #: coalesce into one payment per written table (group-commit analog)
    write_cost: float = 0.0
    #: seconds that must pass before this statement's I/O can start (an
    #: injected latency spike, an autocommit write's implicit commit, a
    #: COMMIT statement's commit, a network hop); set by ``Connection._run``,
    #: reserved and booked by the caller with ``cost``
    delay: float = 0.0
    #: the storage plan cache's status for this statement (``hit``,
    #: ``miss`` or ``bypass``); set by ``Connection._run``
    plan: str = ""

    def fetch_all(self) -> list[tuple[Any, ...]]:
        return list(self.rows)


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
