"""Typed abstract syntax tree for the SQL subset the engine supports.

All nodes are frozen-ish dataclasses (mutable where the rewriter needs to
patch them). Expression nodes are compiled to closures by
:mod:`repro.storage.compiler`; statement nodes are consumed by the storage
plan compiler and by the sharding pipeline (context extraction, routing,
rewriting, merging).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expression:
    """Base class for expression nodes."""

    def walk(self) -> Iterator["Expression"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def children(self) -> tuple["Expression", ...]:
        return ()


@dataclass
class Literal(Expression):
    """A constant value: number, string, boolean or NULL."""

    value: Any


@dataclass
class Placeholder(Expression):
    """A ``?`` parameter marker; ``index`` is its ordinal (0-based)."""

    index: int


@dataclass
class ColumnRef(Expression):
    """A possibly-qualified column reference, e.g. ``u.uid`` or ``name``."""

    name: str
    table: str | None = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass
class Star(Expression):
    """``*`` or ``table.*`` in a select list or COUNT(*)."""

    table: str | None = None


@dataclass
class BinaryOp(Expression):
    """A binary operation: comparison, arithmetic, AND/OR, LIKE."""

    op: str
    left: Expression
    right: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)


@dataclass
class UnaryOp(Expression):
    """NOT or unary minus."""

    op: str
    operand: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass
class InExpr(Expression):
    """``column IN (v1, v2, ...)`` (or NOT IN)."""

    operand: Expression
    items: list[Expression]
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand, *self.items)


@dataclass
class BetweenExpr(Expression):
    """``column BETWEEN low AND high`` (or NOT BETWEEN)."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand, self.low, self.high)


@dataclass
class IsNullExpr(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass
class FunctionCall(Expression):
    """A function call; aggregates are COUNT/SUM/AVG/MIN/MAX."""

    name: str
    args: list[Expression]
    distinct: bool = False

    AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

    @property
    def is_aggregate(self) -> bool:
        return self.name.upper() in self.AGGREGATES

    def children(self) -> tuple[Expression, ...]:
        return tuple(self.args)


@dataclass
class CaseExpr(Expression):
    """``CASE WHEN cond THEN value ... [ELSE value] END``."""

    whens: list[tuple[Expression, Expression]]
    default: Expression | None = None

    def children(self) -> tuple[Expression, ...]:
        out: list[Expression] = []
        for cond, value in self.whens:
            out.append(cond)
            out.append(value)
        if self.default is not None:
            out.append(self.default)
        return tuple(out)


# --------------------------------------------------------------------------
# Statement building blocks
# --------------------------------------------------------------------------


@dataclass
class TableRef:
    """A table reference with optional alias."""

    name: str
    alias: str | None = None

    @property
    def exposed_name(self) -> str:
        """The name visible to the rest of the query (alias wins)."""
        return self.alias or self.name


@dataclass
class Join:
    """A join clause attached to the FROM table."""

    table: TableRef
    kind: str = "INNER"  # INNER, LEFT, RIGHT, CROSS
    condition: Expression | None = None


@dataclass
class SelectItem:
    """One item in the select list: an expression with optional alias."""

    expression: Expression
    alias: str | None = None
    # Set by the rewriter when the column was derived (added for merging).
    derived: bool = False

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        expr = self.expression
        if isinstance(expr, ColumnRef):
            return expr.name
        if isinstance(expr, FunctionCall):
            inner = "*" if expr.args and isinstance(expr.args[0], Star) else ""
            if not inner and expr.args:
                arg = expr.args[0]
                inner = arg.name if isinstance(arg, ColumnRef) else "expr"
            return f"{expr.name.upper()}({inner})"
        if isinstance(expr, Star):
            return "*"
        return "expr"


@dataclass
class OrderByItem:
    expression: Expression
    desc: bool = False


@dataclass
class Limit:
    """LIMIT/OFFSET clause. Values may be literals or placeholders."""

    count: Expression | None = None
    offset: Expression | None = None


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


class Statement:
    """Base class for statements."""

    #: SQL statement category: DQL, DML, DDL, TCL, DAL.
    category = "DAL"
    #: the storage engine's plan-cache key (rendered SQL text); set by the
    #: middleware's rewrite templates and by ``Cursor``, never cloned
    storage_plan_key = None
    #: ``(database, schema epoch, storage plan)`` this statement last ran
    #: with (``repro.storage.connection.Connection._run``), never cloned
    bound_plan = None

    def tables(self) -> list[TableRef]:
        """All table references in the statement."""
        return []


@dataclass
class SelectStatement(Statement):
    category = "DQL"

    select_items: list[SelectItem] = field(default_factory=list)
    from_table: TableRef | None = None
    joins: list[Join] = field(default_factory=list)
    where: Expression | None = None
    group_by: list[Expression] = field(default_factory=list)
    having: Expression | None = None
    order_by: list[OrderByItem] = field(default_factory=list)
    limit: Limit | None = None
    distinct: bool = False
    for_update: bool = False

    def tables(self) -> list[TableRef]:
        out = []
        if self.from_table is not None:
            out.append(self.from_table)
        out.extend(j.table for j in self.joins)
        return out

    def aggregates(self) -> list[FunctionCall]:
        """Aggregate calls appearing in the select list."""
        found: list[FunctionCall] = []
        for item in self.select_items:
            for node in item.expression.walk():
                if isinstance(node, FunctionCall) and node.is_aggregate:
                    found.append(node)
        return found


@dataclass
class InsertStatement(Statement):
    category = "DML"

    table: TableRef = None  # type: ignore[assignment]
    columns: list[str] = field(default_factory=list)
    values_rows: list[list[Expression]] = field(default_factory=list)

    def tables(self) -> list[TableRef]:
        return [self.table]


@dataclass
class UpdateStatement(Statement):
    category = "DML"

    table: TableRef = None  # type: ignore[assignment]
    assignments: list[tuple[str, Expression]] = field(default_factory=list)
    where: Expression | None = None

    def tables(self) -> list[TableRef]:
        return [self.table]


@dataclass
class DeleteStatement(Statement):
    category = "DML"

    table: TableRef = None  # type: ignore[assignment]
    where: Expression | None = None

    def tables(self) -> list[TableRef]:
        return [self.table]


@dataclass
class ColumnDefinition:
    name: str
    type_name: str
    length: int | None = None
    not_null: bool = False
    primary_key: bool = False
    auto_increment: bool = False
    default: Any = None
    unique: bool = False


@dataclass
class CreateTableStatement(Statement):
    category = "DDL"

    table: TableRef = None  # type: ignore[assignment]
    columns: list[ColumnDefinition] = field(default_factory=list)
    primary_key: list[str] = field(default_factory=list)
    if_not_exists: bool = False

    def tables(self) -> list[TableRef]:
        return [self.table]


@dataclass
class DropTableStatement(Statement):
    category = "DDL"

    table: TableRef = None  # type: ignore[assignment]
    if_exists: bool = False

    def tables(self) -> list[TableRef]:
        return [self.table]


@dataclass
class CreateIndexStatement(Statement):
    category = "DDL"

    index_name: str = ""
    table: TableRef = None  # type: ignore[assignment]
    columns: list[str] = field(default_factory=list)
    unique: bool = False

    def tables(self) -> list[TableRef]:
        return [self.table]


@dataclass
class TruncateStatement(Statement):
    category = "DDL"

    table: TableRef = None  # type: ignore[assignment]

    def tables(self) -> list[TableRef]:
        return [self.table]


@dataclass
class BeginStatement(Statement):
    category = "TCL"


@dataclass
class CommitStatement(Statement):
    category = "TCL"


@dataclass
class RollbackStatement(Statement):
    category = "TCL"


@dataclass
class SetStatement(Statement):
    """``SET [VARIABLE] name = value`` (DAL)."""

    category = "DAL"

    name: str = ""
    value: Any = None


@dataclass
class ShowStatement(Statement):
    """``SHOW <subject>`` (DAL); subject is the raw remainder."""

    category = "DAL"

    subject: str = ""


def conjuncts(expr: Expression) -> list[Expression]:
    """The operands of ``expr``'s top-level AND chain, left to right."""
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


# --------------------------------------------------------------------------
# Fast cloning
# --------------------------------------------------------------------------
#
# The rewriter must mutate per-unit copies of the statement (actual table
# names, derived columns, revised pagination). copy.deepcopy dominates the
# per-statement cost on the OLTP fast path, so cloning is hand-rolled.


def clone_expression(expr: Expression) -> Expression:
    """Deep-clone an expression tree without copy.deepcopy overhead."""
    if isinstance(expr, Literal):
        return Literal(expr.value)
    if isinstance(expr, Placeholder):
        return Placeholder(expr.index)
    if isinstance(expr, ColumnRef):
        return ColumnRef(expr.name, expr.table)
    if isinstance(expr, Star):
        return Star(expr.table)
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, clone_expression(expr.left), clone_expression(expr.right))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, clone_expression(expr.operand))
    if isinstance(expr, InExpr):
        return InExpr(
            clone_expression(expr.operand),
            [clone_expression(i) for i in expr.items],
            expr.negated,
        )
    if isinstance(expr, BetweenExpr):
        return BetweenExpr(
            clone_expression(expr.operand),
            clone_expression(expr.low),
            clone_expression(expr.high),
            expr.negated,
        )
    if isinstance(expr, IsNullExpr):
        return IsNullExpr(clone_expression(expr.operand), expr.negated)
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name, [clone_expression(a) for a in expr.args], expr.distinct)
    if isinstance(expr, CaseExpr):
        return CaseExpr(
            [(clone_expression(c), clone_expression(v)) for c, v in expr.whens],
            clone_expression(expr.default) if expr.default is not None else None,
        )
    raise TypeError(f"cannot clone expression of type {type(expr).__name__}")


def _clone_table_ref(ref: TableRef | None) -> TableRef | None:
    if ref is None:
        return None
    return TableRef(ref.name, ref.alias)


def clone_statement(stmt: Statement) -> Statement:
    """Deep-clone a statement AST without copy.deepcopy overhead."""
    if isinstance(stmt, SelectStatement):
        out = SelectStatement(
            select_items=[
                SelectItem(clone_expression(i.expression), i.alias, i.derived)
                for i in stmt.select_items
            ],
            from_table=_clone_table_ref(stmt.from_table),
            joins=[
                Join(
                    _clone_table_ref(j.table),  # type: ignore[arg-type]
                    j.kind,
                    clone_expression(j.condition) if j.condition is not None else None,
                )
                for j in stmt.joins
            ],
            where=clone_expression(stmt.where) if stmt.where is not None else None,
            group_by=[clone_expression(e) for e in stmt.group_by],
            having=clone_expression(stmt.having) if stmt.having is not None else None,
            order_by=[OrderByItem(clone_expression(i.expression), i.desc) for i in stmt.order_by],
            limit=None,
            distinct=stmt.distinct,
            for_update=stmt.for_update,
        )
        if stmt.limit is not None:
            out.limit = Limit(
                clone_expression(stmt.limit.count) if stmt.limit.count is not None else None,
                clone_expression(stmt.limit.offset) if stmt.limit.offset is not None else None,
            )
        return out
    if isinstance(stmt, InsertStatement):
        return InsertStatement(
            table=_clone_table_ref(stmt.table),  # type: ignore[arg-type]
            columns=list(stmt.columns),
            values_rows=[[clone_expression(v) for v in row] for row in stmt.values_rows],
        )
    if isinstance(stmt, UpdateStatement):
        return UpdateStatement(
            table=_clone_table_ref(stmt.table),  # type: ignore[arg-type]
            assignments=[(c, clone_expression(e)) for c, e in stmt.assignments],
            where=clone_expression(stmt.where) if stmt.where is not None else None,
        )
    if isinstance(stmt, DeleteStatement):
        return DeleteStatement(
            table=_clone_table_ref(stmt.table),  # type: ignore[arg-type]
            where=clone_expression(stmt.where) if stmt.where is not None else None,
        )
    if isinstance(stmt, CreateTableStatement):
        return CreateTableStatement(
            table=_clone_table_ref(stmt.table),  # type: ignore[arg-type]
            columns=[
                ColumnDefinition(
                    c.name, c.type_name, c.length, c.not_null, c.primary_key,
                    c.auto_increment, c.default, c.unique,
                )
                for c in stmt.columns
            ],
            primary_key=list(stmt.primary_key),
            if_not_exists=stmt.if_not_exists,
        )
    if isinstance(stmt, DropTableStatement):
        return DropTableStatement(table=_clone_table_ref(stmt.table), if_exists=stmt.if_exists)  # type: ignore[arg-type]
    if isinstance(stmt, CreateIndexStatement):
        return CreateIndexStatement(
            index_name=stmt.index_name,
            table=_clone_table_ref(stmt.table),  # type: ignore[arg-type]
            columns=list(stmt.columns),
            unique=stmt.unique,
        )
    if isinstance(stmt, TruncateStatement):
        return TruncateStatement(table=_clone_table_ref(stmt.table))  # type: ignore[arg-type]
    if isinstance(stmt, BeginStatement):
        return BeginStatement()
    if isinstance(stmt, CommitStatement):
        return CommitStatement()
    if isinstance(stmt, RollbackStatement):
        return RollbackStatement()
    if isinstance(stmt, SetStatement):
        return SetStatement(name=stmt.name, value=stmt.value)
    if isinstance(stmt, ShowStatement):
        return ShowStatement(subject=stmt.subject)
    raise TypeError(f"cannot clone statement of type {type(stmt).__name__}")


def fingerprint_statement(stmt: Statement) -> str:
    """Stable structural fingerprint of a statement AST.

    The plan cache records a fingerprint at compile time so tests (and
    debugging) can assert that a cached, shared AST was never mutated by
    a downstream stage — the invariant the whole cache rests on.
    """
    import hashlib

    from .formatter import format_statement

    digest = hashlib.sha256(format_statement(stmt).encode("utf-8"))
    return digest.hexdigest()[:16]
