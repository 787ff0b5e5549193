"""Expression-to-closure compiler over tuple rows.

Compiles an expression once into a closure ``(row, params) -> value``
where ``row`` is the raw value tuple of a table row (or the concatenated
tuples of a join) and every column reference has been resolved to a fixed
offset at compile time.

The closures implement SQL's three-valued logic with the UNKNOWN
sentinel, NULL propagation rules per operator and MySQL-style cross-type
comparison; the reference interpreter under ``tests/oracle`` evaluates the
same expressions row by row and the differential tests hold the two
equal. Compiling is also where an expression is *validated*, from the
statement and the schema alone: an unknown column raises
:class:`ColumnNotFoundError`, an unknown function or operator
:class:`ExecutionError` — whether or not any row would ever reach it.

Tuple rows rely on an invariant of :meth:`TableSchema.normalize_row`:
row dicts are built by iterating ``schema.columns``, so
``tuple(raw.values())`` yields values in schema column order for every
row of a table, and updates/undo restores preserve that key order.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Sequence

from ..exceptions import ColumnNotFoundError, ExecutionError
from ..sql import ast
from ..sql.formatter import format_expression
from .expression import (
    UNKNOWN,
    _as_tvl,
    _cast,
    _compare_values,
    _like_match,
    _SCALAR_FUNCTIONS,
)

#: a compiled expression: (tuple_row, params) -> value (may be UNKNOWN)
Getter = Callable[[Any, Sequence[Any]], Any]


def _tvl(fn: "Getter") -> "Getter":
    """Mark a getter as returning strictly True/False/UNKNOWN (never None
    or a truthy non-bool), letting AND/OR/predicate wrappers skip
    :func:`_as_tvl` normalization."""
    fn.strict_tvl = True  # type: ignore[attr-defined]
    return fn


class RowLayout:
    """Column-offset map for tuple rows of one FROM/JOIN chain.

    Each exposed table occupies a contiguous slot of offsets in the
    concatenated row tuple, in FROM-then-JOIN order. Resolution order:
    qualified exact match first, then a bare exact-name match with the
    leftmost table winning, then the case-insensitive fallback.
    """

    __slots__ = ("slots", "width")

    def __init__(self) -> None:
        self.slots: list[tuple[str, list[str], int]] = []
        self.width = 0

    def add(self, exposed: str, column_names: Sequence[str]) -> int:
        base = self.width
        self.slots.append((exposed, list(column_names), base))
        self.width += len(column_names)
        return base

    def resolve(self, ref: ast.ColumnRef) -> int:
        name = ref.name
        if ref.table:
            for exposed, cols, base in self.slots:
                if exposed == ref.table:
                    for i, col in enumerate(cols):
                        if col == name:
                            return base + i
        for exposed, cols, base in self.slots:
            for i, col in enumerate(cols):
                if col == name:
                    return base + i
        lower = name.lower()
        prefix = ref.table.lower() + "." if ref.table else None
        for exposed, cols, base in self.slots:
            for i, col in enumerate(cols):
                if col.lower() == lower:
                    if prefix is None or f"{exposed}.{col}".lower().startswith(prefix):
                        return base + i
        raise ColumnNotFoundError(f"column {ref.qualified!r} not found in row")


class CompileContext:
    """Resolution environment for one compilation pass.

    ``mode`` selects the row shape the closures will see:

    - ``"scan"``: rows are plain value tuples laid out by ``layout``;
    - ``"group"``: rows are ``(sample_tuple_or_None, agg_values)`` pairs
      produced by the aggregation stage — column refs read the sample
      (raising when aggregation had no input row), aggregate calls read
      their computed slot;
    - ``"const"``: no row at all (LIMIT bounds, INSERT values, SELECT
      without FROM) — any column reference is unknown.

    ``param_count`` records the highest placeholder index seen + 1 so the
    plan can refuse binds with too few parameters before it runs.
    """

    __slots__ = ("mode", "layout", "agg_slots", "param_count")

    def __init__(self, mode: str, layout: RowLayout | None = None,
                 agg_slots: dict[str, int] | None = None):
        self.mode = mode
        self.layout = layout
        self.agg_slots = agg_slots or {}
        self.param_count = 0

    def note_param(self, index: int) -> None:
        if index + 1 > self.param_count:
            self.param_count = index + 1

    def column_getter(self, ref: ast.ColumnRef) -> Getter:
        if self.mode == "scan":
            offset = self.layout.resolve(ref)
            return lambda row, params, _i=offset: row[_i]
        if self.mode == "group":
            offset = self.layout.resolve(ref)
            qualified = ref.qualified

            def getter(row: Any, params: Sequence[Any], _i=offset) -> Any:
                sample = row[0]
                if sample is None:
                    raise ColumnNotFoundError(
                        f"column {qualified!r} not found in row"
                    )
                return sample[_i]

            return getter
        raise ColumnNotFoundError(f"column {ref.qualified!r} not found in row")

    def aggregate_getter(self, call: ast.FunctionCall) -> Getter:
        key = format_expression(call)
        slot = self.agg_slots.get(key)  # empty outside "group" mode
        if slot is None:
            raise ExecutionError(f"aggregate {key} not available in this context")
        return lambda row, params, _i=slot: row[1][_i]


# ---------------------------------------------------------------------------
# Scalar compilation
# ---------------------------------------------------------------------------


def compile_scalar(expr: ast.Expression, ctx: CompileContext) -> Getter:
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row, params: value
    if isinstance(expr, ast.Placeholder):
        index = expr.index
        ctx.note_param(index)
        return lambda row, params: params[index]
    if isinstance(expr, ast.ColumnRef):
        return ctx.column_getter(expr)
    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, ctx)
    if isinstance(expr, ast.UnaryOp):
        return _compile_unary(expr, ctx)
    if isinstance(expr, ast.InExpr):
        return _compile_in(expr, ctx)
    if isinstance(expr, ast.BetweenExpr):
        return _compile_between(expr, ctx)
    if isinstance(expr, ast.IsNullExpr):
        operand = compile_scalar(expr.operand, ctx)
        if expr.negated:
            return _tvl(lambda row, params: operand(row, params) is not None)
        return _tvl(lambda row, params: operand(row, params) is None)
    if isinstance(expr, ast.FunctionCall):
        return _compile_function(expr, ctx)
    if isinstance(expr, ast.CaseExpr):
        return _compile_case(expr, ctx)
    if isinstance(expr, ast.Star):
        raise ExecutionError("'*' is not a scalar expression")
    raise ExecutionError(f"cannot evaluate expression of type {type(expr).__name__}")


def compile_predicate(expr: ast.Expression, ctx: CompileContext) -> Getter:
    """Compile to WHERE semantics: a bool with UNKNOWN/NULL -> False."""
    getter = compile_scalar(expr, ctx)
    if getattr(getter, "strict_tvl", False):
        # The getter only ever returns True/False/UNKNOWN.
        return lambda row, params: getter(row, params) is True

    def predicate(row: Any, params: Sequence[Any]) -> bool:
        value = getter(row, params)
        if value is UNKNOWN or value is None:
            return False
        return bool(value)

    return predicate


_COMPARISONS = {
    "=": lambda c: c == 0,
    "<>": lambda c: c != 0,
    "!=": lambda c: c != 0,
    "<": lambda c: c < 0,
    ">": lambda c: c > 0,
    "<=": lambda c: c <= 0,
    ">=": lambda c: c >= 0,
}

#: operand types for which the native Python operator agrees with
#: ``_compare_values``: numbers compare numerically (bool is an int) and
#: two strings compare lexicographically — no cross-coercion involved.
_NATIVE_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}
_FAST_CMP_TYPES = frozenset((int, float, bool))

_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "||": lambda a, b: f"{a}{b}",
}


def _compile_binary(expr: ast.BinaryOp, ctx: CompileContext) -> Getter:
    op = expr.op
    left = compile_scalar(expr.left, ctx)
    right = compile_scalar(expr.right, ctx)
    if op == "AND":
        if getattr(left, "strict_tvl", False) and getattr(right, "strict_tvl", False):
            def g_and_tvl(row: Any, params: Sequence[Any]) -> Any:
                lhs = left(row, params)
                if lhs is False:
                    return False
                rhs = right(row, params)
                if rhs is False:
                    return False
                if lhs is UNKNOWN or rhs is UNKNOWN:
                    return UNKNOWN
                return True

            return _tvl(g_and_tvl)

        def g_and(row: Any, params: Sequence[Any]) -> Any:
            lhs = _as_tvl(left(row, params))
            if lhs is False:
                return False
            rhs = _as_tvl(right(row, params))
            if rhs is False:
                return False
            if lhs is UNKNOWN or rhs is UNKNOWN:
                return UNKNOWN
            return True

        return _tvl(g_and)
    if op == "OR":
        if getattr(left, "strict_tvl", False) and getattr(right, "strict_tvl", False):
            def g_or_tvl(row: Any, params: Sequence[Any]) -> Any:
                lhs = left(row, params)
                if lhs is True:
                    return True
                rhs = right(row, params)
                if rhs is True:
                    return True
                if lhs is UNKNOWN or rhs is UNKNOWN:
                    return UNKNOWN
                return False

            return _tvl(g_or_tvl)

        def g_or(row: Any, params: Sequence[Any]) -> Any:
            lhs = _as_tvl(left(row, params))
            if lhs is True:
                return True
            rhs = _as_tvl(right(row, params))
            if rhs is True:
                return True
            if lhs is UNKNOWN or rhs is UNKNOWN:
                return UNKNOWN
            return False

        return _tvl(g_or)
    if op == "<=>":
        def g_nullsafe(row: Any, params: Sequence[Any]) -> Any:
            lhs = left(row, params)
            rhs = right(row, params)
            if lhs is None or rhs is None:
                return lhs is None and rhs is None
            return _compare_values(lhs, rhs) == 0

        return _tvl(g_nullsafe)
    compare = _COMPARISONS.get(op)
    if compare is not None:
        native = _NATIVE_COMPARISONS[op]

        def g_cmp(row: Any, params: Sequence[Any]) -> Any:
            lhs = left(row, params)
            rhs = right(row, params)
            if lhs is None or rhs is None:
                return UNKNOWN
            tl = lhs.__class__
            tr = rhs.__class__
            if (tl in _FAST_CMP_TYPES and tr in _FAST_CMP_TYPES) or (
                tl is str and tr is str
            ):
                return native(lhs, rhs)
            return compare(_compare_values(lhs, rhs))

        return _tvl(g_cmp)
    if op == "LIKE":
        def g_like(row: Any, params: Sequence[Any]) -> Any:
            lhs = left(row, params)
            rhs = right(row, params)
            if lhs is None or rhs is None:
                return UNKNOWN
            return _like_match(str(lhs), str(rhs))

        return _tvl(g_like)
    arith = _ARITHMETIC.get(op)
    if arith is not None:
        def g_arith(row: Any, params: Sequence[Any]) -> Any:
            lhs = left(row, params)
            rhs = right(row, params)
            if lhs is None or rhs is None:
                return None
            return arith(lhs, rhs)

        return g_arith
    if op in ("/", "%"):
        modulo = op == "%"

        def g_div(row: Any, params: Sequence[Any]) -> Any:
            lhs = left(row, params)
            rhs = right(row, params)
            if lhs is None or rhs is None:
                return None
            if rhs == 0:
                return None  # SQL: division by zero yields NULL
            return lhs % rhs if modulo else lhs / rhs

        return g_div
    raise ExecutionError(f"unsupported binary operator {op!r}")


def _compile_unary(expr: ast.UnaryOp, ctx: CompileContext) -> Getter:
    operand = compile_scalar(expr.operand, ctx)
    if expr.op == "NOT":
        def g_not(row: Any, params: Sequence[Any]) -> Any:
            tvl = _as_tvl(operand(row, params))
            if tvl is UNKNOWN:
                return UNKNOWN
            return not tvl

        return _tvl(g_not)
    if expr.op == "-":
        def g_neg(row: Any, params: Sequence[Any]) -> Any:
            value = operand(row, params)
            if value is None:
                return None
            return -value

        return g_neg
    raise ExecutionError(f"unsupported unary operator {expr.op!r}")


def _compile_in(expr: ast.InExpr, ctx: CompileContext) -> Getter:
    operand = compile_scalar(expr.operand, ctx)
    items = tuple(compile_scalar(item, ctx) for item in expr.items)
    negated = expr.negated

    def g_in(row: Any, params: Sequence[Any]) -> Any:
        value = operand(row, params)
        if value is None:
            return UNKNOWN
        saw_null = False
        for item in items:
            candidate = item(row, params)
            if candidate is None:
                saw_null = True
                continue
            if _compare_values(value, candidate) == 0:
                return not negated
        if saw_null:
            return UNKNOWN
        return negated

    return _tvl(g_in)


def _compile_between(expr: ast.BetweenExpr, ctx: CompileContext) -> Getter:
    operand = compile_scalar(expr.operand, ctx)
    low = compile_scalar(expr.low, ctx)
    high = compile_scalar(expr.high, ctx)
    negated = expr.negated

    def g_between(row: Any, params: Sequence[Any]) -> Any:
        value = operand(row, params)
        lo = low(row, params)
        hi = high(row, params)
        if value is None or lo is None or hi is None:
            return UNKNOWN
        result = _compare_values(lo, value) <= 0 <= _compare_values(hi, value)
        return not result if negated else result

    return _tvl(g_between)


def _compile_function(expr: ast.FunctionCall, ctx: CompileContext) -> Getter:
    name = expr.name.upper()
    if expr.is_aggregate:
        return ctx.aggregate_getter(expr)
    if name == "CAST":
        value = compile_scalar(expr.args[0], ctx)
        target = expr.args[1].value if isinstance(expr.args[1], ast.Literal) else "CHAR"
        target = str(target)
        return lambda row, params: _cast(value(row, params), target)
    handler = _SCALAR_FUNCTIONS.get(name)
    if handler is None:
        raise ExecutionError(f"unsupported function {name!r}")
    arg_getters = tuple(compile_scalar(arg, ctx) for arg in expr.args)
    return lambda row, params: handler([g(row, params) for g in arg_getters])


def _compile_case(expr: ast.CaseExpr, ctx: CompileContext) -> Getter:
    whens = tuple(
        (compile_predicate(cond, ctx), compile_scalar(value, ctx))
        for cond, value in expr.whens
    )
    default = compile_scalar(expr.default, ctx) if expr.default is not None else None

    def g_case(row: Any, params: Sequence[Any]) -> Any:
        for cond, value in whens:
            if cond(row, params):
                return value(row, params)
        if default is not None:
            return default(row, params)
        return None

    return g_case


# ---------------------------------------------------------------------------
# Batched predicate evaluation (vectorized plan pipelines)
# ---------------------------------------------------------------------------

#: a compiled batch filter: (rows, params) -> surviving rows
BatchFilter = Callable[[Sequence[Any], Sequence[Any]], list]


def _flatten_and(expr: ast.Expression) -> list[ast.Expression]:
    """Top-level AND conjuncts in left-to-right evaluation order."""
    out: list[ast.Expression] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.BinaryOp) and node.op == "AND":
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def compile_batch_predicate(expr: ast.Expression, ctx: CompileContext) -> BatchFilter:
    """Compile WHERE semantics over a whole chunk: rows where the
    predicate is True survive, UNKNOWN/NULL filter out.

    Top-level AND conjuncts are compiled separately and fused into a
    single comprehension with native short-circuit ``and`` — identical to
    3VL conjunction under WHERE (True iff every conjunct is True),
    evaluated left to right.
    """
    preds = [compile_predicate(c, ctx) for c in _flatten_and(expr)]
    if len(preds) == 1:
        p0 = preds[0]
        return lambda rows, params: [r for r in rows if p0(r, params)]
    if len(preds) == 2:
        p0, p1 = preds
        return lambda rows, params: [
            r for r in rows if p0(r, params) and p1(r, params)
        ]
    if len(preds) == 3:
        p0, p1, p2 = preds
        return lambda rows, params: [
            r for r in rows if p0(r, params) and p1(r, params) and p2(r, params)
        ]
    fused = tuple(preds)

    def batch_filter(rows: Sequence[Any], params: Sequence[Any]) -> list:
        out = []
        append = out.append
        for r in rows:
            for p in fused:
                if not p(r, params):
                    break
            else:
                append(r)
        return out

    return batch_filter
