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

Tuple rows are the table's own row format (:class:`repro.storage.table.Table`):
one tuple of values in schema column order, read as it is stored.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Sequence

from ..exceptions import ColumnNotFoundError, ExecutionError
from ..sql import ast
from ..sql.formatter import format_expression
from .executor import _conjuncts
from .expression import (
    ARITHMETIC,
    UNKNOWN,
    _as_tvl,
    _cast,
    _compare_values,
    _like_match,
    _number,
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


#: declared column types whose stored values are exactly ``int`` or ``None``
#: (``_coerce_int`` in :mod:`repro.storage.types` turns bools, integral
#: floats and numeric strings into ``int`` on every write)
INT_TYPES = frozenset(("INT", "INTEGER", "BIGINT", "SMALLINT"))


class RowLayout:
    """Column-offset map for tuple rows of one FROM/JOIN chain.

    Each exposed table occupies a contiguous slot of offsets in the
    concatenated row tuple, in FROM-then-JOIN order. Resolution order:
    qualified exact match first, then a bare exact-name match with the
    leftmost table winning, then the case-insensitive fallback.
    ``int_offsets`` are the offsets of integer-family columns (``INT_TYPES``),
    ``not_null_offsets`` those of columns that never hold NULL in a row of
    this layout.
    """

    __slots__ = ("slots", "width", "int_offsets", "not_null_offsets")

    def __init__(self) -> None:
        self.slots: list[tuple[str, list[str], int]] = []
        self.width = 0
        self.int_offsets: set[int] = set()
        self.not_null_offsets: set[int] = set()

    def add(self, exposed: str, column_names: Sequence[str],
            type_names: Sequence[str] = (), not_null: Sequence[bool] = ()) -> int:
        base = self.width
        self.slots.append((exposed, list(column_names), base))
        self.width += len(column_names)
        self.int_offsets.update(base + i for i, name in enumerate(type_names)
                                if name in INT_TYPES)
        self.not_null_offsets.update(base + i for i, flag in enumerate(not_null) if flag)
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

    def aggregate_slot(self, call: ast.FunctionCall) -> int:
        """Where a group row ``(first row, aggregate values)`` holds ``call``."""
        key = format_expression(call)
        slot = self.agg_slots.get(key)  # empty outside "group" mode
        if slot is None:
            raise ExecutionError(f"aggregate {key} not available in this context")
        return slot

    def aggregate_getter(self, call: ast.FunctionCall) -> Getter:
        return aggregate_value(self.aggregate_slot(call))


def aggregate_value(slot: int) -> Getter:
    """The getter of a group row's aggregate value at ``slot``."""
    return lambda row, params: row[1][slot]


def column_offset(expr: ast.Expression, ctx: CompileContext) -> int | None:
    """The offset a bare column reference reads in a ``"scan"`` row, else
    None (any other expression, or a grouped / constant context)."""
    if ctx.mode != "scan" or not isinstance(expr, ast.ColumnRef):
        return None
    return ctx.layout.resolve(expr)


def int_column_offset(expr: ast.Expression, ctx: CompileContext) -> int | None:
    """:func:`column_offset` of an integer-family column, else None."""
    offset = column_offset(expr, ctx)
    return offset if offset in ctx.layout.int_offsets else None


def const_getter(expr: ast.Expression) -> Callable[[Sequence[Any]], Any] | None:
    """A params -> value getter when ``expr`` is constant for one
    execution (literal, placeholder, negated numeric literal)."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda params: value
    if isinstance(expr, ast.Placeholder):
        return operator.itemgetter(expr.index)  # no Python frame per bound value
    if (isinstance(expr, ast.UnaryOp) and expr.op == "-"
            and isinstance(expr.operand, ast.Literal)
            and isinstance(expr.operand.value, (int, float))):
        negated = -expr.operand.value
        return lambda params: negated
    return None


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
    arith = ARITHMETIC.get(op)
    if arith is not None:
        def g_arith(row: Any, params: Sequence[Any]) -> Any:
            lhs = left(row, params)
            rhs = right(row, params)
            if lhs is None or rhs is None:
                return None
            return arith(lhs, rhs)

        return g_arith
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
            if isinstance(value, str):
                value = _number(value, "-")
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
# Batched predicate evaluation (a plan's list stages)
# ---------------------------------------------------------------------------

#: a compiled batch filter: (rows, params) -> surviving rows
BatchFilter = Callable[[Sequence[Any], Sequence[Any]], list]


def compile_batch_predicate(expr: ast.Expression, ctx: CompileContext) -> BatchFilter:
    """Compile WHERE semantics over a list of rows: rows where the
    predicate is True survive, UNKNOWN/NULL filter out.

    Top-level AND conjuncts are compiled separately and run as stages in
    their written order, each on the rows the previous ones kept — 3VL
    conjunction under WHERE is True iff every conjunct is True, and a row
    meets a conjunct only if every earlier one held for it, as with a
    short-circuit ``and``. An integer range conjunct is its own stage
    (:func:`_int_range_kernel`); each run of other conjuncts is fused into
    one comprehension with native short-circuit ``and``.
    """
    stages: list[BatchFilter] = []
    run: list[Getter] = []
    for conjunct in _conjuncts(expr):
        predicate = compile_predicate(conjunct, ctx)
        kernel = _int_range_kernel(conjunct, predicate, ctx)
        if kernel is None:
            run.append(predicate)
            continue
        if run:
            stages.append(_fused_filter(run))
            run = []
        stages.append(kernel)
    if run:
        stages.append(_fused_filter(run))
    if len(stages) == 1:
        return stages[0]
    chained = tuple(stages)

    def staged_filter(rows: Sequence[Any], params: Sequence[Any]) -> list:
        for stage in chained:
            rows = stage(rows, params)
            if not rows:
                break
        return rows

    return staged_filter


#: the operator with its operands swapped (``5 < k`` is ``k > 5``)
_MIRRORED = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _int_range_kernel(conjunct: ast.Expression, predicate: Getter,
                      ctx: CompileContext) -> BatchFilter | None:
    """A batch kernel for ``intcol <op> const`` (either side) or ``intcol
    [NOT] BETWEEN const AND const``, where ``intcol`` is an integer-family
    column and ``const`` a literal or placeholder; None for anything else.

    Stored values there are ``int`` or ``None``, so when the bound(s) are
    exactly ``int`` at run time (not bool, float, str or NULL) native
    comparison is :func:`_compare_values`' answer and the list is filtered
    by one comprehension. Any other bound runs ``predicate``, the
    conjunct's closure, per row.
    """
    if isinstance(conjunct, ast.BetweenExpr):
        i = int_column_offset(conjunct.operand, ctx)
        low, high = const_getter(conjunct.low), const_getter(conjunct.high)
        if i is None or low is None or high is None:
            return None
        negated = conjunct.negated

        def between_kernel(rows: Sequence[Any], params: Sequence[Any]) -> list:
            lo, hi = low(params), high(params)
            if lo.__class__ is not int or hi.__class__ is not int:
                return [r for r in rows if predicate(r, params)]
            if negated:
                return [r for r in rows if (v := r[i]) is not None and not lo <= v <= hi]
            return [r for r in rows if (v := r[i]) is not None and lo <= v <= hi]

        return between_kernel
    if not isinstance(conjunct, ast.BinaryOp) or conjunct.op not in _NATIVE_COMPARISONS:
        return None
    op = conjunct.op
    i, bound = int_column_offset(conjunct.left, ctx), const_getter(conjunct.right)
    if i is None or bound is None:
        i, bound = int_column_offset(conjunct.right, ctx), const_getter(conjunct.left)
        op = _MIRRORED.get(op, op)
    if i is None or bound is None:
        return None
    compare = _NATIVE_COMPARISONS[op]

    def compare_kernel(rows: Sequence[Any], params: Sequence[Any]) -> list:
        c = bound(params)
        if c.__class__ is not int:
            return [r for r in rows if predicate(r, params)]
        return [r for r in rows if (v := r[i]) is not None and compare(v, c)]

    return compare_kernel


def _fused_filter(preds: list[Getter]) -> BatchFilter:
    """One comprehension over the rows, the predicates joined by ``and``."""
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
