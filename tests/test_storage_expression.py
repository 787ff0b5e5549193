"""Unit + property tests for expression evaluation (three-valued logic).

Every case runs twice: through the reference interpreter's ``evaluate``
(``tests/oracle``) and through the closure ``compile_scalar`` builds for
the same expression over a tuple row; ``ev`` returns the value only after
the two agree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ColumnNotFoundError, StorageError
from repro.sql import parse_expression
from repro.storage.compiler import CompileContext, RowLayout, compile_scalar
from repro.storage.expression import UNKNOWN, sort_key

from .oracle.storage_interpreter import evaluate, is_truthy


def _tuple_row(row):
    """The dict row of a case as (layout, value tuple) of one table: bare
    keys are its columns, a ``t.col`` key names the table (and adds the
    column when no bare twin exists)."""
    exposed, columns = "t", {}
    for key, value in row.items():
        table, _, column = key.rpartition(".")
        if table:
            exposed = table
        columns.setdefault(column, value)
    layout = RowLayout()
    layout.add(exposed, list(columns))
    return layout, tuple(columns.values())


def _outcome(compute):
    try:
        return compute()
    except StorageError as exc:
        return type(exc)


def ev(text, row=None, params=()):
    expr = parse_expression(text)
    row = row or {}
    layout, values = _tuple_row(row)
    interpreted = _outcome(lambda: evaluate(expr, row, params))
    compiled = _outcome(
        lambda: compile_scalar(expr, CompileContext("scan", layout))(values, params))
    if isinstance(interpreted, bool) or interpreted is None or interpreted is UNKNOWN:
        assert compiled is interpreted, text
    else:
        assert compiled == interpreted, text
    if isinstance(interpreted, type):
        raise interpreted(text)
    return interpreted


class TestArithmetic:
    def test_basic(self):
        assert ev("1 + 2 * 3") == 7
        assert ev("(1 + 2) * 3") == 9
        assert ev("10 / 4") == 2.5
        assert ev("10 % 3") == 1
        assert ev("-5 + 2") == -3

    def test_division_by_zero_is_null(self):
        assert ev("1 / 0") is None
        assert ev("1 % 0") is None

    def test_null_propagates(self):
        assert ev("NULL + 1") is None
        assert ev("-x", {"x": None}) is None

    def test_string_concat_operator(self):
        assert ev("'a' || 'b'") == "ab"


class TestComparisons:
    def test_numeric(self):
        assert ev("2 < 3") is True
        assert ev("3 <= 3") is True
        assert ev("2 > 3") is False
        assert ev("2 <> 3") is True

    def test_cross_type_numeric_string(self):
        assert ev("2 = '2'") is True
        assert ev("'10' > 9") is True

    def test_null_comparison_is_unknown(self):
        assert ev("NULL = 1") is UNKNOWN
        assert ev("x < 5", {"x": None}) is UNKNOWN

    def test_null_safe_equals(self):
        assert ev("NULL <=> NULL") is True
        assert ev("1 <=> NULL") is False
        assert ev("1 <=> 1") is True


class TestBooleanLogic:
    def test_and_short_circuit_false(self):
        # FALSE AND UNKNOWN -> FALSE
        assert ev("1 = 2 AND NULL = 1") is False

    def test_and_unknown(self):
        assert ev("1 = 1 AND NULL = 1") is UNKNOWN

    def test_or_short_circuit_true(self):
        assert ev("1 = 1 OR NULL = 1") is True

    def test_or_unknown(self):
        assert ev("1 = 2 OR NULL = 1") is UNKNOWN

    def test_not_unknown(self):
        assert ev("NOT NULL = 1") is UNKNOWN

    def test_is_truthy_collapses(self):
        assert is_truthy(UNKNOWN) is False
        assert is_truthy(None) is False
        assert is_truthy(1) is True


class TestPredicates:
    def test_in(self):
        assert ev("2 IN (1, 2, 3)") is True
        assert ev("9 IN (1, 2)") is False
        assert ev("9 NOT IN (1, 2)") is True

    def test_in_with_null_member(self):
        assert ev("9 IN (1, NULL)") is UNKNOWN
        assert ev("1 IN (1, NULL)") is True

    def test_between(self):
        assert ev("5 BETWEEN 1 AND 10") is True
        assert ev("0 BETWEEN 1 AND 10") is False
        assert ev("0 NOT BETWEEN 1 AND 10") is True
        assert ev("NULL BETWEEN 1 AND 2") is UNKNOWN

    def test_like(self):
        assert ev("'hello' LIKE 'he%'") is True
        assert ev("'hello' LIKE 'h_llo'") is True
        assert ev("'hello' LIKE 'x%'") is False
        assert ev("'HELLO' LIKE 'he%'") is True  # case-insensitive, MySQL-style

    def test_like_escapes_regex_chars(self):
        assert ev("'a.c' LIKE 'a.c'") is True
        assert ev("'abc' LIKE 'a.c'") is False

    def test_is_null(self):
        assert ev("NULL IS NULL") is True
        assert ev("1 IS NULL") is False
        assert ev("1 IS NOT NULL") is True


class TestFunctions:
    def test_scalars(self):
        assert ev("ABS(-4)") == 4
        assert ev("LOWER('AbC')") == "abc"
        assert ev("UPPER('x')") == "X"
        assert ev("LENGTH('abc')") == 3
        assert ev("ROUND(2.567, 1)") == 2.6
        assert ev("FLOOR(2.9)") == 2
        assert ev("CEIL(2.1)") == 3
        assert ev("MOD(7, 3)") == 1
        assert ev("CONCAT('a', 1, 'b')") == "a1b"
        assert ev("SUBSTRING('hello', 2, 3)") == "ell"

    def test_coalesce_ifnull(self):
        assert ev("COALESCE(NULL, NULL, 5)") == 5
        assert ev("IFNULL(NULL, 'd')") == "d"
        assert ev("IFNULL(1, 'd')") == 1

    def test_cast(self):
        assert ev("CAST('12' AS INT)") == 12
        assert ev("CAST(3 AS CHAR)") == "3"

    def test_case(self):
        assert ev("CASE WHEN 1 = 1 THEN 'y' ELSE 'n' END") == "y"
        assert ev("CASE WHEN 1 = 2 THEN 'y' END") is None


class TestColumnResolution:
    def test_bare_and_qualified(self):
        row = {"uid": 5, "u.uid": 5, "name": "x"}
        assert ev("uid + 1", row) == 6
        assert ev("u.uid", row) == 5

    def test_case_insensitive_fallback(self):
        assert ev("UID", {"uid": 3}) == 3

    def test_qualified_fallback_by_suffix(self):
        assert ev("t.v", {"t.v": 9}) == 9

    def test_missing_column_raises(self):
        with pytest.raises(ColumnNotFoundError):
            ev("ghost", {"uid": 1})

    def test_placeholder(self):
        assert ev("? + ?", {}, (2, 3)) == 5


class TestSortKey:
    def test_nulls_sort_first(self):
        values = [3, None, 1, None, 2]
        assert sorted(values, key=sort_key) == [None, None, 1, 2, 3]

    def test_mixed_numbers(self):
        assert sorted([2.5, 1, 3], key=sort_key) == [1, 2.5, 3]

    def test_strings_after_numbers(self):
        out = sorted(["b", 2, "a", 1], key=sort_key)
        assert out == [1, 2, "a", "b"]


# -- property-based --------------------------------------------------------

small_ints = st.integers(min_value=-1000, max_value=1000)


@settings(max_examples=80, deadline=None)
@given(a=small_ints, b=small_ints, c=small_ints)
def test_between_equivalent_to_comparisons(a, b, c):
    expected = (min(b, c) if b <= c else b) <= a <= c if b <= c else False
    got = ev(f"{a} BETWEEN {b} AND {c}")
    assert got == (b <= a <= c)


@settings(max_examples=80, deadline=None)
@given(value=small_ints, items=st.lists(small_ints, min_size=1, max_size=8))
def test_in_equivalent_to_membership(value, items):
    rendered = ", ".join(str(i) for i in items)
    assert ev(f"{value} IN ({rendered})") == (value in items)


@settings(max_examples=80, deadline=None)
@given(a=small_ints, b=small_ints)
def test_comparison_trichotomy(a, b):
    lt = ev(f"{a} < {b}")
    eq = ev(f"{a} = {b}")
    gt = ev(f"{a} > {b}")
    assert [lt, eq, gt].count(True) == 1
