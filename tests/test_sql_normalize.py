"""Oracle for ``repro.sql.normalize`` — the engine's statement identity.

Three layers: (a) a table of what is and is not extracted; (b) a round
trip over generated statements — putting the extracted values back into
``parse(shape)`` must give the AST of ``parse(raw)``; (c) the scanner and
``tokenize`` agree on every token boundary, kind and literal value, so
the second lexer cannot drift from the first unnoticed.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SQLParseError
from repro.sql import ast, format_statement, normalize, parse, tokenize
from repro.sql.normalize import _TOKEN
from repro.sql.parser import _parse_number
from repro.sql.tokens import TokenType

from .test_clone_statement import CASES as CLONE_CASES

# ---------------------------------------------------------------------------
# (a) the rule, case by case
# ---------------------------------------------------------------------------

EXTRACTED = [
    ("SELECT c FROM t WHERE k = 42", "SELECT c FROM t WHERE k = ?", (42,)),
    ("SELECT c FROM t WHERE k<>1 AND k != 2 AND k < 3 AND k <= 4 AND k > 5 AND k >= 6",
     "SELECT c FROM t WHERE k<>? AND k != ? AND k < ? AND k <= ? AND k > ? AND k >= ?",
     (1, 2, 3, 4, 5, 6)),
    ("SELECT c FROM t WHERE c LIKE 'a%' AND d NOT LIKE '_b'",
     "SELECT c FROM t WHERE c LIKE ? AND d NOT LIKE ?", ("a%", "_b")),
    ("SELECT c FROM t WHERE k BETWEEN 1 AND 5 AND j NOT BETWEEN 2 AND 3 AND 7",
     "SELECT c FROM t WHERE k BETWEEN ? AND ? AND j NOT BETWEEN ? AND ? AND 7", (1, 5, 2, 3)),
    ("SELECT c FROM t WHERE k IN (1, 2, 3)", "SELECT c FROM t WHERE k IN (?, ?, ?)", (1, 2, 3)),
    ("SELECT c FROM t WHERE k IN (1, 2)", "SELECT c FROM t WHERE k IN (?, ?)", (1, 2)),  # arity is shape
    ("SELECT c FROM t WHERE k NOT IN (1, f(2), (3), 4)",
     "SELECT c FROM t WHERE k NOT IN (?, f(2), (3), ?)", (1, 4)),  # the list's own depth only
    ("SELECT c FROM t WHERE k = -5 AND j IN (-1, - 2)",
     "SELECT c FROM t WHERE k = -? AND j IN (-?, - ?)", (5, 1, 2)),  # unary minus stays
    ("UPDATE t SET k = k + 1, c = 'x', j = 7 WHERE id = 3",
     "UPDATE t SET k = k + 1, c = ?, j = ? WHERE id = ?", ("x", 7, 3)),
    ("DELETE FROM t WHERE id = 9", "DELETE FROM t WHERE id = ?", (9,)),
    ("select c from t where k between 1 and 2 and c like 'x'",
     "select c from t where k between ? and ? and c like ?", (1, 2, "x")),
    ("SELECT c FROM t GROUP BY c HAVING COUNT(*) > 3", "SELECT c FROM t GROUP BY c HAVING COUNT(*) > ?", (3,)),
    ("SELECT CASE WHEN k = 1 THEN 2 ELSE 3 END FROM t",
     "SELECT CASE WHEN k = ? THEN 2 ELSE 3 END FROM t", (1,)),  # the engine's AST check refuses it
    # strings: '' escapes, and content that looks like syntax
    ("SELECT c FROM t WHERE c = 'it''s' AND d = '' AND e = ''''",
     "SELECT c FROM t WHERE c = ? AND d = ? AND e = ?", ("it's", "", "'")),
    ("SELECT c FROM t WHERE c = 'a ? b' AND d = '-- 1' AND e = '/* 2 */ 3' AND k = 4",
     "SELECT c FROM t WHERE c = ? AND d = ? AND e = ? AND k = ?", ("a ? b", "-- 1", "/* 2 */ 3", 4)),
    # numbers: exponent, leading / trailing dot, leading zeros; int vs float vs str
    ("SELECT c FROM t WHERE a = 1e3 AND b = .5 AND c = 1. AND d = 2.5E-2 AND e = 007 AND f = '7'",
     "SELECT c FROM t WHERE a = ? AND b = ? AND c = ? AND d = ? AND e = ? AND f = ?",
     (1000.0, 0.5, 1.0, 0.025, 7, "7")),
    # comments and quoted identifiers are not code
    ("SELECT c FROM t WHERE /* k = 1 */ k = 2 -- AND j = 3\n AND j = /* 4 */ 5",
     "SELECT c FROM t WHERE /* k = 1 */ k = ? -- AND j = 3\n AND j = /* 4 */ ?", (2, 5)),
    ("SELECT `c 1`, \"d'2\", [e 3] FROM `t 4` WHERE `k = 5` = 6 AND \"j'7\" = 8 AND [i 9] = '['",
     "SELECT `c 1`, \"d'2\", [e 3] FROM `t 4` WHERE `k = 5` = ? AND \"j'7\" = ? AND [i 9] = ?",
     (6, 8, "[")),
    ("/* hello */ SELECT c FROM t WHERE k = 1", "/* hello */ SELECT c FROM t WHERE k = ?", (1,)),
]

NEVER_EXTRACTED = [
    "SELECT c FROM t LIMIT 10",
    "SELECT c FROM t LIMIT 10 OFFSET 5",
    "SELECT c FROM t LIMIT 5, 10",
    "SELECT c FROM t ORDER BY 1",
    "SELECT c, COUNT(*) FROM t GROUP BY 1 ORDER BY 2 DESC",
    "SELECT 1, 'x', c FROM t",
    "SELECT COALESCE(c, 0), ROUND(k, 2), SUBSTR(c, 1, 3) FROM t",
    "SELECT c FROM t WHERE f(1) IS NULL AND c IS NOT NULL",
    "SELECT c FROM t WHERE k = NULL OR k = TRUE OR k = FALSE",
    "UPDATE t SET k = k + 1",
    "SELECT c FROM t WHERE k + 1 > j AND 5 < k AND (3) = k",
    "SELECT c FROM t WHERE k <=> 1",
    "SELECT c FROM t -- WHERE k = 1",
    "SELECT c FROM t /* WHERE k = 1 */",
    "SELECT `k = 1`, \"k = 2\", [k = 3] FROM t",
    # not SELECT / UPDATE / DELETE: byte for byte
    "INSERT INTO t (a, b) VALUES (1, 'x')",
    "CREATE TABLE t (id INT PRIMARY KEY, k INT DEFAULT 5)",
    "SET VARIABLE plan_cache = 1",
    "SHOW SHARDING TABLE RULES",
    "PREVIEW SELECT c FROM t WHERE k = 1",
    "BEGIN",
    "selectx FROM t WHERE k = 1",
    # what the scanner cannot read like the lexer, it leaves alone
    "SELECT c FROM t WHERE c = 'unterminated AND k = 1",
    "SELECT c FROM t WHERE k = 1 /* unterminated",
    "SELECT c FROM t WHERE `k = 1",
    "SELECT c FROM café WHERE k = 1",
    "SELECT c FROM t WHERE k = 1 AND c = #",
]


@pytest.mark.parametrize("raw, shape, values", EXTRACTED)
def test_extracted(raw, shape, values):
    got_shape, got_values = normalize(raw, ())
    assert (got_shape, got_values) == (shape, values)
    assert [type(v) for v in got_values] == [type(v) for v in values]
    assert normalize(raw)[0] == shape  # the params-free lookup form
    assert normalize(shape)[0] is shape  # a shape is its own shape


@pytest.mark.parametrize("raw", NEVER_EXTRACTED)
def test_never_extracted(raw):
    params = ()
    shape, values = normalize(raw, params)
    assert shape is raw and values is params


def test_after_limit_nothing_is_extracted():
    # OFFSET's operand follows a keyword, but so would `LIMIT 5 = 5`
    raw = "SELECT c FROM t WHERE k = 1 LIMIT 2 OFFSET 3"
    assert normalize(raw, ()) == ("SELECT c FROM t WHERE k = ? LIMIT 2 OFFSET 3", (1,))


def test_caller_params_merge_in_textual_order():
    raw = "UPDATE t SET a = ?, b = 5 WHERE c = ? AND d IN (6, ?, 'x') AND e = ? LIMIT ?"
    shape, values = normalize(raw, ("p0", "p1", "p2", "p3", "p4"))
    assert shape == "UPDATE t SET a = ?, b = ? WHERE c = ? AND d IN (?, ?, ?) AND e = ? LIMIT ?"
    assert values == ("p0", 5, "p1", 6, "p2", "x", "p3", "p4")
    # without params only the literals come back
    assert normalize(raw) == (shape, (5, 6, "x"))


@pytest.mark.parametrize("params", [(), (1,), (1, 2, 3)])
def test_wrong_number_of_params_passes_through(params):
    raw = "SELECT c FROM t WHERE a = ? AND b = 5 AND c = ?"
    assert normalize(raw, params) == (raw, params)
    assert normalize(raw, params)[0] is raw


def test_digest_mode_takes_every_literal_of_any_statement():
    assert normalize("INSERT INTO t (a, b) VALUES (1, 'x''y')", every=True) == (
        "INSERT INTO t (a, b) VALUES (?, ?)", (1, "x'y"))
    assert normalize("SELECT 1, f(2) FROM t1 WHERE `k 3` = -4 ORDER BY 5 LIMIT 6 -- 7",
                     every=True)[0] == "SELECT ?, f(?) FROM t1 WHERE `k 3` = -? ORDER BY ? LIMIT ? -- 7"
    # unknown characters do not stop it: a digest is best effort
    assert normalize("SELECT c FROM café WHERE k = 1", every=True)[0] == (
        "SELECT c FROM café WHERE k = ?")


# ---------------------------------------------------------------------------
# generated statements
# ---------------------------------------------------------------------------

_column = st.sampled_from(["id", "k", "c", "u.uid", "t1.c2", "`c 1`", '"d\'2"', "[e 3]", "name9"])
_number = st.one_of(
    st.integers(min_value=0, max_value=10**7).map(str),
    st.sampled_from(["0", "007", "1.5", ".5", "1.", "1e3", "2.5E-2", "1.e2", "12E+1"]),
)
_string = st.text(alphabet="ab ?-'1%_/*", max_size=6).map(
    lambda s: "'" + s.replace("'", "''") + "'")
_literal = st.one_of(_number, _string)
_value = st.one_of(
    _literal, _literal, st.just("?"), _number.map(lambda n: "-" + n),
    st.sampled_from(["NULL", "TRUE", "FALSE", "k + 1", "1 + k", "f(1, 'a')", "(2)", "u.uid"]),
)
_gap = st.sampled_from([" ", " ", " ", "  ", "\n", " /* 5 = 5 */ ", " -- k = 1\n"])
_comparison = st.sampled_from(["=", "<>", "!=", "<", "<=", ">", ">=", "<=>", " LIKE ", " NOT LIKE "])


@st.composite
def _predicate(draw, depth=0):
    kind = draw(st.integers(min_value=0, max_value=8 if depth < 2 else 5))
    column, gap = draw(_column), draw(_gap)
    if kind == 0:
        return f"{column}{gap}{draw(_comparison)}{gap}{draw(_value)}"
    if kind == 1:
        negated = draw(st.sampled_from(["", "NOT "]))
        return f"{column} {negated}BETWEEN{gap}{draw(_value)}{gap}AND {draw(_value)}"
    if kind == 2:
        items = ", ".join(draw(st.lists(_value, min_size=1, max_size=4)))
        return f"{column} {draw(st.sampled_from(['', 'NOT ']))}IN{gap}({items})"
    if kind == 3:
        return f"{column} IS {draw(st.sampled_from(['', 'NOT ']))}NULL"
    if kind == 4:
        return f"{draw(_value)} {draw(_comparison)} {column}"
    if kind == 5:
        return f"COUNT(*) > {draw(_value)}"
    if kind == 6:
        return f"({draw(_predicate(depth + 1))}{gap}OR {draw(_predicate(depth + 1))})"
    if kind == 7:
        return f"NOT {draw(_predicate(depth + 1))}"
    return f"CASE WHEN {draw(_predicate(depth + 1))} THEN 1 ELSE 'n' END = {draw(_value)}"


@st.composite
def _condition(draw):
    parts = draw(st.lists(_predicate(), min_size=1, max_size=3))
    text = parts[0]
    for part in parts[1:]:
        text += draw(st.sampled_from([" AND ", " OR ", "\nAND "])) + part
    return text


@st.composite
def statements(draw):
    """SELECT / UPDATE / DELETE texts the parser accepts, literals and
    placeholders in every position the grammar has one."""
    gap = draw(_gap)
    where = draw(st.one_of(st.just(""), _condition().map(lambda c: f"{gap}WHERE {c}")))
    kind = draw(st.sampled_from(["select", "select", "update", "delete"]))
    if kind == "update":
        sets = ", ".join(
            f"{draw(st.sampled_from(['c', 'k', '`c 1`']))} = {draw(_value)}"
            for _ in range(draw(st.integers(min_value=1, max_value=3))))
        return f"UPDATE t1 SET {sets}{where}"
    if kind == "delete":
        return f"DELETE FROM t1{where}"
    items = ", ".join(draw(st.lists(st.one_of(
        _column, _value, st.sampled_from(["*", "COUNT(*)", "SUM(k) AS s", "k = 5 AS e"]),
    ), min_size=1, max_size=3)))
    join = draw(st.one_of(st.just(""), _condition().map(lambda c: f" JOIN t2 u ON {c}")))
    group = draw(st.sampled_from(["", " GROUP BY c", " GROUP BY 1"]))
    having = draw(st.one_of(st.just(""), _condition().map(lambda c: f" HAVING {c}")))
    order = draw(st.sampled_from(["", " ORDER BY 1", " ORDER BY c DESC, 2", " ORDER BY k + 1"]))
    limit = draw(st.sampled_from(["", " LIMIT 10", " LIMIT 10 OFFSET 3", " LIMIT 2, 5", " LIMIT ?"]))
    return f"SELECT{gap}{items} FROM t1{join}{where}{group}{having}{order}{limit}"


#: token soup: mostly not SQL, to exercise the pass-through and the lexers
soup = st.lists(
    st.one_of(
        _literal, _column,
        st.sampled_from([
            "SELECT", "FROM", "WHERE", "AND", "OR", "IN", "BETWEEN", "LIKE", "LIMIT", "NOT",
            "=", "<", ">=", "<>", "<=>", "-", "--", "+", "*", "/", "/*", "*/", "||", "%",
            "(", ")", ",", ".", ";", "?", "'", "`", '"', "[", "]", "\n", "é", "#", "1e", "e5",
            ".", "..", "1.2.3", "9a", "_x", "0x1F",
        ]),
    ),
    max_size=14,
).flatmap(lambda parts: st.lists(
    st.sampled_from(["", " ", " ", "\n"]), min_size=len(parts), max_size=len(parts),
).map(lambda gaps: "SELECT " + "".join(p + g for p, g in zip(parts, gaps))))


class _Caller:
    """Stands for the caller's n-th parameter in a round trip."""

    def __init__(self, index):
        self.index = index


def _substitute(node, values):
    """``node`` with every Placeholder replaced by what ``values`` holds
    for it: a literal, or the caller's placeholder under its own number."""
    if isinstance(node, ast.Placeholder):
        value = values[node.index]
        if isinstance(value, _Caller):
            return ast.Placeholder(value.index)
        return ast.Literal(value)
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        for field in dataclasses.fields(node):
            setattr(node, field.name, _substitute(getattr(node, field.name), values))
        return node
    if isinstance(node, (list, tuple)):
        return type(node)(_substitute(item, values) for item in node)
    return node


def _round_trip(raw):
    """(b): normalise, parse the shape, put the values back, compare.
    False when the text has nothing to extract."""
    callers = tuple(
        _Caller(i) for i in range(sum(t.type is TokenType.PLACEHOLDER for t in tokenize(raw))))
    shape, values = normalize(raw, callers)
    if shape is raw:
        assert values is callers
        return False
    assert len(values) == sum(t.type is TokenType.PLACEHOLDER for t in tokenize(shape))
    assert [v.index for v in values if isinstance(v, _Caller)] == list(range(len(callers)))
    restored = _substitute(parse(shape), values)
    original = parse(raw)
    assert restored == original
    assert format_statement(restored) == format_statement(original)
    assert normalize(shape)[0] is shape
    return True


@pytest.mark.parametrize("raw", [case[0] for case in EXTRACTED])
def test_round_trip_table(raw):
    assert _round_trip(raw)


@pytest.mark.parametrize("raw", CLONE_CASES)
def test_round_trip_prepared_corpus(raw):
    _round_trip(raw)


@settings(max_examples=400, deadline=None)
@given(raw=statements())
def test_round_trip_generated(raw):
    parse(raw)  # the generator's contract: valid SQL
    _round_trip(raw)


@settings(max_examples=300, deadline=None)
@given(raw=soup)
def test_round_trip_soup(raw):
    try:
        parse(raw)
    except SQLParseError:
        normalize(raw, ())  # must not raise whatever the text
        return
    _round_trip(raw)


# ---------------------------------------------------------------------------
# (c) one idea of what a token is
# ---------------------------------------------------------------------------

_KINDS = {
    TokenType.KEYWORD: {"word", "key"},
    TokenType.IDENTIFIER: {"word", "quoted"},
    TokenType.NUMBER: {"number"},
    TokenType.STRING: {"string"},
    TokenType.OPERATOR: {"op"},
    TokenType.PUNCTUATION: {"punct"},
    TokenType.PLACEHOLDER: {"param"},
}


def _assert_same_tokens(raw):
    scanned = [m for m in _TOKEN.finditer(raw) if m.lastgroup != "skip"]
    try:
        tokens = tokenize(raw)[:-1]
    except SQLParseError:
        # what the lexer refuses, the scanner must not claim to understand
        assert any(m.lastgroup == "unknown" for m in scanned)
        assert normalize(raw, ())[0] is raw
        return
    if any(m.lastgroup == "unknown" for m in scanned):
        assert normalize(raw, ())[0] is raw  # lexer is more lenient (non-ASCII): leave alone
        return
    assert [m.start(m.lastgroup) for m in scanned] == [t.position for t in tokens]
    for match, token in zip(scanned, tokens):
        kind, text = match.lastgroup, match.group(match.lastgroup)
        assert kind in _KINDS[token.type], (kind, token)
        if kind == "number":
            assert text == token.value
            assert _parse_number(text) == _parse_number(token.value)
        elif kind == "string":
            assert text[1:-1].replace("''", "'") == token.value
        elif kind == "quoted":
            assert text[1:-1] == token.value
        elif kind in ("word", "key"):
            assert text.upper() == token.value.upper()
            # the words the scanner gives meaning to are the lexer's keywords
            assert (kind == "key") == (token.value in (
                "LIKE", "IN", "BETWEEN", "AND", "LIMIT", "OFFSET")
                and token.type is TokenType.KEYWORD)
        else:
            assert text == token.value


@pytest.mark.parametrize(
    "raw", [case[0] for case in EXTRACTED] + NEVER_EXTRACTED + CLONE_CASES)
def test_tokens_agree_table(raw):
    _assert_same_tokens(raw)


@settings(max_examples=400, deadline=None)
@given(raw=st.one_of(statements(), soup))
def test_tokens_agree_generated(raw):
    _assert_same_tokens(raw)
