"""Unit tests for the SQL tokenizer."""

import re
import time

import pytest

from repro.exceptions import SQLParseError
from repro.sql import Token, TokenType, leading_words, normalize, tokenize
from repro.sql.lexer import _HEAD, _TOKEN


def kinds(sql):
    return [(t.type, t.value) for t in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_keywords_are_uppercased(self):
        assert kinds("select from") == [
            (TokenType.KEYWORD, "SELECT"),
            (TokenType.KEYWORD, "FROM"),
        ]

    def test_identifier_preserves_case(self):
        assert kinds("t_User") == [(TokenType.IDENTIFIER, "t_User")]

    def test_integer_literal(self):
        assert kinds("42") == [(TokenType.NUMBER, "42")]

    def test_float_literal(self):
        assert kinds("3.14") == [(TokenType.NUMBER, "3.14")]

    def test_scientific_notation(self):
        assert kinds("1e5 2.5E-3") == [
            (TokenType.NUMBER, "1e5"),
            (TokenType.NUMBER, "2.5E-3"),
        ]

    def test_leading_dot_number(self):
        assert kinds(".5") == [(TokenType.NUMBER, ".5")]

    def test_placeholder(self):
        assert kinds("?") == [(TokenType.PLACEHOLDER, "?")]

    def test_eof_token_terminates(self):
        tokens = tokenize("SELECT")
        assert tokens[-1].type is TokenType.EOF


class TestStrings:
    def test_simple_string(self):
        assert kinds("'hello'") == [(TokenType.STRING, "hello")]

    def test_escaped_quote(self):
        assert kinds("'it''s'") == [(TokenType.STRING, "it's")]

    def test_empty_string(self):
        assert kinds("''") == [(TokenType.STRING, "")]

    def test_unterminated_string_raises(self):
        with pytest.raises(SQLParseError):
            tokenize("'oops")


class TestQuotedIdentifiers:
    def test_backtick(self):
        assert kinds("`order`") == [(TokenType.IDENTIFIER, "order")]

    def test_double_quote(self):
        assert kinds('"select"') == [(TokenType.IDENTIFIER, "select")]

    def test_brackets(self):
        assert kinds("[weird name]") == [(TokenType.IDENTIFIER, "weird name")]

    def test_unterminated_identifier_raises(self):
        with pytest.raises(SQLParseError):
            tokenize("`oops")


class TestOperatorsAndComments:
    def test_multi_char_operators_are_greedy(self):
        assert kinds("<= >= <> != <=>") == [
            (TokenType.OPERATOR, "<="),
            (TokenType.OPERATOR, ">="),
            (TokenType.OPERATOR, "<>"),
            (TokenType.OPERATOR, "!="),
            (TokenType.OPERATOR, "<=>"),
        ]

    def test_line_comment_skipped(self):
        assert kinds("1 -- comment\n2") == [
            (TokenType.NUMBER, "1"),
            (TokenType.NUMBER, "2"),
        ]

    def test_block_comment_skipped(self):
        assert kinds("1 /* x */ 2") == [
            (TokenType.NUMBER, "1"),
            (TokenType.NUMBER, "2"),
        ]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(SQLParseError):
            tokenize("1 /* nope")

    def test_unexpected_character_raises(self):
        with pytest.raises(SQLParseError) as info:
            tokenize("SELECT @")
        assert info.value.position == 7

    def test_positions_recorded(self):
        tokens = tokenize("SELECT a")
        assert tokens[0].position == 0
        assert tokens[1].position == 7

    def test_token_helpers(self):
        token = Token(TokenType.KEYWORD, "SELECT", 0)
        assert token.matches("SELECT", "INSERT")
        assert not token.matches("UPDATE")
        punct = Token(TokenType.PUNCTUATION, "(", 0)
        assert punct.is_punct("(")
        op = Token(TokenType.OPERATOR, "=", 0)
        assert op.is_op("=")


class TestErrors:
    """Each error class keeps its message and points at where it starts."""

    @pytest.mark.parametrize(
        "sql, message, position",
        [
            ("SELECT 'oops", "unterminated string literal", 7),
            ("SELECT 'it''s", "unterminated string literal", 7),
            ("SELECT 'a''' 'b", "unterminated string literal", 13),
            ("SELECT `oops", "unterminated quoted identifier", 7),
            ('SELECT "oops', "unterminated quoted identifier", 7),
            ("SELECT [oops", "unterminated quoted identifier", 7),
            ("SELECT 1 /* nope", "unterminated block comment", 9),
            ("SELECT @", "unexpected character '@'", 7),
            ("SELECT a ] b", "unexpected character ']'", 9),
        ],
    )
    def test_message_and_position(self, sql, message, position):
        with pytest.raises(SQLParseError) as info:
            tokenize(sql)
        assert str(info.value) == message
        assert info.value.position == position


class TestUnicode:
    """Words and whitespace are Unicode; the normaliser leaves such text alone."""

    def test_non_ascii_identifier(self):
        sql = "SELECT c FROM café WHERE k = 1"
        assert kinds(sql)[3] == (TokenType.IDENTIFIER, "café")
        assert normalize(sql, ()) == (sql, ())

    def test_no_break_space_is_whitespace(self):
        sql = "SELECT\u00a0c FROM t WHERE k = 1"
        assert kinds(sql)[:2] == [(TokenType.KEYWORD, "SELECT"), (TokenType.IDENTIFIER, "c")]
        assert normalize(sql, ()) == (sql, ())


class TestLeadingWords:
    @pytest.mark.parametrize(
        "sql, head",
        [
            ("select 1", ("SELECT", "")),
            ("  set variable x = 1", ("SET", "VARIABLE")),
            ("/* c */ BEGIN", ("BEGIN", "")),
            ("-- x\nROLLBACK;", ("ROLLBACK", "")),
            ("SHOW/* c */SHARDING TABLE RULES", ("SHOW", "SHARDING")),
            ("TRACE\n-- x\nSELECT 1", ("TRACE", "SELECT")),
            ("(SELECT 1)", ("", "")),
            ("SELECT1 x", ("SELECT1", "X")),
            ("/* unterminated BEGIN", ("", "")),
            ("-- c\n", ("", "")),  # a comment never gives up a word
            ("SELECT -- c\n ", ("SELECT", "")),
            ("/* a */ b */ c", ("B", "")),
            ("-- comment only", ("", "")),
            ("/* a */ 5 /* b */ x", ("", "")),
            ("SELECT /* a */ 5 /* b */ x", ("SELECT", "")),
            ("", ("", "")),
        ],
    )
    def test_first_two_words(self, sql, head):
        assert leading_words(sql) == head


class TestScanCost:
    def test_whitespace_tail_is_one_match(self):
        # a failed scan from every position of the tail would take seconds
        tail = " " * 5000
        started = time.perf_counter()
        tokens = tokenize("SELECT 1" + tail)
        assert [t.value for t in tokens] == ["SELECT", "1", ""]
        assert tokens[-1].position == 8 + len(tail)
        assert normalize("SELECT a FROM t WHERE k = 1" + tail, ())[1] == (1,)
        assert time.perf_counter() - started < 0.5

    def test_no_syntax_newer_than_python_3_10(self):
        # possessive quantifiers and atomic groups arrived in Python 3.11
        for pattern in (_TOKEN.pattern, _HEAD.pattern):
            assert not re.search(r"[*+?}]\+|\(\?>", pattern)
