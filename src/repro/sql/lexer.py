"""SQL tokenizer: one compiled regex is the token language.

:data:`_TOKEN` defines every token class: quoted identifiers in three
dialect styles (backticks for MySQL, double quotes for PostgreSQL/SQL-92,
square brackets for SQL Server), single-quoted strings with doubled-quote
escaping, line (``--``) and block (``/* */``) comments, numeric literals,
operators, punctuation and ``?`` placeholders. :func:`tokenize` turns its
matches into tokens, :func:`repro.sql.normalize.normalize` scans with it
directly, and :func:`leading_words` reads a statement's first words with
the same rules for whitespace and comments.
"""

from __future__ import annotations

import re

from ..exceptions import SQLParseError
from .tokens import KEYWORDS, Token, TokenType

_COMMENT = r"--[^\n]*|/\*.*?\*/"
_WORD = r"[^\W\d]\w*"

# One token per match, leading whitespace absorbed; comments and a whitespace
# tail are tokens to skip. Comments come before the operators they start
# with, ``.5`` before the ``.`` punctuation, and ``key`` (the words the
# normaliser gives meaning to) before ``word``. Words, digits and whitespace
# are Unicode. A string's closing quote has no quote after it (``'it''s`` is
# unterminated). ``unknown`` is whatever no class claims: an unterminated
# string, quoted identifier or ``/*``, or a stray character.
_TOKEN = re.compile(
    rf"""\s*(?:
    (?P<key>(?i:LIKE|IN|BETWEEN|AND|LIMIT|OFFSET|VALUES)\b)
  | (?P<word>{_WORD})
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<punct>[(),.;])
  | (?P<skip>{_COMMENT}|\s\Z)
  | (?P<op><=>|<>|!=|>=|<=|\|\||<<|>>|[=<>+\-*%]|/(?!\*))
  | (?P<param>\?)
  | (?P<string>'[^']*(?:''[^']*)*'(?!'))
  | (?P<quoted>`[^`]*`|"[^"]*"|\[[^\]]*\])
  | (?P<unknown>\S)
    )""",
    re.DOTALL | re.VERBOSE,
)

#: the first two words of a statement; each gap of whitespace and comments
#: is read in a look-ahead, which never gives back a comment's inner words
_HEAD = re.compile(rf"(?=((?:\s+|{_COMMENT})*))\1({_WORD})"
                   rf"(?:(?=((?:\s+|{_COMMENT})+))\3({_WORD}))?", re.DOTALL)

_TYPES = {"number": TokenType.NUMBER, "punct": TokenType.PUNCTUATION,
          "op": TokenType.OPERATOR, "param": TokenType.PLACEHOLDER}

#: what an ``unknown`` match at an opening character means
_UNTERMINATED = {"'": "unterminated string literal", "/": "unterminated block comment",
                 **dict.fromkeys("`\"[", "unterminated quoted identifier")}


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql`` into a list of tokens ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _TOKEN.finditer(sql):
        kind = match.lastgroup
        if kind == "skip":
            continue
        text = match.group(kind)
        start = match.start(kind)
        if kind == "word" or kind == "key":
            upper = text.upper()
            if upper in KEYWORDS:
                append(Token(TokenType.KEYWORD, upper, start))
            else:
                append(Token(TokenType.IDENTIFIER, text, start))
        elif kind == "string":
            append(Token(TokenType.STRING, text[1:-1].replace("''", "'"), start))
        elif kind == "quoted":
            append(Token(TokenType.IDENTIFIER, text[1:-1], start))
        elif kind == "unknown":
            message = _UNTERMINATED.get(text) or f"unexpected character {text!r}"
            raise SQLParseError(message, position=start)
        else:
            append(Token(_TYPES[kind], text, start))
    append(Token(TokenType.EOF, "", len(sql)))
    return tokens


def leading_words(sql: str) -> tuple[str, str]:
    """The first two words of ``sql``, upper-cased, ``""`` where there is
    none: whitespace and comments are skipped as :func:`tokenize` skips
    them, and any other token before a word ends the head."""
    match = _HEAD.match(sql)
    if match is None:
        return "", ""
    first, second = match.group(2, 4)
    return first.upper(), (second or "").upper()
