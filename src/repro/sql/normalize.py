"""Statement identity: one scan that turns literal SQL into its shape.

``normalize(sql, params)`` replaces the number and string literals that
sit in *predicate-operand positions* with ``?`` and returns the literal-free
text together with the literals' Python values merged into the caller's
parameters in textual order — the order the parser numbers
:class:`~repro.sql.ast.Placeholder` in. ``WHERE k = 42`` and
``WHERE k = 7`` thereby become one prepared statement: the engine's parse
cache, plan cache, the per-node storage plan caches and the workload
digests all key on the same text (see DESIGN.md "Statement identity").

A literal is extracted when the previous significant token is a comparison
operator, ``LIKE``, ``BETWEEN``, the ``AND`` closing a ``BETWEEN``, or the
``(`` / ``,`` of an ``IN (`` list or of an INSERT's ``VALUES (`` row at
that list's own depth; a unary minus stays in the text (``k = -5`` ->
``k = -?``). Everything else keeps its literal because it is plan shape,
not data: ``LIMIT`` / ``OFFSET`` and whatever follows them, ``ORDER BY 1``,
select-list and function-argument literals, arithmetic operands, ``NULL`` /
``TRUE`` / ``FALSE`` — and every statement that does not start with
``SELECT`` / ``UPDATE`` / ``DELETE`` / ``INSERT`` passes through byte for
byte.

The scanner is the lexer's own regex (:data:`repro.sql.lexer._TOKEN`), so a
token here is a token to :func:`~repro.sql.lexer.tokenize`. Text the lexer
would reject (an unterminated string, a stray character) passes through
unchanged, and so does any text with a non-ASCII character: a shape is a
cache key, and ASCII keeps its case folding and word boundaries plain.
"""

from __future__ import annotations

from typing import Any, Sequence

from .lexer import _TOKEN
from .parser import _parse_number

__all__ = ["normalize", "COMPARISONS"]

#: only these statements have predicate or row literals worth a shared shape
_SHAPED = frozenset({"SELECT", "UPDATE", "DELETE", "INSERT"})

#: the operators whose right-hand literal is a predicate operand (the
#: engine's AST check of a shape reads the same set)
COMPARISONS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})

# What the previous significant token says about the next one.
_NOTHING, _OPERAND, _IN, _BETWEEN, _AND, _LIMIT, _VALUES = range(7)
_KEYS = {"LIKE": _OPERAND, "IN": _IN, "BETWEEN": _BETWEEN, "AND": _AND,
         "LIMIT": _LIMIT, "OFFSET": _LIMIT, "VALUES": _VALUES}


def normalize(
    sql: str, params: Sequence[Any] | None = None, every: bool = False
) -> tuple[str, Sequence[Any] | None]:
    """``(shape, values)`` for one statement text.

    ``shape`` is ``sql`` with its extractable literals replaced by ``?``;
    ``values`` holds one entry per ``?`` of ``shape``: the caller's
    ``params`` and the extracted literals in textual order. With
    ``params=None`` the caller's placeholders contribute nothing (shape
    lookups: diagnostics, digests). When nothing is extracted — or the
    text is not one to normalise, holds a character the scanner does not
    know, or has a different number of ``?`` than ``params`` — the
    arguments come back as they are (``shape is sql``).

    ``every=True`` is the digest mode: every number and string token of
    any statement becomes ``?``, whatever its position.
    """
    if not (every or sql.isascii()):
        return sql, params
    pieces: list[str] = []
    values: list[Any] = []
    copied = 0  # sql[:copied] is already in pieces
    previous = _NOTHING
    frozen = False  # past LIMIT / OFFSET
    parens: list[bool] = []  # per open parenthesis: is it an IN list
    betweens: list[int] = []  # paren depth of each BETWEEN awaiting its AND
    rows_at = -1  # paren depth of the rows after VALUES (-1: none yet)
    seen = 0  # caller placeholders so far
    head = not every  # the first word, which decides, is still to come
    for match in _TOKEN.finditer(sql):
        kind = match.lastgroup
        if head and kind != "skip":
            if kind != "word" or match.group(kind).upper() not in _SHAPED:
                return sql, params
            head = False
        if kind == "word":
            previous = _NOTHING
        elif kind == "key":
            previous = _KEYS[match.group(kind).upper()]
            if previous == _BETWEEN:
                betweens.append(len(parens))
                previous = _OPERAND
            elif previous == _AND:
                if betweens and betweens[-1] == len(parens):
                    betweens.pop()  # the AND that closes a BETWEEN
                    previous = _OPERAND
                else:
                    previous = _NOTHING
            elif previous == _LIMIT:
                frozen = True
                previous = _NOTHING
            elif previous == _VALUES:
                rows_at = len(parens)
                previous = _NOTHING
        elif kind == "number" or kind == "string":
            if every or (previous == _OPERAND and not frozen):
                text = match.group(kind)
                values.append(
                    _parse_number(text) if kind == "number"
                    else text[1:-1].replace("''", "'")
                )
                pieces.append(sql[copied:match.start(kind)])
                pieces.append("?")
                copied = match.end()
            previous = _NOTHING
        elif kind == "op":
            op = match.group(kind)
            if op in COMPARISONS:
                previous = _OPERAND
            elif op != "-" or previous != _OPERAND:  # a unary minus keeps the position
                previous = _NOTHING
        elif kind == "punct":
            char = match.group(kind)
            if char == "(":
                listed = previous == _IN or len(parens) == rows_at
                parens.append(listed)
                previous = _OPERAND if listed else _NOTHING
            elif char == ",":
                previous = _OPERAND if parens and parens[-1] else _NOTHING
            else:
                if char == ")" and parens:
                    parens.pop()
                previous = _NOTHING
        elif kind == "param":
            if params is not None:
                if seen == len(params):
                    return sql, params  # short bind: the caller's to fail
                values.append(params[seen])
            seen += 1
            previous = _NOTHING
        elif kind == "quoted":
            previous = _NOTHING
        elif kind == "unknown" and not every:
            return sql, params  # a character the lexer may read differently
    if not pieces or (params is not None and seen != len(params)):
        return sql, params
    pieces.append(sql[copied:])
    return "".join(pieces), tuple(values)
