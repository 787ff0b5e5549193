"""SQL subsystem: lexer, AST, parser, dialects and formatter.

This is the Python stand-in for the ANTLR-based parser module of
Apache ShardingSphere. Typical use::

    from repro.sql import parse, format_statement
    stmt = parse("SELECT * FROM t_user WHERE uid IN (1, 2)")
    sql = format_statement(stmt)
"""

from . import ast
from .dialects import (
    MARIADB,
    MYSQL,
    OPENGAUSS,
    ORACLE,
    POSTGRESQL,
    SQL92,
    SQLSERVER,
    Dialect,
    available_dialects,
    get_dialect,
    register_dialect,
)
from .formatter import format_expression, format_literal, format_statement
from .lexer import tokenize
from .normalize import normalize
from .parser import parse, parse_expression
from .tokens import Token, TokenType

__all__ = [
    "ast",
    "parse",
    "parse_expression",
    "tokenize",
    "normalize",
    "format_statement",
    "format_expression",
    "format_literal",
    "Dialect",
    "get_dialect",
    "register_dialect",
    "available_dialects",
    "MYSQL",
    "MARIADB",
    "POSTGRESQL",
    "OPENGAUSS",
    "SQLSERVER",
    "ORACLE",
    "SQL92",
    "Token",
    "TokenType",
]
