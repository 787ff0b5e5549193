"""Recursive-descent SQL parser producing :mod:`repro.sql.ast` nodes.

The grammar covers the subset ShardingSphere's pipeline exercises in the
paper: DQL (SELECT with joins, grouping, ordering, pagination, aggregates),
DML (multi-row INSERT, UPDATE, DELETE), DDL (CREATE/DROP TABLE, CREATE
INDEX, TRUNCATE), TCL (BEGIN/COMMIT/ROLLBACK) and two DAL statements
(SET, SHOW). Expressions support the operators the router's sharding
condition extraction understands (=, IN, BETWEEN, comparisons, AND/OR/NOT,
LIKE, IS NULL) plus arithmetic and function calls.
"""

from __future__ import annotations

from typing import Any

from ..exceptions import SQLParseError, UnsupportedSQLError
from . import ast
from .lexer import tokenize
from .tokens import Token, TokenType

# Precedence for binary operators, higher binds tighter.
_PRECEDENCE = {
    "OR": 1,
    "AND": 2,
    "=": 4, "<>": 4, "!=": 4, "<": 4, ">": 4, "<=": 4, ">=": 4, "<=>": 4, "LIKE": 4,
    "+": 5, "-": 5, "||": 5,
    "*": 6, "/": 6, "%": 6,
}

_COMPARISON_OPS = {"=", "<>", "!=", "<", ">", "<=", ">=", "<=>"}


def parse(sql: str) -> ast.Statement:
    """Parse a single SQL statement into an AST."""
    return Parser(sql).parse_statement()


def parse_expression(sql: str) -> ast.Expression:
    """Parse a standalone expression (used in tests and DistSQL)."""
    parser = Parser(sql)
    expr = parser._parse_expr()
    parser._expect_eof()
    return expr


class Parser:
    """Single-statement recursive-descent parser."""

    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0
        self._placeholder_count = 0

    # ------------------------------------------------------------------
    # Token stream helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        if offset:  # look-ahead stops at EOF; _advance never moves past it
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def _accept_keyword(self, *keywords: str) -> Token | None:
        if self._peek().matches(*keywords):
            return self._advance()
        return None

    def _expect_keyword(self, *keywords: str) -> Token:
        token = self._accept_keyword(*keywords)
        if token is None:
            got = self._peek()
            raise SQLParseError(
                f"expected {' or '.join(keywords)}, got {got.value!r}", position=got.position
            )
        return token

    def _accept_punct(self, char: str) -> bool:
        if self._peek().is_punct(char):
            self._advance()
            return True
        return False

    def _expect_punct(self, char: str) -> None:
        if not self._accept_punct(char):
            got = self._peek()
            raise SQLParseError(f"expected {char!r}, got {got.value!r}", position=got.position)

    def _expect_identifier(self) -> str:
        token = self._peek()
        # Allow non-reserved keywords to be used as identifiers where an
        # identifier is required (e.g. a column named `key` is out of scope,
        # but `count` appears in benchmarks).
        if token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            self._advance()
            return token.value
        raise SQLParseError(f"expected identifier, got {token.value!r}", position=token.position)

    def _expect_eof(self) -> None:
        self._accept_punct(";")
        token = self._peek()
        if token.type is not TokenType.EOF:
            raise SQLParseError(f"unexpected trailing input {token.value!r}", position=token.position)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        token = self._peek()
        if token.type is not TokenType.KEYWORD:
            raise SQLParseError(f"expected statement, got {token.value!r}", position=token.position)
        handlers = {
            "SELECT": self._parse_select,
            "INSERT": self._parse_insert,
            "UPDATE": self._parse_update,
            "DELETE": self._parse_delete,
            "CREATE": self._parse_create,
            "DROP": self._parse_drop,
            "TRUNCATE": self._parse_truncate,
            "BEGIN": self._parse_begin,
            "START": self._parse_begin,
            "COMMIT": self._parse_commit,
            "ROLLBACK": self._parse_rollback,
            "SET": self._parse_set,
            "SHOW": self._parse_show,
        }
        handler = handlers.get(token.value)
        if handler is None:
            raise UnsupportedSQLError(f"unsupported statement {token.value}", position=token.position)
        statement = handler()
        self._expect_eof()
        return statement

    # -- SELECT ---------------------------------------------------------

    def _parse_select(self) -> ast.SelectStatement:
        self._expect_keyword("SELECT")
        stmt = ast.SelectStatement()
        stmt.distinct = self._accept_keyword("DISTINCT") is not None
        self._accept_keyword("ALL")
        stmt.select_items.append(self._parse_select_item())
        while self._accept_punct(","):
            stmt.select_items.append(self._parse_select_item())
        if self._accept_keyword("FROM"):
            stmt.from_table = self._parse_table_ref()
            stmt.joins = self._parse_joins()
        if self._accept_keyword("WHERE"):
            stmt.where = self._parse_expr()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            stmt.group_by.append(self._parse_expr())
            while self._accept_punct(","):
                stmt.group_by.append(self._parse_expr())
        if self._accept_keyword("HAVING"):
            stmt.having = self._parse_expr()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            stmt.order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                stmt.order_by.append(self._parse_order_item())
        if self._accept_keyword("LIMIT"):
            stmt.limit = self._parse_limit()
        elif self._accept_keyword("OFFSET"):
            # PostgreSQL allows OFFSET before/without LIMIT.
            offset = self._parse_limit_value()
            stmt.limit = ast.Limit(count=None, offset=offset)
            if self._accept_keyword("LIMIT"):
                stmt.limit.count = self._parse_limit_value()
        if self._accept_keyword("FOR"):
            self._expect_keyword("UPDATE", "SHARE")
            stmt.for_update = True
        return stmt

    def _parse_select_item(self) -> ast.SelectItem:
        token = self._peek()
        if token.is_op("*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        # table.* form
        if token.type is TokenType.IDENTIFIER and self._peek(1).is_punct(".") and self._peek(2).is_op("*"):
            self._advance()
            self._advance()
            self._advance()
            return ast.SelectItem(ast.Star(table=token.value))
        expr = self._parse_expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.SelectItem(expr, alias=alias)

    def _parse_order_item(self) -> ast.OrderByItem:
        expr = self._parse_expr()
        desc = False
        if self._accept_keyword("DESC"):
            desc = True
        else:
            self._accept_keyword("ASC")
        return ast.OrderByItem(expr, desc=desc)

    def _parse_limit(self) -> ast.Limit:
        first = self._parse_limit_value()
        if self._accept_punct(","):
            # MySQL "LIMIT offset, count"
            count = self._parse_limit_value()
            return ast.Limit(count=count, offset=first)
        if self._accept_keyword("OFFSET"):
            offset = self._parse_limit_value()
            return ast.Limit(count=first, offset=offset)
        return ast.Limit(count=first)

    def _parse_limit_value(self) -> ast.Expression:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return ast.Literal(_parse_number(token.value))
        if token.type is TokenType.PLACEHOLDER:
            self._advance()
            index = self._placeholder_count
            self._placeholder_count += 1
            return ast.Placeholder(index)
        raise SQLParseError(f"expected LIMIT value, got {token.value!r}", position=token.position)

    def _parse_table_ref(self) -> ast.TableRef:
        name = self._expect_identifier()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.TableRef(name, alias=alias)

    def _parse_joins(self) -> list[ast.Join]:
        joins: list[ast.Join] = []
        while True:
            kind = None
            if self._accept_keyword("JOIN") or self._accept_keyword("INNER"):
                if self._peek(-1).matches("INNER"):
                    self._expect_keyword("JOIN")
                kind = "INNER"
            elif self._accept_keyword("LEFT"):
                self._accept_keyword("OUTER")
                self._expect_keyword("JOIN")
                kind = "LEFT"
            elif self._accept_keyword("RIGHT"):
                self._accept_keyword("OUTER")
                self._expect_keyword("JOIN")
                kind = "RIGHT"
            elif self._accept_keyword("CROSS"):
                self._expect_keyword("JOIN")
                kind = "CROSS"
            elif self._accept_punct(","):
                kind = "CROSS"
            else:
                return joins
            table = self._parse_table_ref()
            condition = None
            if kind != "CROSS" and self._accept_keyword("ON"):
                condition = self._parse_expr()
            joins.append(ast.Join(table, kind=kind, condition=condition))

    # -- INSERT ---------------------------------------------------------

    def _parse_insert(self) -> ast.InsertStatement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        stmt = ast.InsertStatement()
        stmt.table = self._parse_table_ref()
        if self._accept_punct("("):
            stmt.columns.append(self._expect_identifier())
            while self._accept_punct(","):
                stmt.columns.append(self._expect_identifier())
            self._expect_punct(")")
        self._expect_keyword("VALUES")
        stmt.values_rows.append(self._parse_value_row())
        while self._accept_punct(","):
            stmt.values_rows.append(self._parse_value_row())
        return stmt

    def _parse_value_row(self) -> list[ast.Expression]:
        self._expect_punct("(")
        row = [self._parse_expr()]
        while self._accept_punct(","):
            row.append(self._parse_expr())
        self._expect_punct(")")
        return row

    # -- UPDATE / DELETE -------------------------------------------------

    def _parse_update(self) -> ast.UpdateStatement:
        self._expect_keyword("UPDATE")
        stmt = ast.UpdateStatement()
        stmt.table = self._parse_table_ref()
        self._expect_keyword("SET")
        stmt.assignments.append(self._parse_assignment())
        while self._accept_punct(","):
            stmt.assignments.append(self._parse_assignment())
        if self._accept_keyword("WHERE"):
            stmt.where = self._parse_expr()
        return stmt

    def _parse_assignment(self) -> tuple[str, ast.Expression]:
        column = self._expect_identifier()
        if self._accept_punct("."):
            column = self._expect_identifier()
        token = self._peek()
        if not token.is_op("="):
            raise SQLParseError(f"expected '=' in assignment, got {token.value!r}", position=token.position)
        self._advance()
        return column, self._parse_expr()

    def _parse_delete(self) -> ast.DeleteStatement:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        stmt = ast.DeleteStatement()
        stmt.table = self._parse_table_ref()
        if self._accept_keyword("WHERE"):
            stmt.where = self._parse_expr()
        return stmt

    # -- DDL --------------------------------------------------------------

    def _parse_create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        if self._accept_keyword("UNIQUE"):
            self._expect_keyword("INDEX")
            return self._parse_create_index(unique=True)
        if self._accept_keyword("INDEX"):
            return self._parse_create_index(unique=False)
        self._expect_keyword("TABLE")
        stmt = ast.CreateTableStatement()
        if self._accept_keyword("IF"):
            self._expect_keyword("NOT")
            # EXISTS is a keyword in our lexer
            self._expect_keyword("EXISTS")
            stmt.if_not_exists = True
        stmt.table = ast.TableRef(self._expect_identifier())
        self._expect_punct("(")
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                self._expect_punct("(")
                stmt.primary_key.append(self._expect_identifier())
                while self._accept_punct(","):
                    stmt.primary_key.append(self._expect_identifier())
                self._expect_punct(")")
            elif self._accept_keyword("UNIQUE"):
                self._accept_keyword("KEY", "INDEX")
                self._skip_parenthesized()
            elif self._accept_keyword("KEY", "INDEX"):
                # Secondary index definitions inside CREATE TABLE are noted
                # but not modeled; skip "name (cols)".
                if self._peek().type is TokenType.IDENTIFIER:
                    self._advance()
                self._skip_parenthesized()
            else:
                stmt.columns.append(self._parse_column_definition())
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        for col in stmt.columns:
            if col.primary_key and col.name not in stmt.primary_key:
                stmt.primary_key.append(col.name)
        return stmt

    def _skip_parenthesized(self) -> None:
        if self._peek().type is TokenType.IDENTIFIER:
            self._advance()
        self._expect_punct("(")
        depth = 1
        while depth:
            token = self._advance()
            if token.type is TokenType.EOF:
                raise SQLParseError("unterminated parenthesis", position=token.position)
            if token.is_punct("("):
                depth += 1
            elif token.is_punct(")"):
                depth -= 1

    def _parse_column_definition(self) -> ast.ColumnDefinition:
        name = self._expect_identifier()
        type_token = self._peek()
        if type_token.type not in (TokenType.KEYWORD, TokenType.IDENTIFIER):
            raise SQLParseError(f"expected column type, got {type_token.value!r}", position=type_token.position)
        self._advance()
        col = ast.ColumnDefinition(name=name, type_name=type_token.value.upper())
        if self._accept_punct("("):
            length_token = self._advance()
            col.length = int(length_token.value)
            # DECIMAL(p, s) — keep precision only.
            if self._accept_punct(","):
                self._advance()
            self._expect_punct(")")
        while True:
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                col.not_null = True
            elif self._accept_keyword("NULL"):
                pass
            elif self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                col.primary_key = True
            elif self._accept_keyword("UNIQUE"):
                col.unique = True
            elif self._accept_keyword("AUTO_INCREMENT"):
                col.auto_increment = True
            elif self._accept_keyword("DEFAULT"):
                col.default = self._parse_primary_literal()
            else:
                break
        return col

    def _parse_primary_literal(self) -> Any:
        token = self._advance()
        if token.type is TokenType.NUMBER:
            return _parse_number(token.value)
        if token.type is TokenType.STRING:
            return token.value
        if token.matches("NULL"):
            return None
        if token.matches("TRUE"):
            return True
        if token.matches("FALSE"):
            return False
        raise SQLParseError(f"expected literal, got {token.value!r}", position=token.position)

    def _parse_create_index(self, unique: bool) -> ast.CreateIndexStatement:
        stmt = ast.CreateIndexStatement(unique=unique)
        stmt.index_name = self._expect_identifier()
        self._expect_keyword("ON")
        stmt.table = ast.TableRef(self._expect_identifier())
        self._expect_punct("(")
        stmt.columns.append(self._expect_identifier())
        while self._accept_punct(","):
            stmt.columns.append(self._expect_identifier())
        self._expect_punct(")")
        return stmt

    def _parse_drop(self) -> ast.DropTableStatement:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        stmt = ast.DropTableStatement()
        if self._accept_keyword("IF"):
            self._expect_keyword("EXISTS")
            stmt.if_exists = True
        stmt.table = ast.TableRef(self._expect_identifier())
        return stmt

    def _parse_truncate(self) -> ast.TruncateStatement:
        self._expect_keyword("TRUNCATE")
        self._accept_keyword("TABLE")
        return ast.TruncateStatement(table=ast.TableRef(self._expect_identifier()))

    # -- TCL / DAL --------------------------------------------------------

    def _parse_begin(self) -> ast.BeginStatement:
        if self._accept_keyword("START"):
            self._expect_keyword("TRANSACTION")
        else:
            self._expect_keyword("BEGIN")
            self._accept_keyword("TRANSACTION", "WORK")
        return ast.BeginStatement()

    def _parse_commit(self) -> ast.CommitStatement:
        self._expect_keyword("COMMIT")
        self._accept_keyword("WORK")
        return ast.CommitStatement()

    def _parse_rollback(self) -> ast.RollbackStatement:
        self._expect_keyword("ROLLBACK")
        self._accept_keyword("WORK")
        return ast.RollbackStatement()

    def _parse_set(self) -> ast.SetStatement:
        self._expect_keyword("SET")
        # Accept "SET VARIABLE name = value" (DistSQL RAL style) and
        # plain "SET name = value".
        name = self._expect_identifier()
        if name.upper() == "VARIABLE":
            name = self._expect_identifier()
        token = self._peek()
        if not token.is_op("="):
            raise SQLParseError(f"expected '=' in SET, got {token.value!r}", position=token.position)
        self._advance()
        value_token = self._advance()
        if value_token.type is TokenType.NUMBER:
            value: Any = _parse_number(value_token.value)
        elif value_token.type is TokenType.STRING:
            value = value_token.value
        else:
            value = value_token.value
        return ast.SetStatement(name=name, value=value)

    def _parse_show(self) -> ast.ShowStatement:
        self._expect_keyword("SHOW")
        parts = []
        while self._peek().type is not TokenType.EOF and not self._peek().is_punct(";"):
            parts.append(self._advance().value)
        return ast.ShowStatement(subject=" ".join(parts))

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------

    def _parse_expr(self, min_precedence: int = 1) -> ast.Expression:
        left = self._parse_unary()
        while True:
            left, matched = self._try_postfix(left)
            if matched:
                continue
            token = self._peek()
            op = None
            if token.type is TokenType.OPERATOR and token.value in _PRECEDENCE:
                op = token.value
            elif token.matches("AND", "OR", "LIKE"):
                op = token.value
            if op is None or _PRECEDENCE[op] < min_precedence:
                return left
            self._advance()
            right = self._parse_expr(_PRECEDENCE[op] + 1)
            left = ast.BinaryOp(op, left, right)

    def _try_postfix(self, operand: ast.Expression) -> tuple[ast.Expression, bool]:
        """Handle IN / BETWEEN / IS NULL / NOT IN / NOT BETWEEN / NOT LIKE."""
        negated = False
        save = self.pos
        if self._accept_keyword("NOT"):
            if self._peek().matches("IN", "BETWEEN", "LIKE"):
                negated = True
            else:
                self.pos = save
                return operand, False
        if self._accept_keyword("IN"):
            self._expect_punct("(")
            items = [self._parse_expr()]
            while self._accept_punct(","):
                items.append(self._parse_expr())
            self._expect_punct(")")
            return ast.InExpr(operand, items, negated=negated), True
        if self._accept_keyword("BETWEEN"):
            low = self._parse_expr(_PRECEDENCE["AND"] + 1)
            self._expect_keyword("AND")
            high = self._parse_expr(_PRECEDENCE["AND"] + 1)
            return ast.BetweenExpr(operand, low, high, negated=negated), True
        if negated and self._accept_keyword("LIKE"):
            pattern = self._parse_expr(_PRECEDENCE["LIKE"] + 1)
            return ast.UnaryOp("NOT", ast.BinaryOp("LIKE", operand, pattern)), True
        if self._accept_keyword("IS"):
            is_negated = self._accept_keyword("NOT") is not None
            self._expect_keyword("NULL")
            return ast.IsNullExpr(operand, negated=is_negated), True
        self.pos = save
        return operand, False

    def _parse_unary(self) -> ast.Expression:
        token = self._peek()
        if token.matches("NOT"):
            self._advance()
            return ast.UnaryOp("NOT", self._parse_expr(_PRECEDENCE["AND"] + 1))
        if token.is_op("-"):
            self._advance()
            return ast.UnaryOp("-", self._parse_unary())
        if token.is_op("+"):
            self._advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return ast.Literal(_parse_number(token.value))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.type is TokenType.PLACEHOLDER:
            self._advance()
            index = self._placeholder_count
            self._placeholder_count += 1
            return ast.Placeholder(index)
        if token.matches("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.matches("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.matches("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.matches("CASE"):
            return self._parse_case()
        if token.matches("CAST"):
            return self._parse_cast()
        if token.is_punct("("):
            self._advance()
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        if token.matches("COUNT", "SUM", "AVG", "MIN", "MAX") and self._peek(1).is_punct("("):
            return self._parse_function_call()
        if token.type is TokenType.IDENTIFIER:
            if self._peek(1).is_punct("("):
                return self._parse_function_call()
            return self._parse_column_ref()
        raise SQLParseError(f"unexpected token {token.value!r}", position=token.position)

    def _parse_case(self) -> ast.CaseExpr:
        self._expect_keyword("CASE")
        whens: list[tuple[ast.Expression, ast.Expression]] = []
        default = None
        while self._accept_keyword("WHEN"):
            cond = self._parse_expr()
            self._expect_keyword("THEN")
            value = self._parse_expr()
            whens.append((cond, value))
        if self._accept_keyword("ELSE"):
            default = self._parse_expr()
        self._expect_keyword("END")
        if not whens:
            raise SQLParseError("CASE requires at least one WHEN", position=self._peek().position)
        return ast.CaseExpr(whens, default)

    def _parse_cast(self) -> ast.FunctionCall:
        self._expect_keyword("CAST")
        self._expect_punct("(")
        value = self._parse_expr()
        self._expect_keyword("AS")
        type_token = self._advance()
        if self._accept_punct("("):
            self._advance()
            self._expect_punct(")")
        self._expect_punct(")")
        return ast.FunctionCall("CAST", [value, ast.Literal(type_token.value.upper())])

    def _parse_function_call(self) -> ast.FunctionCall:
        name_token = self._advance()
        self._expect_punct("(")
        distinct = self._accept_keyword("DISTINCT") is not None
        args: list[ast.Expression] = []
        if self._peek().is_op("*"):
            self._advance()
            args.append(ast.Star())
        elif not self._peek().is_punct(")"):
            args.append(self._parse_expr())
            while self._accept_punct(","):
                args.append(self._parse_expr())
        self._expect_punct(")")
        return ast.FunctionCall(name_token.value.upper(), args, distinct=distinct)

    def _parse_column_ref(self) -> ast.ColumnRef:
        first = self._expect_identifier()
        if self._accept_punct("."):
            second = self._expect_identifier()
            return ast.ColumnRef(second, table=first)
        return ast.ColumnRef(first)


def _parse_number(text: str) -> int | float:
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)
