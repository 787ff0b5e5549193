"""Column encryption feature.

Applications read and write *logical* plaintext columns; the feature
rewrites statements so the underlying tables only ever see *cipher*
columns, and decrypts query output transparently:

- INSERT/UPDATE values for an encrypted column are encrypted and the
  column renamed to its cipher column;
- WHERE equality/IN comparisons against an encrypted column compare
  ciphertexts (works because the encryptors are deterministic);
- selected logical columns become ``cipher AS logical`` and the returned
  values are decrypted in ``on_result``.

Encrypt algorithms are SPI-pluggable. The built-in reversible cipher is a
key-stream XOR (a stand-in for upstream's AES — this repo has no crypto
library and the *pipeline mechanics*, not cipher strength, are what the
paper describes); MD5 provides the upstream one-way "assisted query"
style digest.
"""

from __future__ import annotations

import base64
import hashlib
from dataclasses import dataclass, field
from typing import Any

from ..engine.context import StatementContext
from ..engine.pipeline import EngineResult, Feature
from ..exceptions import ShardingConfigError
from ..sql import ast


class EncryptAlgorithm:
    """Deterministic, optionally reversible column encryptor."""

    type_name = ""
    reversible = True

    def encrypt(self, plaintext: Any) -> str:
        raise NotImplementedError

    def decrypt(self, ciphertext: str) -> Any:
        raise NotImplementedError


class XorStreamEncryptor(EncryptAlgorithm):
    """Reversible key-stream XOR cipher (AES stand-in; see module doc)."""

    type_name = "AES"  # configured like upstream's AES encryptor

    def __init__(self, key: str = "shardingsphere"):
        if not key:
            raise ShardingConfigError("encryption key must be non-empty")
        self._stream = hashlib.sha256(key.encode("utf-8")).digest()

    def _xor(self, data: bytes) -> bytes:
        stream = self._stream
        return bytes(b ^ stream[i % len(stream)] for i, b in enumerate(data))

    def encrypt(self, plaintext: Any) -> str:
        if plaintext is None:
            return None  # type: ignore[return-value]
        raw = str(plaintext).encode("utf-8")
        return base64.b64encode(self._xor(raw)).decode("ascii")

    def decrypt(self, ciphertext: str) -> Any:
        if ciphertext is None:
            return None
        raw = base64.b64decode(ciphertext.encode("ascii"))
        return self._xor(raw).decode("utf-8")


class MD5Encryptor(EncryptAlgorithm):
    """One-way digest (equality-searchable, not decryptable)."""

    type_name = "MD5"
    reversible = False

    def encrypt(self, plaintext: Any) -> str:
        if plaintext is None:
            return None  # type: ignore[return-value]
        return hashlib.md5(str(plaintext).encode("utf-8")).hexdigest()

    def decrypt(self, ciphertext: str) -> Any:
        return ciphertext


_ENCRYPTORS: dict[str, type[EncryptAlgorithm]] = {}


def register_encryptor(cls: type[EncryptAlgorithm]) -> type[EncryptAlgorithm]:
    _ENCRYPTORS[cls.type_name.upper()] = cls
    return cls


def create_encryptor(type_name: str, **kwargs: Any) -> EncryptAlgorithm:
    try:
        cls = _ENCRYPTORS[type_name.upper()]
    except KeyError:
        raise ShardingConfigError(
            f"unknown encryptor {type_name!r}; known: {sorted(_ENCRYPTORS)}"
        ) from None
    return cls(**kwargs)


register_encryptor(XorStreamEncryptor)
register_encryptor(MD5Encryptor)


@dataclass
class EncryptColumn:
    """One encrypted column of one logical table."""

    logic_column: str
    cipher_column: str
    encryptor: EncryptAlgorithm


@dataclass
class EncryptRule:
    """table (lower) -> {logic column (lower) -> EncryptColumn}"""

    tables: dict[str, dict[str, EncryptColumn]] = field(default_factory=dict)

    def add(self, table: str, column: EncryptColumn) -> None:
        self.tables.setdefault(table.lower(), {})[column.logic_column.lower()] = column

    def column(self, table: str, logic_column: str) -> EncryptColumn | None:
        return self.tables.get(table.lower(), {}).get(logic_column.lower())

    def columns_of(self, table: str) -> dict[str, EncryptColumn]:
        return self.tables.get(table.lower(), {})


class EncryptFeature(Feature):
    """Pipeline hook applying the encrypt rule."""

    name = "encrypt"
    # Rewrites column refs and literals in the statement AST during
    # on_context, so plans compiled from the raw AST would be wrong.
    plan_cache_safe = False

    def __init__(self, rule: EncryptRule):
        self.rule = rule

    # -- statement rewrite ----------------------------------------------------

    def on_context(self, context: StatementContext) -> None:
        statement = context.statement
        if isinstance(statement, ast.InsertStatement):
            self._rewrite_insert(statement, context)
        elif isinstance(statement, ast.UpdateStatement):
            self._rewrite_update(statement, context)
            if statement.where is not None:
                self._rewrite_predicates(statement.where, context)
        elif isinstance(statement, ast.SelectStatement):
            decrypt_plan = self._rewrite_select(statement, context)
            context.encrypt_decrypt_plan = decrypt_plan  # type: ignore[attr-defined]
            if statement.where is not None:
                self._rewrite_predicates(statement.where, context)
        elif isinstance(statement, ast.DeleteStatement):
            if statement.where is not None:
                self._rewrite_predicates(statement.where, context)

    def _tables_of(self, context: StatementContext) -> dict[str, str]:
        return dict(context.alias_map)

    def _lookup(self, context: StatementContext, column: ast.ColumnRef) -> EncryptColumn | None:
        alias_map = self._tables_of(context)
        if column.table is not None:
            logic_table = alias_map.get(column.table.lower())
            if logic_table is None:
                return None
            return self.rule.column(logic_table, column.name)
        for logic_table in alias_map.values():
            found = self.rule.column(logic_table, column.name)
            if found is not None:
                return found
        return None

    def _rewrite_insert(self, stmt: ast.InsertStatement, context: StatementContext) -> None:
        table = stmt.table.name
        encrypted = self.rule.columns_of(table)
        if not encrypted:
            return
        for position, column in enumerate(stmt.columns):
            spec = encrypted.get(column.lower())
            if spec is None:
                continue
            stmt.columns[position] = spec.cipher_column
            for row in stmt.values_rows:
                row[position] = _encrypt_expr(row[position], spec, context.params)

    def _rewrite_update(self, stmt: ast.UpdateStatement, context: StatementContext) -> None:
        encrypted = self.rule.columns_of(stmt.table.name)
        if not encrypted:
            return
        new_assignments = []
        for column, expr in stmt.assignments:
            spec = encrypted.get(column.lower())
            if spec is None:
                new_assignments.append((column, expr))
            else:
                new_assignments.append((spec.cipher_column, _encrypt_expr(expr, spec, context.params)))
        stmt.assignments = new_assignments

    def _rewrite_select(self, stmt: ast.SelectStatement, context: StatementContext) -> list[int]:
        decrypt_indexes: list[int] = []
        for i, item in enumerate(stmt.select_items):
            expr = item.expression
            if isinstance(expr, ast.ColumnRef):
                spec = self._lookup(context, expr)
                if spec is not None:
                    if item.alias is None:
                        item.alias = expr.name
                    expr.name = spec.cipher_column
                    if spec.encryptor.reversible:
                        decrypt_indexes.append(i)
        return decrypt_indexes

    def _rewrite_predicates(self, expr: ast.Expression, context: StatementContext) -> None:
        for node in expr.walk():
            if isinstance(node, ast.BinaryOp) and node.op in ("=", "<>", "!="):
                self._rewrite_comparison(node, context)
            elif isinstance(node, ast.InExpr):
                self._rewrite_in(node, context)

    def _rewrite_comparison(self, node: ast.BinaryOp, context: StatementContext) -> None:
        pairs = ((node.left, "right"), (node.right, "left"))
        for column_side, other_attr in pairs:
            if isinstance(column_side, ast.ColumnRef):
                spec = self._lookup(context, column_side)
                if spec is None:
                    continue
                column_side.name = spec.cipher_column
                other = getattr(node, other_attr)
                setattr(node, other_attr, _encrypt_expr(other, spec, context.params))
                return

    def _rewrite_in(self, node: ast.InExpr, context: StatementContext) -> None:
        if not isinstance(node.operand, ast.ColumnRef):
            return
        spec = self._lookup(context, node.operand)
        if spec is None:
            return
        node.operand.name = spec.cipher_column
        node.items = [_encrypt_expr(item, spec, context.params) for item in node.items]

    # -- result decryption ---------------------------------------------------

    def on_result(self, result: EngineResult, context: StatementContext) -> None:
        plan: list[int] = getattr(context, "encrypt_decrypt_plan", [])
        if not plan or result.merged is None:
            return
        specs: list[tuple[int, EncryptColumn]] = []
        statement = context.statement
        assert isinstance(statement, ast.SelectStatement)
        for index in plan:
            expr = statement.select_items[index].expression
            assert isinstance(expr, ast.ColumnRef)
            for table in context.alias_map.values():
                for spec in self.rule.columns_of(table).values():
                    if spec.cipher_column.lower() == expr.name.lower():
                        specs.append((index, spec))
                        break

        result.merged.rows = [_decrypt_row(row, specs) for row in result.merged.rows]


def _decrypt_row(row: tuple[Any, ...], specs: list[tuple[int, EncryptColumn]]) -> tuple[Any, ...]:
    out = list(row)
    for index, spec in specs:
        if index < len(out):
            out[index] = spec.encryptor.decrypt(out[index])
    return tuple(out)


def _encrypt_expr(expr: ast.Expression, spec: EncryptColumn, params: tuple[Any, ...]) -> ast.Expression:
    """Encrypt a literal/bound value expression into a ciphertext literal."""
    if isinstance(expr, ast.Literal):
        return ast.Literal(spec.encryptor.encrypt(expr.value))
    if isinstance(expr, ast.Placeholder):
        try:
            value = params[expr.index]
        except IndexError:
            raise ShardingConfigError(
                f"encrypted column value placeholder #{expr.index} is unbound"
            ) from None
        return ast.Literal(spec.encryptor.encrypt(value))
    raise ShardingConfigError(
        "values written to encrypted columns must be literals or bound parameters"
    )
