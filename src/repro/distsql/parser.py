"""DistSQL parser (Section V-A): RDL, RQL and RAL statements.

DistSQL is not standard SQL, so it gets its own small parser on top of the
shared lexer. Supported grammar (case-insensitive):

RDL (Resource & Rule Definition Language)::

    REGISTER RESOURCE ds0 [(PROPERTIES("dialect"='MySQL'))] [, ds1 ...]
    UNREGISTER RESOURCE ds0
    CREATE|ALTER SHARDING TABLE RULE t_user (
        RESOURCES(ds0, ds1),
        SHARDING_COLUMN=uid, TYPE=hash_mod,
        PROPERTIES("sharding-count"=2)
        [, KEY_GENERATE_COLUMN=uid, KEY_GENERATOR=snowflake]
    )
    DROP SHARDING TABLE RULE t_user
    CREATE SHARDING BINDING TABLE RULES (t_user, t_order)
    CREATE BROADCAST TABLE RULE t_dict
    CREATE READWRITE_SPLITTING RULE g0 (PRIMARY=ds0, REPLICAS(ds1, ds2))

RQL (Resource & Rule Query Language), and RAL's one read: every ``SHOW``
form is one entry of :data:`repro.distsql.show.SHOW_FORMS`.

RAL (Resource & Rule Administration Language)::

    SET VARIABLE transaction_type = XA
    CLEAR PLAN CACHE
    CLEAR RESULT CACHE
    RESET WORKLOAD
    PREVIEW SELECT * FROM t_user WHERE uid = 1
    TRACE SELECT * FROM t_user WHERE uid = 1
    MIGRATE TABLE t_user (RESOURCES(ds2, ds3), SHARDING_COLUMN=uid,
                          TYPE=hash_mod, PROPERTIES('sharding-count'=8))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..exceptions import DistSQLError
from ..sql.lexer import leading_words, tokenize
from ..sql.tokens import Token, TokenType
from .show import SHOW_FORMS


# ---------------------------------------------------------------------------
# Statement dataclasses
# ---------------------------------------------------------------------------


class DistSQLStatement:
    language = ""  # RDL / RQL / RAL


@dataclass
class RegisterResource(DistSQLStatement):
    language = "RDL"
    resources: list[tuple[str, dict[str, Any]]] = field(default_factory=list)


@dataclass
class UnregisterResource(DistSQLStatement):
    language = "RDL"
    names: list[str] = field(default_factory=list)


@dataclass
class CreateShardingTableRule(DistSQLStatement):
    language = "RDL"
    table: str = ""
    resources: list[str] = field(default_factory=list)
    sharding_column: str = ""
    algorithm_type: str = "HASH_MOD"
    properties: dict[str, Any] = field(default_factory=dict)
    key_generate_column: str | None = None
    key_generator: str = "SNOWFLAKE"
    alter: bool = False


@dataclass
class DropShardingTableRule(DistSQLStatement):
    language = "RDL"
    table: str = ""


@dataclass
class CreateBindingRule(DistSQLStatement):
    language = "RDL"
    tables: list[str] = field(default_factory=list)


@dataclass
class CreateBroadcastRule(DistSQLStatement):
    language = "RDL"
    table: str = ""


@dataclass
class CreateReadwriteSplittingRule(DistSQLStatement):
    language = "RDL"
    name: str = ""
    primary: str = ""
    replicas: list[str] = field(default_factory=list)


@dataclass
class ShowStatement(DistSQLStatement):
    language = "RQL"
    subject: str = ""  # a key of SHOW_FORMS
    #: the form's argument: a LIKE filter (SHOW METRICS LIKE 'engine_%'), a
    #: table (SHOW HOT KEYS FOR t) or a variable name (SHOW VARIABLE v)
    argument: str = ""


@dataclass
class SetVariable(DistSQLStatement):
    language = "RAL"
    name: str = ""
    value: Any = None


@dataclass
class Preview(DistSQLStatement):
    language = "RAL"
    sql: str = ""


@dataclass
class TraceStatement(DistSQLStatement):
    """Execute one statement with a one-shot trace and show the span tree."""

    language = "RAL"
    sql: str = ""


@dataclass
class ClearPlanCache(DistSQLStatement):
    """Drop every compiled plan from the engine's plan cache (RAL)."""

    language = "RAL"


@dataclass
class ClearResultCache(DistSQLStatement):
    """Drop every cached result from the engine's result cache (RAL)."""

    language = "RAL"


@dataclass
class ResetWorkload(DistSQLStatement):
    """Drop accumulated workload analytics (digests, heat, SLOs) (RAL)."""

    language = "RAL"


@dataclass
class MigrateTable(DistSQLStatement):
    """Online scaling: reshard a table onto a new layout (RAL)."""

    language = "RAL"
    table: str = ""
    resources: list[str] = field(default_factory=list)
    sharding_column: str = ""
    algorithm_type: str = "HASH_MOD"
    properties: dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Detection + parsing
# ---------------------------------------------------------------------------

#: DistSQL by its leading words: a one-word entry takes any second word
_HEADS = frozenset({
    *(tuple(head.split()) for head in (
        "REGISTER RESOURCE", "UNREGISTER RESOURCE", "CREATE SHARDING", "ALTER SHARDING",
        "DROP SHARDING", "CREATE BROADCAST", "CREATE READWRITE_SPLITTING", "CLEAR PLAN",
        "CLEAR RESULT", "SET VARIABLE", "PREVIEW", "TRACE", "MIGRATE TABLE", "RESET WORKLOAD",
    )),
    # one head per first word of a SHOW phrase
    *(("SHOW", form.phrase.split()[0]) for form in SHOW_FORMS.values()),
})

#: the first words of DistSQL: any other statement is plain SQL at one look
DISTSQL_VERBS = frozenset(head[0] for head in _HEADS)

#: SHOW phrases as word lists, longest first (the parser takes the longest match)
_SHOW_PHRASES = sorted(
    ((form.phrase.split(), form) for form in SHOW_FORMS.values()), key=lambda e: -len(e[0])
)


def is_distsql(sql: str, head: tuple[str, str] | None = None) -> bool:
    """Cheap syntactic check: is this statement DistSQL (vs plain SQL)?

    ``head`` is ``leading_words(sql)`` when the caller has already read it.
    """
    head = head or leading_words(sql)
    return head[:1] in _HEADS or head in _HEADS


def parse_distsql(sql: str) -> DistSQLStatement:
    """Parse one DistSQL statement."""
    return _Parser(sql).parse()


class _Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = [t for t in tokenize(sql) if not t.is_punct(";")]
        self.pos = 0

    # -- token helpers --------------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.pos]  # _next never moves past EOF

    def _next(self) -> Token:
        token = self._peek()
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def _accept_word(self, word: str) -> bool:
        token = self._peek()
        if token.type in (TokenType.KEYWORD, TokenType.IDENTIFIER) and token.value.upper() == word:
            self._next()
            return True
        return False

    def _expect_word(self, word: str) -> None:
        if not self._accept_word(word):
            raise DistSQLError(f"expected {word!r}, got {self._peek().value!r} in {self.sql!r}")

    def _expect_name(self) -> str:
        token = self._next()
        if token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            raise DistSQLError(f"expected a name, got {token.value!r}")
        return token.value

    def _expect_punct(self, char: str) -> None:
        token = self._next()
        if not token.is_punct(char):
            raise DistSQLError(f"expected {char!r}, got {token.value!r}")

    def _accept_punct(self, char: str) -> bool:
        if self._peek().is_punct(char):
            self._next()
            return True
        return False

    def _expect_eq(self) -> None:
        token = self._next()
        if not token.is_op("="):
            raise DistSQLError(f"expected '=', got {token.value!r}")

    def _value(self) -> Any:
        token = self._next()
        if token.type is TokenType.NUMBER:
            return float(token.value) if "." in token.value else int(token.value)
        if token.type is TokenType.STRING:
            return token.value
        if token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            return token.value
        raise DistSQLError(f"expected a value, got {token.value!r}")

    def _name_list(self) -> list[str]:
        self._expect_punct("(")
        names = [self._expect_name()]
        while self._accept_punct(","):
            names.append(self._expect_name())
        self._expect_punct(")")
        return names

    def _properties(self) -> dict[str, Any]:
        self._expect_punct("(")
        props: dict[str, Any] = {}
        if not self._peek().is_punct(")"):
            while True:
                key = self._value()
                self._expect_eq()
                props[str(key)] = self._value()
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        return props

    # -- entry ----------------------------------------------------------------

    def parse(self) -> DistSQLStatement:
        for verb, kind in (("PREVIEW", Preview), ("TRACE", TraceStatement)):
            if self._accept_word(verb):
                token = self.tokens[self.pos - 1]
                inner = self.sql[token.position + len(verb):].strip().rstrip(";")
                if not inner:
                    raise DistSQLError(f"{verb} requires a SQL statement")
                return kind(sql=inner)
        if self._accept_word("REGISTER"):
            return self._register_resource()
        if self._accept_word("UNREGISTER"):
            self._expect_word("RESOURCE")
            names = [self._expect_name()]
            while self._accept_punct(","):
                names.append(self._expect_name())
            return UnregisterResource(names=names)
        if self._accept_word("CREATE") or self._accept_word("ALTER"):
            alter = self.tokens[self.pos - 1].value.upper() == "ALTER"
            return self._create(alter)
        if self._accept_word("DROP"):
            self._expect_word("SHARDING")
            self._expect_word("TABLE")
            self._expect_word("RULE")
            return DropShardingTableRule(table=self._expect_name())
        if self._accept_word("SHOW"):
            return self._show()
        if self._accept_word("SET"):
            self._expect_word("VARIABLE")
            name = self._expect_name()
            self._expect_eq()
            return SetVariable(name=name, value=self._value())
        if self._accept_word("CLEAR"):
            if self._accept_word("RESULT"):
                self._expect_word("CACHE")
                return ClearResultCache()
            self._expect_word("PLAN")
            self._expect_word("CACHE")
            return ClearPlanCache()
        if self._accept_word("RESET"):
            self._expect_word("WORKLOAD")
            return ResetWorkload()
        if self._accept_word("MIGRATE"):
            self._expect_word("TABLE")
            rule = self._sharding_table_rule(alter=False)
            return MigrateTable(
                table=rule.table,
                resources=rule.resources,
                sharding_column=rule.sharding_column,
                algorithm_type=rule.algorithm_type,
                properties=rule.properties,
            )
        raise DistSQLError(f"not a DistSQL statement: {self.sql!r}")

    def _register_resource(self) -> RegisterResource:
        self._expect_word("RESOURCE")
        statement = RegisterResource()
        while True:
            name = self._expect_name()
            props: dict[str, Any] = {}
            if self._peek().is_punct("("):
                self._expect_punct("(")
                if self._accept_word("PROPERTIES"):
                    props = self._properties()
                self._expect_punct(")")
            statement.resources.append((name, props))
            if not self._accept_punct(","):
                break
        return statement

    def _create(self, alter: bool) -> DistSQLStatement:
        if self._accept_word("SHARDING"):
            if self._accept_word("TABLE"):
                self._expect_word("RULE")
                return self._sharding_table_rule(alter)
            if self._accept_word("BINDING"):
                self._expect_word("TABLE")
                self._expect_word("RULES")
                return CreateBindingRule(tables=self._name_list())
            raise DistSQLError("expected TABLE or BINDING after SHARDING")
        if self._accept_word("BROADCAST"):
            self._expect_word("TABLE")
            self._expect_word("RULE")
            return CreateBroadcastRule(table=self._expect_name())
        if self._accept_word("READWRITE_SPLITTING"):
            self._expect_word("RULE")
            statement = CreateReadwriteSplittingRule(name=self._expect_name())
            self._expect_punct("(")
            while True:
                if self._accept_word("PRIMARY"):
                    self._expect_eq()
                    statement.primary = self._expect_name()
                elif self._accept_word("REPLICAS"):
                    statement.replicas = self._name_list()
                else:
                    raise DistSQLError(f"unexpected token {self._peek().value!r}")
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
            return statement
        raise DistSQLError("unsupported CREATE/ALTER DistSQL statement")

    def _sharding_table_rule(self, alter: bool) -> CreateShardingTableRule:
        statement = CreateShardingTableRule(table=self._expect_name(), alter=alter)
        self._expect_punct("(")
        while True:
            if self._accept_word("RESOURCES"):
                statement.resources = self._name_list()
            elif self._accept_word("SHARDING_COLUMN"):
                self._expect_eq()
                statement.sharding_column = self._expect_name()
            elif self._accept_word("TYPE"):
                self._expect_eq()
                statement.algorithm_type = str(self._value()).upper()
            elif self._accept_word("PROPERTIES"):
                statement.properties = self._properties()
            elif self._accept_word("KEY_GENERATE_COLUMN"):
                self._expect_eq()
                statement.key_generate_column = self._expect_name()
            elif self._accept_word("KEY_GENERATOR"):
                self._expect_eq()
                statement.key_generator = str(self._value()).upper()
            else:
                raise DistSQLError(f"unexpected token {self._peek().value!r} in rule body")
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        if not statement.resources:
            raise DistSQLError("SHARDING TABLE RULE requires RESOURCES(...)")
        if not statement.sharding_column:
            raise DistSQLError("SHARDING TABLE RULE requires SHARDING_COLUMN=...")
        return statement

    def _show(self) -> ShowStatement:
        start = self.pos
        for words, form in _SHOW_PHRASES:
            if all(self._accept_word(word) for word in words):
                if form.argument == "NAME":
                    return ShowStatement(form.subject, self._expect_name())
                if form.argument and self._accept_word(form.argument):
                    return ShowStatement(form.subject, str(self._value()))
                return ShowStatement(form.subject)
            self.pos = start
        if self._accept_word("SHARDING") and self._accept_word("HEAT"):
            raise DistSQLError("did you mean SHOW SHARD HEAT?")
        raise DistSQLError(f"unsupported SHOW statement: {self.sql!r}")
