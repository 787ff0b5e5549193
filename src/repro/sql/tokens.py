"""Token definitions for the SQL lexer."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    PLACEHOLDER = "placeholder"
    EOF = "eof"


# Keywords recognized by the lexer. Identifiers matching these
# (case-insensitively) are emitted as KEYWORD tokens with upper-cased value.
KEYWORDS = frozenset(
    """
    SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET ASC DESC
    INSERT INTO VALUES UPDATE SET DELETE
    CREATE TABLE DROP INDEX TRUNCATE ALTER ADD RENAME TO UNIQUE
    PRIMARY KEY NOT NULL DEFAULT AUTO_INCREMENT REFERENCES FOREIGN
    JOIN INNER LEFT RIGHT FULL OUTER CROSS ON USING AS
    AND OR IN IS BETWEEN LIKE EXISTS ALL ANY SOME
    DISTINCT UNION EXCEPT INTERSECT
    COUNT SUM AVG MIN MAX
    BEGIN START TRANSACTION COMMIT ROLLBACK SAVEPOINT RELEASE WORK
    TRUE FALSE
    INT INTEGER BIGINT SMALLINT FLOAT DOUBLE DECIMAL NUMERIC REAL
    VARCHAR CHAR TEXT BOOLEAN BOOL DATE TIME TIMESTAMP DATETIME BLOB
    SHOW DESCRIBE EXPLAIN USE
    IF CASE WHEN THEN ELSE END CAST
    FOR SHARE OF NOWAIT
    """.split()
)


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``value`` is upper-cased for keywords, verbatim for everything else.
    ``position`` is the token's character offset in the source string.
    """

    type: TokenType
    value: str
    position: int

    def matches(self, *keywords: str) -> bool:
        """Return True if this token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in keywords

    def is_punct(self, char: str) -> bool:
        return self.type is TokenType.PUNCTUATION and self.value == char

    def is_op(self, op: str) -> bool:
        return self.type is TokenType.OPERATOR and self.value == op
