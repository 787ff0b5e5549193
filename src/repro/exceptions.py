"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ShardingSphereError`,
so callers can catch one base type. Sub-hierarchies mirror the subsystems:
SQL parsing, storage, routing/rewriting, execution, transactions, governance
and DistSQL.
"""

from __future__ import annotations


class ShardingSphereError(Exception):
    """Base class for all errors raised by this library."""


class SQLParseError(ShardingSphereError):
    """A SQL statement could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class UnsupportedSQLError(SQLParseError):
    """The statement parsed but uses a feature the engine does not support."""


class StorageError(ShardingSphereError):
    """Base class for errors raised by the embedded storage engine."""


class TableNotFoundError(StorageError):
    """The referenced table does not exist in the data source."""


class TableAlreadyExistsError(StorageError):
    """CREATE TABLE for a name that already exists."""


class ColumnNotFoundError(StorageError):
    """The referenced column does not exist in the table."""


class DuplicateKeyError(StorageError):
    """A uniqueness constraint (primary key / unique index) was violated."""


class TypeCheckError(StorageError, ValueError):
    """A value does not conform to the declared column type, or an SQL
    operator or function cannot take it (``CAST('x' AS INT)``, ``'x' * 2``).
    Also a ``ValueError``, the class Python's own conversions raise."""


class ConnectionPoolExhaustedError(StorageError):
    """No connection could be acquired from the pool within the timeout.

    Carries the pool diagnostics (``pool_name``, ``in_use``, ``max_size``,
    ``waited`` seconds) so callers and logs can tell saturation apart from
    leaks without reparsing the message.
    """

    def __init__(
        self,
        message: str,
        *,
        pool_name: str | None = None,
        in_use: int | None = None,
        max_size: int | None = None,
        waited: float | None = None,
    ):
        super().__init__(message)
        self.pool_name = pool_name
        self.in_use = in_use
        self.max_size = max_size
        self.waited = waited


class ConnectionClosedError(StorageError):
    """Operation attempted on a closed connection or cursor."""


class ShardingConfigError(ShardingSphereError):
    """Invalid sharding rule or algorithm configuration."""


class UnknownAlgorithmError(ShardingConfigError):
    """A sharding algorithm type was requested that is not registered."""


class RouteError(ShardingSphereError):
    """The router could not map a logical statement to data nodes."""


class CoLocationError(RouteError):
    """A join's rows are not proved to meet on one data source, so shard
    units could miss pairs; the engine federates the SELECT instead."""


class RewriteError(ShardingSphereError):
    """The rewriter could not produce executable SQL."""


class MergeError(ShardingSphereError):
    """The result merger could not combine per-shard result sets."""


class ExecutionError(ShardingSphereError):
    """A routed statement failed during execution on a data source."""


class TransientError(ExecutionError):
    """A retryable backend hiccup (network jitter, deadlock victim, ...).

    The resilience policy may transparently retry statements that fail
    with this class; every other execution error is considered permanent.
    """


class ConnectionDropError(TransientError):
    """The server dropped the connection mid-statement (retryable on a
    fresh connection)."""


class DataSourceUnavailableError(ExecutionError):
    """The data source is down (crashed / injected outage).

    Not transparently retried against the same source: recovery is the
    job of health-aware routing (replica reads, broadcast degradation)
    and the per-source circuit breakers.
    """


class DeadlineExceededError(ExecutionError):
    """The statement's deadline/timeout budget ran out before completion."""


class TransactionError(ShardingSphereError):
    """Base class for distributed transaction failures."""


class XATransactionError(TransactionError):
    """A 2PC participant failed to prepare or commit."""


class BaseTransactionError(TransactionError):
    """A BASE (Seata-AT style) transaction failed."""


class GovernanceError(ShardingSphereError):
    """Registry / configuration management failure."""


class NodeNotFoundError(GovernanceError):
    """A registry path does not exist."""


class NodeExistsError(GovernanceError):
    """A registry path already exists."""


class BadVersionError(GovernanceError):
    """Optimistic version check failed on a registry write."""


class DistSQLError(ShardingSphereError):
    """A DistSQL statement is malformed or cannot be applied."""


class CircuitBreakerOpenError(ShardingSphereError):
    """The circuit breaker rejected the request."""


class ThrottledError(ShardingSphereError):
    """The rate limiter rejected the request."""


class ProtocolError(ShardingSphereError):
    """Wire-protocol framing or handshake failure."""


class ServerBusyError(ExecutionError):
    """The proxy's admission queue is full (backpressure, not failure).

    Deliberately retryable load-leveling: the server sheds the request
    with this response instead of growing its queue or spawning threads;
    clients back off and retry.
    """
