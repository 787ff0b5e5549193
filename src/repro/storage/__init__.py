"""Embedded relational storage engine — the "data sources" substrate.

The paper runs against real MySQL/PostgreSQL servers; this package is
their stand-in: a complete in-process SQL database with typed schemas,
indexes, streaming cursors, local + XA transactions, connection pools and
a tunable latency model (see DESIGN.md, substitution #1).
"""

from .connection import Connection, Cursor
from .database import Database
from .engine import DataSource
from .executor import QueryResult
from .faults import FaultInjector, FaultKind, FaultProfile
from .latency import LatencyModel
from .plans import StoragePlan, StoragePlanCache, execute_planned, execute_statement
from .pool import ConnectionPool
from .replication import (
    PromotionEvent,
    ReplicaGroup,
    ReplicaState,
    ReplicationLog,
    pin_primary,
    reset_session,
    session_token,
)
from .schema import Column, TableSchema
from .table import Table
from .transaction import Transaction, TxnStatus, commit_prepared, rollback_prepared
from .types import ColumnType, make_type

__all__ = [
    "DataSource",
    "Database",
    "Table",
    "TableSchema",
    "Column",
    "ColumnType",
    "make_type",
    "Connection",
    "Cursor",
    "ConnectionPool",
    "QueryResult",
    "execute_statement",
    "StoragePlan",
    "StoragePlanCache",
    "execute_planned",
    "Transaction",
    "TxnStatus",
    "commit_prepared",
    "rollback_prepared",
    "LatencyModel",
    "ReplicaGroup",
    "ReplicaState",
    "ReplicationLog",
    "PromotionEvent",
    "pin_primary",
    "reset_session",
    "session_token",
    "FaultInjector",
    "FaultKind",
    "FaultProfile",
]
