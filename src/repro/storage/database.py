"""A database: named tables plus concurrency control and failure injection.

Writes take the database write lock; the simulated I/O latency is charged
*outside* the lock so concurrent clients overlap their waits the way they
overlap real disk/network I/O. The prepared-transaction table backs XA
recovery (see :mod:`repro.storage.transaction`).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Iterator

from ..exceptions import (
    ExecutionError,
    StorageError,
    TableAlreadyExistsError,
    TableNotFoundError,
)
from ..sql import ast
from .latency import LatencyModel
from .plans import StoragePlanCache
from .schema import TableSchema
from .table import Table


class Database:
    """Named collection of tables within one data source."""

    def __init__(self, name: str, latency: LatencyModel | None = None):
        self.name = name
        self.latency = latency if latency is not None else LatencyModel.off()
        self._tables: dict[str, Table] = {}
        self._lock = threading.RLock()
        self._prepared: dict[str, Any] = {}
        self._fail_on: dict[str, int] = {}
        #: per-table monotonic schema versions; compiled storage plans pin
        #: the versions they were built against. Entries are never removed
        #: (DROP leaves the counter behind) so DROP + CREATE invalidates.
        self._schema_versions: dict[str, int] = {}
        #: bumped with every table's schema version: a statement's bound
        #: storage plan (``Statement.bound_plan``) holds while this holds
        self.schema_epoch = 0
        #: per-table monotonic data versions (see data_version below);
        #: keys are lower-cased table names.
        self._data_versions: dict[str, int] = {}
        #: compiled statement plans for this database (see .plans).
        self.plan_cache = StoragePlanCache()
        #: optional probabilistic chaos source (see :mod:`repro.storage.faults`);
        #: set via :meth:`set_fault_injector` and shared fleet-wide.
        self.fault_injector: Any | None = None
        #: whether :meth:`maybe_fail` may fail or delay: a failure was armed
        #: or an injector is installed. Until then the storage door tests
        #: this flag instead of calling it.
        self.armed = False
        #: the group replication log when this database is a primary in a
        #: :class:`repro.storage.replication.ReplicaGroup` (None otherwise).
        #: Committed transactions and DDL publish records to it.
        self.replication: Any | None = None
        #: statements executed against this database (queries included);
        #: the engine-level result cache's "zero storage work" claim is
        #: asserted against this counter in tests.
        self.statements_executed = 0

    # -- schema versions (compiled-plan invalidation) -----------------------

    def schema_version(self, name: str) -> int:
        return self._schema_versions.get(name.lower(), 0)

    def bump_schema_version(self, name: str) -> None:
        with self._lock:
            key = name.lower()
            self._schema_versions[key] = self._schema_versions.get(key, 0) + 1
            self.schema_epoch += 1
            self._data_versions[key] = self._data_versions.get(key, 0) + 1

    # -- data versions (result-cache invalidation) --------------------------
    #
    # Bumped on every recorded row mutation (always under the database
    # write lock) and on DDL. The engine-level result cache guards each
    # entry with the (database, table, version) triples it read, so any
    # write — from this engine, another runtime sharing the storage, or
    # replication apply on a replica — invalidates by comparison.

    def data_version(self, name: str) -> int:
        return self._data_versions.get(name.lower(), 0)

    def bump_data_version(self, name: str) -> None:
        key = name.lower()
        self._data_versions[key] = self._data_versions.get(key, 0) + 1

    # -- failure injection (tests / recovery experiments) ------------------

    def fail_next(self, operation: str, times: int = 1) -> None:
        """Make the next ``times`` occurrences of ``operation`` raise.

        Operations: "prepare", "commit", "statement".
        """
        with self._lock:
            self._fail_on[operation] = self._fail_on.get(operation, 0) + times
            self.armed = True

    def set_fault_injector(self, injector: Any | None) -> None:
        """Attach (or detach, with None) a chaos source."""
        with self._lock:
            self.fault_injector = injector
            self.armed = bool(self._fail_on) or injector is not None

    def maybe_fail(self, operation: str) -> float:
        """Raise the failure armed for ``operation``, if any; otherwise the
        seconds of an injected latency spike the caller must add to what
        the operation waits for (0.0 almost always)."""
        # Fast path: nothing armed. Read without the lock — failures and
        # injectors are set before the workload that should observe them
        # runs, so the race-free guarantee of the lock is not needed just
        # to see "nothing armed".
        if not self.armed:
            return 0.0
        with self._lock:
            remaining = self._fail_on.get(operation, 0)
            if remaining > 0:
                self._fail_on[operation] = remaining - 1
                raise ExecutionError(f"injected failure on {operation} in database {self.name!r}")
        injector = self.fault_injector
        if injector is not None:
            return injector.on_operation(self.name, operation)
        return 0.0

    # -- locking -------------------------------------------------------------

    @contextlib.contextmanager
    def write_lock(self) -> Iterator[None]:
        with self._lock:
            yield

    # -- tables ----------------------------------------------------------------

    def create_table(self, schema: TableSchema, if_not_exists: bool = False) -> Table:
        with self._lock:
            key = schema.name.lower()
            if key in self._tables:
                if if_not_exists:
                    return self._tables[key]
                raise TableAlreadyExistsError(f"table {schema.name!r} already exists in {self.name}")
            table = Table(schema)
            self._tables[key] = table
            self.bump_schema_version(key)
            if self.replication is not None:
                # Schemas are immutable after creation; sharing the object
                # with replicas is safe.
                self.replication.publish([("create_table", schema)])
            return table

    def create_table_from_ast(self, stmt: ast.CreateTableStatement) -> Table:
        return self.create_table(TableSchema.from_ast(stmt), if_not_exists=stmt.if_not_exists)

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        with self._lock:
            key = name.lower()
            if key not in self._tables:
                if if_exists:
                    return
                raise TableNotFoundError(f"table {name!r} not found in {self.name}")
            del self._tables[key]
            self.bump_schema_version(key)
            if self.replication is not None:
                self.replication.publish([("drop_table", key)])

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise TableNotFoundError(f"table {name!r} not found in {self.name}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return sorted(t.schema.name for t in self._tables.values())

    # -- prepared (XA) transactions --------------------------------------------

    def park_prepared(self, xid: str, txn: Any) -> None:
        with self._lock:
            self._prepared[xid] = txn

    def take_prepared(self, xid: str) -> Any | None:
        with self._lock:
            return self._prepared.pop(xid, None)

    def prepared_xids(self) -> list[str]:
        with self._lock:
            return sorted(self._prepared)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.name!r}, tables={self.table_names()})"
