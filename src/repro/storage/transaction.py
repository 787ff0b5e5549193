"""Local transaction support for a single data source.

Each connection owns at most one open :class:`Transaction`. DML records
undo entries; ROLLBACK replays them in reverse. XA verbs (prepare /
commit-prepared / rollback-prepared) let the distributed transaction
managers in :mod:`repro.transaction` drive 2PC against this data source:
a prepared transaction is parked in the database's prepared-transaction
table and survives the originating connection closing, which is what makes
recovery after a coordinator crash testable.
"""

from __future__ import annotations

import enum
import threading
from typing import TYPE_CHECKING, Any

from ..exceptions import TransactionError, XATransactionError
from .table import Table

if TYPE_CHECKING:
    from .database import Database


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


class _UndoEntry:
    __slots__ = ("kind", "table", "row_id", "row")

    def __init__(self, kind: str, table: Table, row_id: int,
                 row: tuple[Any, ...] | None = None):
        self.kind = kind
        self.table = table
        self.row_id = row_id
        self.row = row


class Transaction:
    """Undo-logged unit of work against one database."""

    def __init__(self, database: "Database", xid: str | None = None):
        self.database = database
        self.xid = xid
        self.status = TxnStatus.ACTIVE
        self._undo: list[_UndoEntry] = []
        self._lock = threading.Lock()
        #: rows touched by this transaction, recorded only when the
        #: database is a replication primary: at commit the *current*
        #: images of these rows are published to the group log (see
        #: :mod:`repro.storage.replication` on why images-at-commit make
        #: replica application convergent under publish reordering).
        self._touched: dict[tuple[int, int], tuple[Table, int]] | None = (
            {} if database.replication is not None else None
        )

    def _touch(self, table: Table, row_id: int) -> None:
        if self._touched is not None:
            self._touched[(id(table), row_id)] = (table, row_id)

    # -- undo recording (called by the executor) -------------------------

    def record_insert(self, table: Table, row_id: int) -> None:
        with self._lock:
            self._undo.append(_UndoEntry("insert", table, row_id))
            self._touch(table, row_id)
        self.database.bump_data_version(table.name)

    def record_update(self, table: Table, row_id: int, old_row: tuple[Any, ...]) -> None:
        with self._lock:
            self._undo.append(_UndoEntry("update", table, row_id, old_row))
            self._touch(table, row_id)
        self.database.bump_data_version(table.name)

    def record_delete(self, table: Table, row_id: int, old_row: tuple[Any, ...]) -> None:
        with self._lock:
            self._undo.append(_UndoEntry("delete", table, row_id, old_row))
            self._touch(table, row_id)
        self.database.bump_data_version(table.name)

    @property
    def mutation_count(self) -> int:
        return len(self._undo)

    def take_undo(self) -> list[_UndoEntry]:
        """Detach the undo log (Seata-AT keeps it as the branch undo log:
        the local transaction then commits, and the detached entries allow
        later compensation via :func:`replay_undo`)."""
        with self._lock:
            undo, self._undo = self._undo, []
            return undo

    # -- 1PC ----------------------------------------------------------------

    def commit(self) -> tuple[float, float]:
        """Commit now; returns the commit's window ``(priced, ready_at)``
        for the caller to wait for."""
        self._check(TxnStatus.ACTIVE, TxnStatus.PREPARED)
        window = self.database.latency.charge_commit(self.database.maybe_fail("commit"))
        self._undo.clear()
        self.status = TxnStatus.COMMITTED
        if self._touched:
            publish_row_images(self.database, self._touched.values())
            self._touched = None
        return window

    def rollback(self) -> None:
        if self.status in (TxnStatus.COMMITTED, TxnStatus.ABORTED):
            return
        with self.database.write_lock():
            _apply_undo(self._undo)
        self._undo.clear()
        self._touched = None
        self.status = TxnStatus.ABORTED

    # -- 2PC (XA) -------------------------------------------------------------

    def prepare(self, xid: str) -> tuple[float, float]:
        """Phase 1: promise this transaction can commit; park it under xid.
        Returns the window of its log write, as :meth:`commit` does."""
        self._check(TxnStatus.ACTIVE)
        # prepare writes a log record
        window = self.database.latency.charge_commit(self.database.maybe_fail("prepare"))
        self.xid = xid
        self.status = TxnStatus.PREPARED
        self.database.park_prepared(xid, self)
        return window

    def _check(self, *allowed: TxnStatus) -> None:
        if self.status not in allowed:
            raise TransactionError(
                f"transaction in state {self.status.value}, expected {[s.value for s in allowed]}"
            )


def publish_row_images(database: "Database",
                       touched: "Any") -> None:
    """Publish current images of touched rows to the replication log.

    Re-reads each row under the write lock so the published image is the
    committed state *now* (convergent under concurrent-commit publish
    reordering); deletes within the batch are emitted before puts so a
    row that moved row ids never transiently violates a unique index on
    the replica.
    """
    replication = database.replication
    if replication is None:
        return
    deletes: list[tuple] = []
    puts: list[tuple] = []
    with database.write_lock():
        for table, row_id in touched:
            image = table.image(row_id)
            if image is None:
                deletes.append(("del", table.name, row_id))
            else:
                puts.append(("put", table.name, row_id, image))
    replication.publish(deletes + puts)


def _apply_undo(entries: list[_UndoEntry]) -> None:
    """Reverse each entry's write, newest first (the caller holds the
    database's write lock)."""
    for entry in reversed(entries):
        if entry.kind == "insert":
            entry.table.raw_remove(entry.row_id)
        elif entry.kind == "update":
            entry.table.raw_restore(entry.row_id, entry.row)  # type: ignore[arg-type]
        elif entry.kind == "delete":
            entry.table.raw_reinsert(entry.row_id, entry.row)  # type: ignore[arg-type]


def replay_undo(database: "Database", entries: list[_UndoEntry]) -> None:
    """Apply detached undo entries in reverse (Seata-AT compensation)."""
    with database.write_lock():
        _apply_undo(entries)
    if database.replication is not None and entries:
        publish_row_images(
            database, {(id(e.table), e.row_id): (e.table, e.row_id)
                       for e in entries}.values(),
        )


def commit_prepared(database: "Database", xid: str) -> tuple[float, float] | None:
    """Phase 2 commit of a parked prepared transaction; returns its window
    (see :meth:`Transaction.commit`), None for an xid already completed."""
    txn = database.take_prepared(xid)
    if txn is None:
        # Idempotent: an unknown xid means it was already completed.
        return None
    try:
        return txn.commit()
    except Exception as exc:  # pragma: no cover - failure injection path
        database.park_prepared(xid, txn)
        raise XATransactionError(f"commit of prepared xid {xid} failed: {exc}") from exc


def rollback_prepared(database: "Database", xid: str) -> None:
    """Phase 2 rollback of a parked prepared transaction."""
    txn = database.take_prepared(xid)
    if txn is None:
        return
    txn.rollback()
