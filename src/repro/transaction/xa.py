"""XA transactions: 2-phase commit with logging and recovery (Fig. 5(c)).

Phase 1 sends *prepare* to every resource manager (data source) at once
and waits for every answer; any "NO" rolls back everything (the branches
that did prepare with ``xa_rollback``, the rest with ``rollback``). A
branch that only read votes read-only: it ends at its prepare and takes
no part in phase 2. Phase 2 commits the prepared branches, again at once.
The coordinator writes a :class:`XATransactionLog` record before each
phase — PREPARING before the first prepare goes out, PREPARED and
COMMITTING only after the last answer is in — so if some branch commits
fail after a successful phase 1 (server down, network jitter), the
decision survives and :func:`recover` re-commits the in-doubt branches
later, exactly as the paper describes.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Collection, Mapping

from ..exceptions import XATransactionError
from ..storage import Connection, DataSource, commit_prepared
from ..storage.latency import pay_all
from .base import DistributedTransaction, TransactionType, Window, failed


class XAState(enum.Enum):
    ACTIVE = "active"
    PREPARING = "preparing"
    PREPARED = "prepared"
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class XALogRecord:
    """Durable record of one global transaction's progress."""

    xid: str
    participants: list[str] = field(default_factory=list)
    state: XAState = XAState.ACTIVE
    #: participants whose phase-2 commit is still pending
    pending: list[str] = field(default_factory=list)


class XATransactionLog:
    """Coordinator log (the paper's "record logs" before 2PC).

    In-memory but shared: create one per deployment and pass it to every
    manager; recovery reads it after a simulated coordinator restart.
    """

    def __init__(self) -> None:
        self._records: dict[str, XALogRecord] = {}
        self._lock = threading.Lock()

    def put(self, record: XALogRecord) -> None:
        with self._lock:
            self._records[record.xid] = record

    def update(self, xid: str, state: XAState, pending: list[str] | None = None) -> None:
        with self._lock:
            record = self._records[xid]
            record.state = state
            if pending is not None:
                record.pending = list(pending)

    def remove(self, xid: str) -> None:
        with self._lock:
            self._records.pop(xid, None)

    def get(self, xid: str) -> XALogRecord | None:
        with self._lock:
            return self._records.get(xid)

    def in_doubt(self) -> list[XALogRecord]:
        """Transactions whose outcome was decided but not fully applied."""
        with self._lock:
            return [
                XALogRecord(r.xid, list(r.participants), r.state, list(r.pending))
                for r in self._records.values()
                if r.state in (XAState.COMMITTING, XAState.PREPARED)
            ]


class XATransaction(DistributedTransaction):
    """One global XA transaction driven through 2PC."""

    type = TransactionType.XA

    def __init__(self, data_sources: Mapping[str, DataSource], log: XATransactionLog | None = None):
        super().__init__(data_sources)
        self.log = log if log is not None else XATransactionLog()
        self.log.put(XALogRecord(xid=self.xid))

    def _branch_xid(self, ds_name: str) -> str:
        return f"{self.xid}:{ds_name}"

    def commit(self) -> None:
        self._check_active()
        try:
            participants = self.participants
            self.log.put(XALogRecord(self.xid, participants, XAState.PREPARING, []))

            # ---- Phase 1: prepare, every branch at once ----------------------
            parked: set[str] = set()  # branches that wrote: prepared and parked

            def prepare(ds_name: str, connection: Connection) -> Window:
                window = connection.xa_prepare(self._branch_xid(ds_name), wait=False)
                if window is not None:
                    parked.add(ds_name)
                return window

            refused = failed(self._on_each(prepare))
            prepared = sorted(parked)  # participant order
            if refused:
                # Some RM answered "NO": roll everything back.
                self.failures = refused
                self._rollback_branches(parked)
                ds_name, exc = refused[0]
                raise XATransactionError(
                    f"prepare failed on {ds_name!r}: {exc}"
                ) from exc
            # Every branch answered and every prepare's window is over; a
            # branch that only read ended at its prepare and has no phase 2.
            self.log.update(self.xid, XAState.PREPARED, pending=prepared)

            # ---- Phase 2: commit the prepared branches, at once -------------
            self.log.update(self.xid, XAState.COMMITTING, pending=prepared)
            self.failures = failed(self._on_each(
                lambda ds_name, connection: connection.xa_commit(
                    self._branch_xid(ds_name), wait=False),
                prepared,
            ))
            if self.failures:
                # Decision stands: keep the branches pending for recovery.
                still_pending = [ds_name for ds_name, _ in self.failures]
                self.log.update(self.xid, XAState.COMMITTING, pending=still_pending)
                raise XATransactionError(
                    f"commit incomplete on {still_pending}; will be recovered"
                ) from self.failures[0][1]
            self.log.update(self.xid, XAState.COMMITTED, pending=[])
            self.log.remove(self.xid)
        finally:
            self._release_all()

    def _rollback_branches(self, parked: Collection[str] = ()) -> None:
        """Abort: ``xa_rollback`` the parked branches, ``rollback`` the rest."""

        def rollback(ds_name: str, connection: Connection) -> None:
            if ds_name in parked:
                connection.xa_rollback(self._branch_xid(ds_name))
            else:
                connection.rollback()

        self._on_each(rollback)
        self.log.update(self.xid, XAState.ABORTED, pending=[])
        self.log.remove(self.xid)

    def rollback(self) -> None:
        self._check_active()
        try:
            self._rollback_branches()
        finally:
            self._release_all()


def recover(log: XATransactionLog, data_sources: Mapping[str, DataSource]) -> int:
    """Finish in-doubt transactions after a coordinator restart.

    PREPARED / COMMITTING records mean phase 1 fully succeeded, so the
    decision is COMMIT: re-commit every pending branch (idempotent — a
    branch whose prepared transaction is gone was already committed). The
    commits are issued one after the other and awaited once, for the
    window that ends last; only then are the records closed. Returns the
    number of transactions completed.
    """
    in_doubt = log.in_doubt()
    windows = []
    try:
        for record in in_doubt:
            for ds_name in (record.pending or record.participants):
                source = data_sources.get(ds_name)
                if source is not None:
                    windows.append(commit_prepared(source.database, f"{record.xid}:{ds_name}"))
    finally:
        pay_all([window for window in windows if window is not None])
    for record in in_doubt:
        log.update(record.xid, XAState.COMMITTED, pending=[])
        log.remove(record.xid)
    return len(in_doubt)
