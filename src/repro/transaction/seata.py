"""BASE transactions in the Seata-AT style (Fig. 5(e) / Fig. 6).

Roles (all in-process, with simulated RPC latency for the TC hops):

- :class:`TransactionCoordinator` (TC) — maintains global and branch
  transaction status, drives global commit/rollback;
- ShardingSphere plays both TM and RM: it asks the TC for a global
  transaction id, registers branches, saves undo logs before local
  commits, and reports branch status.

Phase 1: every branch, at once, saves its undo log, commits locally, and
reports to the TC. Phase 2: on the application's commit, the status is
checked with the TC — all-OK deletes the undo logs; any failure restores
the data by replaying the undo logs, again on every branch at once
(eventual consistency via compensation).
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Any, Mapping

from .. import clock
from ..exceptions import BaseTransactionError
from ..storage import Connection, DataSource, latency
from ..storage.transaction import replay_undo
from .base import DistributedTransaction, TransactionType, Window, failed, new_xid


class GlobalStatus(enum.Enum):
    BEGIN = "begin"
    COMMITTING = "committing"
    COMMITTED = "committed"
    ROLLING_BACK = "rolling_back"
    ROLLED_BACK = "rolled_back"


@dataclass
class BranchRecord:
    ds_name: str
    status: str = "registered"  # registered | phase1_ok | phase1_failed | done
    undo_entries: list[Any] = field(default_factory=list)


@dataclass
class GlobalRecord:
    xid: str
    status: GlobalStatus = GlobalStatus.BEGIN
    branches: dict[str, BranchRecord] = field(default_factory=dict)


class TransactionCoordinator:
    """The Seata TC: global/branch status registry.

    ``rpc_delay`` simulates the network round trip every TC interaction
    costs in a real deployment (the reason BASE underperforms XA on the
    short transactions of Fig. 13).
    """

    def __init__(self, rpc_delay: float = 0.001):
        self.rpc_delay = rpc_delay
        self._lock = threading.Lock()
        self._globals: dict[str, GlobalRecord] = {}

    def _rpc(self) -> None:
        # paid as every simulated wait is, through ``pay`` as bound in
        # repro.storage.latency (what the benchmark harness wraps)
        latency.pay(self.rpc_delay)

    # -- TM-facing --------------------------------------------------------

    def begin_global(self) -> str:
        self._rpc()
        xid = new_xid("seata")
        with self._lock:
            self._globals[xid] = GlobalRecord(xid)
        return xid

    def global_status(self, xid: str) -> GlobalStatus:
        self._rpc()
        with self._lock:
            return self._globals[xid].status

    def branch_statuses(self, xid: str) -> dict[str, str]:
        self._rpc()
        with self._lock:
            return {name: b.status for name, b in self._globals[xid].branches.items()}

    def mark_global(self, xid: str, status: GlobalStatus) -> None:
        self._rpc()
        with self._lock:
            self._globals[xid].status = status

    def finish(self, xid: str) -> None:
        """Forget the global transaction, its branches and their undo logs
        (deleting a branch's undo log is its phase-2 commit)."""
        with self._lock:
            self._globals.pop(xid, None)

    # -- RM-facing ----------------------------------------------------------

    def register_branch(self, xid: str, ds_name: str) -> None:
        self._rpc()
        with self._lock:
            self._globals[xid].branches[ds_name] = BranchRecord(ds_name)

    def save_undo(self, xid: str, ds_name: str, undo_entries: list[Any]) -> None:
        with self._lock:
            self._globals[xid].branches[ds_name].undo_entries = undo_entries

    def report_branch(self, xid: str, ds_name: str, ok: bool) -> None:
        """Record a branch's phase-1 outcome. Its round trip is not slept
        here: the committing transaction waits for it as a deadline,
        ``rpc_delay`` after the branch's commit, with its other branches'."""
        with self._lock:
            branch = self._globals[xid].branches[ds_name]
            branch.status = "phase1_ok" if ok else "phase1_failed"

    def take_undo(self, xid: str, ds_name: str) -> list[Any]:
        with self._lock:
            branch = self._globals[xid].branches[ds_name]
            undo, branch.undo_entries = branch.undo_entries, []
            return undo


class SeataTransaction(DistributedTransaction):
    """One global BASE transaction in AT mode."""

    type = TransactionType.BASE

    def __init__(self, data_sources: Mapping[str, DataSource], coordinator: TransactionCoordinator):
        super().__init__(data_sources)
        self.coordinator = coordinator
        # Phase 0: require a global transaction id from the TC.
        self.xid = coordinator.begin_global()

    def on_branch_started(self, ds_name: str, connection: Connection) -> None:
        # Register the local transaction with the TC as it joins.
        self.coordinator.register_branch(self.xid, ds_name)

    # -- Phase 1 -----------------------------------------------------------

    def _phase1(self, ds_name: str, connection: Connection) -> Window:
        """One branch: save undo log, commit locally, report status. The
        report goes out when the commit's window ends and is in
        ``rpc_delay`` later: that is when the branch is through."""
        transaction = connection.current_transaction()
        undo = transaction.take_undo() if transaction is not None else []
        self.coordinator.save_undo(self.xid, ds_name, undo)
        try:
            priced, ready_at = connection.commit(wait=False) or (0.0, clock.now())
        except Exception:
            self.coordinator.report_branch(self.xid, ds_name, False)
            raise
        self.coordinator.report_branch(self.xid, ds_name, True)
        return priced, ready_at + self.coordinator.rpc_delay

    # -- Phase 2 ------------------------------------------------------------

    def commit(self) -> None:
        self._check_active()
        try:
            self.failures = failed(self._on_each(self._phase1))
            statuses = self.coordinator.branch_statuses(self.xid)
            if not self.failures and all(s == "phase1_ok" for s in statuses.values()):
                self.coordinator.mark_global(self.xid, GlobalStatus.COMMITTING)
                self.coordinator.mark_global(self.xid, GlobalStatus.COMMITTED)
                self.coordinator.finish(self.xid)  # drops the undo logs
                return
            # Some branch failed phase 1: compensate everything.
            self.coordinator.mark_global(self.xid, GlobalStatus.ROLLING_BACK)
            self._on_each(self._compensate)
            self.coordinator.mark_global(self.xid, GlobalStatus.ROLLED_BACK)
            self.coordinator.finish(self.xid)
            raise BaseTransactionError(
                f"BASE transaction {self.xid} failed phase 1; compensated"
            )
        finally:
            self._release_all()

    def rollback(self) -> None:
        self._check_active()
        try:
            # Branches not yet locally committed roll back locally; committed
            # ones (none before commit() in our flow) would be compensated.
            self.coordinator.mark_global(self.xid, GlobalStatus.ROLLING_BACK)
            self._on_each(lambda ds_name, connection: connection.rollback())
            self.coordinator.mark_global(self.xid, GlobalStatus.ROLLED_BACK)
            self.coordinator.finish(self.xid)
        finally:
            self._release_all()

    def _compensate(self, ds_name: str, connection: Connection) -> None:
        """One branch: replay its undo log, roll back what is still open."""
        undo = self.coordinator.take_undo(self.xid, ds_name)
        if undo:
            replay_undo(self.data_sources[ds_name].database, undo)
        if connection.in_transaction:
            connection.rollback()
