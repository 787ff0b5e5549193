"""LOCAL transactions: 1-phase commit (Fig. 5(d) of the paper).

The commit/rollback command is issued to every participant, with no
prepare phase, as one round that costs the slowest commit. Per the
paper: "Even if some data source commits fail, ShardingSphere will ignore
it" — best-effort, fastest, weakest. What was lost stays visible:
``failures`` names the participants whose commit raised, and the adaptor
counts them.
"""

from __future__ import annotations

from .base import DistributedTransaction, TransactionType, failed


class LocalTransaction(DistributedTransaction):
    """Fan-out 1PC across all pinned connections."""

    type = TransactionType.LOCAL

    def commit(self) -> None:
        self._check_active()
        try:
            # best effort: a failed participant is recorded, not raised
            self.failures = failed(self._on_each(
                lambda ds_name, connection: connection.commit()))
        finally:
            self._release_all()

    def rollback(self) -> None:
        self._check_active()
        try:
            self._on_each(lambda ds_name, connection: connection.rollback())
        finally:
            self._release_all()
