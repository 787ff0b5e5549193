"""Transaction manager: creates distributed transactions of the active type.

The adaptors hold one manager per logical connection; ``SET VARIABLE
transaction_type = <LOCAL|XA|BASE>`` (DistSQL RAL) switches the type at
runtime, as in Section V-A of the paper.
"""

from __future__ import annotations

from typing import Mapping

from ..exceptions import TransactionError
from ..storage import DataSource
from .base import DistributedTransaction, TransactionType
from .local import LocalTransaction
from .seata import SeataTransaction, TransactionCoordinator
from .xa import XATransaction, XATransactionLog


class TransactionManager:
    """Factory + policy holder for distributed transactions."""

    def __init__(
        self,
        data_sources: Mapping[str, DataSource],
        default_type: TransactionType = TransactionType.LOCAL,
        xa_log: XATransactionLog | None = None,
        coordinator: TransactionCoordinator | None = None,
    ):
        self.data_sources = data_sources if isinstance(data_sources, dict) else dict(data_sources)
        self.transaction_type = default_type
        self.xa_log = xa_log if xa_log is not None else XATransactionLog()
        self.coordinator = coordinator if coordinator is not None else TransactionCoordinator()

    def set_type(self, type_name: str | TransactionType) -> None:
        if isinstance(type_name, TransactionType):
            self.transaction_type = type_name
        else:
            self.transaction_type = TransactionType.of(type_name)

    def begin(self) -> DistributedTransaction:
        if self.transaction_type is TransactionType.LOCAL:
            return LocalTransaction(self.data_sources)
        if self.transaction_type is TransactionType.XA:
            return XATransaction(self.data_sources, self.xa_log)
        if self.transaction_type is TransactionType.BASE:
            return SeataTransaction(self.data_sources, self.coordinator)
        raise TransactionError(f"unsupported transaction type {self.transaction_type}")
