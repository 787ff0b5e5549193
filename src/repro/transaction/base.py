"""Distributed transaction abstractions (Section IV-B).

A :class:`DistributedTransaction` pins one connection per participating
data source for the lifetime of the transaction (statements of a
transaction must all flow through the same session on each shard). The
three concrete protocols — LOCAL (1PC), XA (2PC) and BASE (Seata-AT) —
differ only in how ``commit``/``rollback`` drive those pinned connections;
each round of either goes through :meth:`DistributedTransaction._on_each`,
which issues the verb to every participant from the calling thread and
then waits once, for the window that ends last (DESIGN.md "Transaction
end").
"""

from __future__ import annotations

import abc
import enum
import itertools
import threading
import uuid
from typing import Callable, Mapping, Optional, Sequence

from ..exceptions import TransactionError
from ..storage import Connection, DataSource
from ..storage.latency import pay_all


class TransactionType(enum.Enum):
    """The three distributed transaction types ShardingSphere provides."""

    LOCAL = "LOCAL"
    XA = "XA"
    BASE = "BASE"

    @classmethod
    def of(cls, name: str) -> "TransactionType":
        try:
            return cls[name.upper()]
        except KeyError:
            raise TransactionError(
                f"unknown transaction type {name!r}; expected LOCAL, XA or BASE"
            ) from None


#: what one participant answered: its data source and the exception it
#: raised, or None
Outcome = tuple[str, "Exception | None"]

#: what issuing a verb on one participant leaves to wait for: ``(seconds
#: priced, instant its answer is in)``, or None for nothing
Window = Optional[tuple[float, float]]


def failed(outcomes: list[Outcome]) -> list[tuple[str, Exception]]:
    """The participants that raised, in participant order."""
    return [(ds_name, exc) for ds_name, exc in outcomes if exc is not None]


_xid_counter = itertools.count(1)


def new_xid(prefix: str = "ss") -> str:
    """Globally unique transaction id."""
    return f"{prefix}-{uuid.uuid4().hex[:12]}-{next(_xid_counter)}"


class DistributedTransaction(abc.ABC):
    """One open distributed transaction across the fleet."""

    type: TransactionType

    def __init__(self, data_sources: Mapping[str, DataSource]):
        self.data_sources = dict(data_sources)
        self.xid = new_xid()
        self.connections: dict[str, Connection] = {}
        #: ``(ds_name, exception)`` of the participants the last commit
        #: lost, in participant order (the adaptor counts them)
        self.failures: list[tuple[str, Exception]] = []
        self._finished = False
        self._pin_lock = threading.Lock()

    # -- participant management ------------------------------------------

    def connection_for(self, ds_name: str) -> Connection:
        """Pin (lazily) the transaction's connection to one data source.

        Locked, so that two threads driving one transaction cannot pin
        (and leak) two connections for one source.
        """
        self._check_active()
        connection = self.connections.get(ds_name)
        if connection is None:
            with self._pin_lock:
                connection = self.connections.get(ds_name)
                if connection is None:
                    source = self.data_sources[ds_name]
                    connection = source.pool.acquire()
                    connection.begin()
                    self.connections[ds_name] = connection
                    self.on_branch_started(ds_name, connection)
        return connection

    def on_branch_started(self, ds_name: str, connection: Connection) -> None:
        """Hook: a new participant joined (BASE registers branches here)."""

    @property
    def participants(self) -> list[str]:
        return sorted(self.connections)

    @property
    def finished(self) -> bool:
        return self._finished

    def _check_active(self) -> None:
        if self._finished:
            raise TransactionError(f"transaction {self.xid} already finished")

    # -- completion --------------------------------------------------------

    @abc.abstractmethod
    def commit(self) -> None:
        """Run the protocol's commit; must release all pinned connections."""

    @abc.abstractmethod
    def rollback(self) -> None:
        """Run the protocol's rollback; must release all pinned connections."""

    def _on_each(self, op: Callable[[str, Connection], Window],
                 names: Sequence[str] | None = None) -> list[Outcome]:
        """Issue ``op(ds_name, connection)`` to every participant, then wait once.

        ``op`` applies its verb at once and returns what is left to wait
        for (see :data:`Window`). The calling thread issues it to each
        participant in order; when all have answered it waits for the
        window that ends last, so N participants cost the slowest one, not
        the sum. Returns ``(ds_name, exception | None)`` in participant
        order; ``names`` narrows the round to some of them (XA's phase 2
        skips the branches that only read).
        """
        if names is None:
            names = sorted(self.connections)
        outcomes: list[Outcome] = []
        windows = []
        for name in names:
            try:
                window = op(name, self.connections[name])
            except Exception as exc:
                outcomes.append((name, exc))
                continue
            outcomes.append((name, None))
            if window is not None:
                windows.append(window)
        pay_all(windows)
        return outcomes

    def _release_all(self) -> None:
        self._finished = True
        for ds_name, connection in self.connections.items():
            self.data_sources[ds_name].pool.release(connection)
        self.connections = {}
