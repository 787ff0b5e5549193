"""Distributed transaction abstractions (Section IV-B).

A :class:`DistributedTransaction` pins one connection per participating
data source for the lifetime of the transaction (statements of a
transaction must all flow through the same session on each shard). The
three concrete protocols — LOCAL (1PC), XA (2PC) and BASE (Seata-AT) —
differ only in how ``commit``/``rollback`` drive those pinned connections;
each round of either goes through :meth:`DistributedTransaction._on_each`,
which issues the verb to every participant from the calling thread as one
step of the open scope: the round costs the window that ends last, and the
next round starts after it (DESIGN.md "Transaction end").
"""

from __future__ import annotations

import abc
import enum
import itertools
import threading
import uuid
from typing import Any, Callable, Mapping, Sequence

from .. import clock
from ..exceptions import TransactionError
from ..storage import Connection, DataSource, latency


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

    def _on_each(self, op: Callable[[str, Connection], Any],
                 names: Sequence[str] | None = None) -> list[Outcome]:
        """Issue ``op(ds_name, connection)`` to every participant: one round.

        ``op`` applies its verb at once and books what is left to wait for.
        The calling thread issues it to each participant in order, as one
        step of the open scope (with none open, the outermost scope, which
        pays): N participants cost the slowest one, not the sum, and the
        next step starts when it ends. Returns ``(ds_name, exception |
        None)`` in participant order; ``names`` narrows the round to some
        of them (XA's phase 2 skips the branches that only read).
        """
        if names is None:
            names = sorted(self.connections)
        outcomes: list[Outcome] = []
        booked = latency.booking.get()
        token = None if booked is not None else latency.booking.set(booked := latency.Booked())
        try:
            for name in names:
                try:
                    op(name, self.connections[name])
                except Exception as exc:
                    outcomes.append((name, exc))
                    continue
                outcomes.append((name, None))
        finally:
            booked.lag = max(booked.lag, booked.ready_at - clock.now())
            if token is not None:
                latency.booking.reset(token)
                if booked.ready_at:
                    latency.pay(booked.priced, clock.now() + booked.lag)
        return outcomes

    def _release_all(self) -> None:
        self._finished = True
        for ds_name, connection in self.connections.items():
            self.data_sources[ds_name].pool.release(connection)
        self.connections = {}
