"""Distributed transaction abstractions (Section IV-B).

A :class:`DistributedTransaction` pins one connection per participating
data source for the lifetime of the transaction (statements of a
transaction must all flow through the same session on each shard). The
three concrete protocols — LOCAL (1PC), XA (2PC) and BASE (Seata-AT) —
differ only in how ``commit``/``rollback`` drive those pinned connections;
each round of either goes through :meth:`DistributedTransaction._on_each`,
which reaches every participant at once (DESIGN.md "Transaction end").
"""

from __future__ import annotations

import abc
import enum
import itertools
import threading
import uuid
from collections import deque
from typing import Callable, Mapping, Sequence

from ..exceptions import TransactionError
from ..storage import Connection, DataSource


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


#: ``submit(work, wanted)``: offer ``work`` to up to ``wanted`` other threads
#: without waiting for any of them (``ExecutionEngine.submit_helpers``)
SubmitHelpers = Callable[[Callable[[], None], int], None]

#: what one participant answered: its data source and the exception it
#: raised, or None
Outcome = tuple[str, "Exception | None"]


def caller_only(work: Callable[[], None], wanted: int) -> None:
    """The ``submit`` of a transaction without an engine: no helper runs,
    so the caller reaches the participants one after another, in order —
    what a saturated or closed worker pool degrades to as well."""


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

    def __init__(self, data_sources: Mapping[str, DataSource],
                 submit: SubmitHelpers = caller_only):
        self.data_sources = dict(data_sources)
        self.xid = new_xid()
        self.connections: dict[str, Connection] = {}
        #: ``(ds_name, exception)`` of the participants the last commit
        #: lost, in participant order (the adaptor counts them)
        self.failures: list[tuple[str, Exception]] = []
        self._submit = submit
        self._finished = False
        self._pin_lock = threading.Lock()

    # -- participant management ------------------------------------------

    def connection_for(self, ds_name: str) -> Connection:
        """Pin (lazily) the transaction's connection to one data source.

        Locked: a fanned-out statement inside the transaction reaches
        this from several executor workers at once, and racing pins
        would acquire (and leak) duplicate connections for one source.
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

    def _on_each(self, op: Callable[[str, Connection], None],
                 names: Sequence[str] | None = None) -> list[Outcome]:
        """Run ``op(ds_name, connection)`` on every participant at once.

        Returns ``(ds_name, exception | None)`` in participant order, once
        every participant has answered; ``names`` narrows the round to
        some of them (XA's phase 2 skips the branches that only read).

        The calling thread takes the first participant itself and then
        whatever is still unclaimed; ``submit`` offers the rest to at most
        one helper each. Helpers only ever shorten the wait: one that
        starts late finds nothing left to claim and one that never starts
        is not missed, so a full or closed pool costs the serial order
        and cannot deadlock. ``op`` runs on a helper inside the caller's
        session (``submit`` sees to that).
        """
        if names is None:
            names = sorted(self.connections)
        if not names:
            return []
        connections = self.connections
        outcomes: list[Exception | None] = [None] * len(names)
        unclaimed = deque(range(1, len(names)))
        lock = threading.Lock()
        all_answered = threading.Lock()  # held until the last answer is in
        all_answered.acquire()
        waiting = len(names)

        def work(index: int | None = None) -> None:
            nonlocal waiting
            while True:
                if index is None:
                    try:
                        index = unclaimed.popleft()
                    except IndexError:
                        return
                name = names[index]
                try:
                    op(name, connections[name])
                except Exception as exc:
                    outcomes[index] = exc
                finally:
                    with lock:
                        waiting -= 1
                        if not waiting:
                            all_answered.release()
                index = None

        if unclaimed:
            self._submit(work, len(unclaimed))
        work(0)
        all_answered.acquire()
        return list(zip(names, outcomes))

    def _release_all(self) -> None:
        self._finished = True
        for ds_name, connection in self.connections.items():
            self.data_sources[ds_name].pool.release(connection)
        self.connections = {}
