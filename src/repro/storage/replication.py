"""Replica groups with simulated asynchronous replication.

A :class:`ReplicaGroup` bundles a primary :class:`~repro.storage.engine.
DataSource` with N read replicas. Committed writes on the primary publish
row-image records to a group-shared :class:`ReplicationLog` (the analogue
of a durable binlog / WAL archive every replica can read); each replica
owns a :class:`ReplicaState` that applies records lazily, *after* a
configurable and jittered lag has elapsed, so replicas serve genuinely
stale snapshots until the log catches up.

Consistency model
-----------------
Replication is **convergent row-image shipping**: at commit time the
transaction re-reads every row it touched under the database write lock
and publishes the current image (or a delete marker). Applying a record
is therefore idempotent and order-tolerant per row — replicas converge to
the primary's state even when two transactions' publish order inverts
their execution order. Read-your-writes is layered on top with *causal
session tokens*: every publish stamps the committing **session's** token
(the :class:`~repro.session.SessionContext` active on the committing
thread — the thread that executes the statement, which issues every unit
and every participant's commit itself, so fan-out commits stamp the right
session) with the new LSN, and the rwsplit router only
considers replicas whose applied (or applicable-by-now) LSN covers the
token.

Promotion
---------
``ReplicaGroup.promote`` fences the dead primary (further DML/DDL raises
:class:`~repro.exceptions.DataSourceUnavailableError`), picks the
most-caught-up healthy replica (max applied LSN), force-applies the rest
of the shared log to it (no acknowledged write is lost — the log is the
durable source of truth), and installs it as the new primary publishing
to the *same* log so surviving replicas keep streaming seamlessly.
"""

from __future__ import annotations

import contextlib
import random
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .. import clock
from ..exceptions import DataSourceUnavailableError, DuplicateKeyError, StorageError
from ..session import current_session

if TYPE_CHECKING:
    from .database import Database
    from .engine import DataSource


# ---------------------------------------------------------------------------
# Causal session tokens (read-your-writes)
# ---------------------------------------------------------------------------

# Causal tokens live on the SessionContext (repro.session): the highest
# LSN the session has written per replication group, plus a primary-pin
# depth for PRIMARY-hinted reads. The module-level functions below keep
# the historical API — they resolve the *current* session, which is
# thread-scoped unless explicitly propagated across a thread boundary
# (see DESIGN.md "Sessions & the proxy reactor").


def session_token(group: str) -> int:
    """Highest LSN the current session has written in ``group`` (0 = none)."""
    return current_session().token(group)


def note_write(group: str, lsn: int) -> None:
    """Advance the current session's causal token for ``group`` to ``lsn``."""
    current_session().note_write(group, lsn)


def reset_session() -> None:
    """Forget the current session's causal tokens (a brand-new session)."""
    current_session().reset()


def pin_primary() -> "contextlib.AbstractContextManager[None]":
    """Force reads in this block to the primary (the PRIMARY hint)."""
    return current_session().pin()


def primary_pinned() -> bool:
    return current_session().pinned


# ---------------------------------------------------------------------------
# The shared replication log
# ---------------------------------------------------------------------------


class _LogRecord:
    __slots__ = ("lsn", "commit_time", "ops")

    def __init__(self, lsn: int, commit_time: float, ops: Sequence[tuple]):
        self.lsn = lsn
        self.commit_time = commit_time
        self.ops = ops


class ReplicationLog:
    """Append-only, group-shared commit log (durable binlog analogue).

    Records are appended under the log lock but *read* lock-free: the
    backing list only ever grows, and list append is atomic under the
    GIL, so replicas can check ``last_lsn`` / index records on the hot
    read path without contending with publishers. LSNs are 1-based and
    dense: record i (0-based) has lsn i+1.
    """

    def __init__(self, group: str):
        self.group = group
        self._records: list[_LogRecord] = []
        self._lock = threading.Lock()

    @property
    def last_lsn(self) -> int:
        return len(self._records)

    def record_at(self, index: int) -> _LogRecord | None:
        records = self._records
        return records[index] if index < len(records) else None

    def publish(self, ops: Sequence[tuple]) -> int:
        """Append one commit's ops; stamps the caller's causal token."""
        with self._lock:
            lsn = len(self._records) + 1
            self._records.append(_LogRecord(lsn, clock.now(), tuple(ops)))
        note_write(self.group, lsn)
        return lsn


# ---------------------------------------------------------------------------
# Per-replica apply state
# ---------------------------------------------------------------------------


class ReplicaState:
    """One replica's position in (and lag behind) the shared log.

    ``apply_due`` is called lazily from the replica connection's statement
    path: records whose ``commit_time + lag`` has passed are applied,
    everything younger stays invisible — a genuinely stale snapshot. The
    lag is redrawn (base ± jitter) after every applied batch from a
    per-replica seeded RNG so runs are reproducible.
    """

    def __init__(self, source: "DataSource", log: ReplicationLog,
                 lag: float = 0.0, jitter: float = 0.0,
                 seed: int | str | None = None):
        self.source = source
        self.log = log
        self.base_lag = lag
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._lag = self._draw_lag()
        self._applied = 0  # == applied LSN (records are dense, 1-based)
        self._lock = threading.Lock()
        self.records_applied = 0

    def _draw_lag(self) -> float:
        if self.jitter <= 0:
            return self.base_lag
        return max(0.0, self.base_lag * (1.0 + self.jitter * (2 * self._rng.random() - 1)))

    @property
    def applied_lsn(self) -> int:
        return self._applied

    def lag_records(self) -> int:
        return self.log.last_lsn - self._applied

    def staleness(self, now: float | None = None) -> float:
        """Seconds of committed-but-invisible history on this replica."""
        record = self.log.record_at(self._applied)
        if record is None:
            return 0.0
        if now is None:
            now = clock.now()
        return max(0.0, now - record.commit_time)

    def covers(self, lsn: int, now: float | None = None) -> bool:
        """Would a read routed here (which first runs ``apply_due``) see
        everything up to ``lsn``? True when already applied *or* the
        record is due now — routing then applies it before executing."""
        if self._applied >= lsn:
            return True
        record = self.log.record_at(lsn - 1)
        if record is None:
            return False
        if now is None:
            now = clock.now()
        return record.commit_time + self._lag <= now

    def apply_due(self, now: float | None = None) -> int:
        """Apply every record whose lag has elapsed; returns count applied."""
        log = self.log
        if self._applied >= log.last_lsn:
            return 0
        if now is None:
            now = clock.now()
        head = log.record_at(self._applied)
        if head is None or head.commit_time + self._lag > now:
            return 0
        return self._apply_through(lambda rec: rec.commit_time + self._lag <= now)

    def apply_all(self) -> int:
        """Catch up fully regardless of lag (promotion / bench sync)."""
        return self._apply_through(lambda rec: True)

    def _apply_through(self, due: Callable[[_LogRecord], bool]) -> int:
        applied = 0
        database = self.source.database
        with self._lock:
            with database.write_lock():
                while True:
                    record = self.log.record_at(self._applied)
                    if record is None or not due(record):
                        break
                    for op in record.ops:
                        _apply_op(database, op)
                    self._applied = record.lsn
                    applied += 1
            if applied:
                self.records_applied += applied
                self._lag = self._draw_lag()
        return applied


def _apply_op(database: "Database", op: tuple) -> None:
    """Apply one replicated op to a replica database, latency-free."""
    kind = op[0]
    if kind == "put":
        _, table_name, row_id, row = op
        table = database.table(table_name)
        try:
            table.raw_put(row_id, row)
        except DuplicateKeyError:
            # A stale row still occupies the unique slot (its delete is in
            # a record whose publish order inverted); evict it eagerly —
            # convergence: the primary's current image always wins.
            for stale_id in sorted(table.conflicting_row_ids(row)):
                if stale_id != row_id:
                    table.raw_remove(stale_id)
            table.raw_put(row_id, row)
        database.bump_data_version(table_name)
    elif kind == "del":
        database.table(op[1]).raw_remove(op[2])
        database.bump_data_version(op[1])
    elif kind == "create_table":
        database.create_table(op[1], if_not_exists=True)
    elif kind == "drop_table":
        database.drop_table(op[1], if_exists=True)
    elif kind == "truncate":
        database.table(op[1]).truncate()
        database.bump_schema_version(op[1])
    elif kind == "create_index":
        _, table_name, index_name, columns, unique = op
        try:
            database.table(op[1]).create_index(index_name, list(columns), unique)
        except StorageError:
            pass  # idempotent re-apply
        database.bump_schema_version(table_name)
    else:  # pragma: no cover - future-proofing
        raise StorageError(f"unknown replication op {kind!r}")


# ---------------------------------------------------------------------------
# Promotion events
# ---------------------------------------------------------------------------


@dataclass
class PromotionEvent:
    """One replica promotion (for SHOW/bench profile surfaces)."""

    group: str
    old_primary: str
    new_primary: str
    lsn: int
    at: float = 0.0


# ---------------------------------------------------------------------------
# The group
# ---------------------------------------------------------------------------


class ReplicaGroup:
    """A primary data source plus its asynchronously trailing replicas."""

    def __init__(self, primary: "DataSource", replicas: Sequence["DataSource"] = (),
                 lag: float = 0.0, jitter: float = 0.0, seed: int = 0):
        self.name = primary.name
        self.log = ReplicationLog(self.name)
        self.primary = primary
        self.lag = lag
        self.jitter = jitter
        self.seed = seed
        self.states: dict[str, ReplicaState] = {}
        self.promotions: list[PromotionEvent] = []
        primary.replica_group = self
        primary.database.replication = self.log
        for source in replicas:
            self.add_replica(source)

    # -- membership --------------------------------------------------------

    def add_replica(self, source: "DataSource", lag: float | None = None,
                    jitter: float | None = None) -> ReplicaState:
        state = ReplicaState(
            source, self.log,
            lag=self.lag if lag is None else lag,
            jitter=self.jitter if jitter is None else jitter,
            seed=f"{self.seed}:{source.name}",
        )
        source.replica = state
        source.replica_group = self
        self.states[source.name] = state
        return state

    @property
    def replica_names(self) -> list[str]:
        return list(self.states)

    # -- lag observability --------------------------------------------------

    def last_lsn(self) -> int:
        return self.log.last_lsn

    def applied_lsn(self, name: str) -> int:
        return self.states[name].applied_lsn

    def lag_records(self, name: str) -> int:
        return self.states[name].lag_records()

    def staleness(self, name: str) -> float:
        return self.states[name].staleness()

    def covers(self, name: str, lsn: int) -> bool:
        state = self.states.get(name)
        return state is not None and state.covers(lsn)

    def lag_report(self) -> list[dict[str, Any]]:
        """One row per replica (SHOW REPLICATION LAG / bench profile)."""
        last = self.log.last_lsn
        return [
            {
                "group": self.name,
                "replica": name,
                "applied_lsn": state.applied_lsn,
                "last_lsn": last,
                "lag_records": last - state.applied_lsn,
                "staleness_s": round(state.staleness(), 6),
                "configured_lag_s": state.base_lag,
            }
            for name, state in sorted(self.states.items())
        ]

    def sync(self) -> None:
        """Force every replica fully up to date (setup / tests)."""
        for state in self.states.values():
            state.apply_all()

    # -- promotion ----------------------------------------------------------

    def promote(self, is_up: Callable[[str], bool] | None = None) -> PromotionEvent:
        """Fence the primary and promote the most-caught-up replica."""
        old = self.primary
        old.fenced = True
        old.database.replication = None
        candidates = [
            state for name, state in self.states.items()
            if is_up is None or is_up(name)
        ]
        if not candidates:
            raise DataSourceUnavailableError(
                f"replica group {self.name!r}: no promotable replica"
            )
        best = max(candidates, key=lambda s: s.applied_lsn)
        best.apply_all()  # drain the durable log: no acknowledged write lost
        source = best.source
        del self.states[source.name]
        source.replica = None
        source.fenced = False
        source.replica_group = self
        source.database.replication = self.log
        self.primary = source
        event = PromotionEvent(
            group=self.name, old_primary=old.name, new_primary=source.name,
            lsn=self.log.last_lsn, at=clock.wall(),
        )
        self.promotions.append(event)
        return event
