"""Seeded probabilistic fault injection for the storage substrate.

The paper's Governor exists because proxies and databases *do* fail; this
module is the chaos source that lets us exercise those paths on demand.
One :class:`FaultInjector` is shared by a fleet of data sources and is
consulted from ``Database.maybe_fail`` — i.e. on the exact hook points the
deterministic ``fail_next`` injection already uses ("statement",
"prepare", "commit") — so every execution, transaction and health-probe
path sees the same faults a real deployment would.

Fault kinds per data source:

- **transient** — raise :class:`TransientError`; models deadlock victims,
  brief network jitter. Retryable by the execution engine.
- **drop** — raise :class:`ConnectionDropError`; the connection marks
  itself closed, so a retry must re-acquire from the pool.
- **latency** — ``latency_spike`` more seconds for the operation to wait
  (a slow disk / GC pause); not an error, but it burns statement
  deadline budget.
- **crash** — the source goes down *and stays down* until ``revive()``;
  every operation raises :class:`DataSourceUnavailableError`. Health
  detection sees probes fail and marks the source DOWN.

All randomness comes from one seeded ``random.Random`` guarded by a lock,
so a chaos schedule is reproducible run-to-run (thread interleaving still
varies, which is why chaos tests assert invariants, not exact traces).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from ..exceptions import (
    ConnectionDropError,
    DataSourceUnavailableError,
    TransientError,
)


class FaultKind:
    """String constants for the injectable fault kinds."""

    TRANSIENT = "transient"
    DROP = "drop"
    LATENCY = "latency"
    CRASH = "crash"

    ALL = (TRANSIENT, DROP, LATENCY, CRASH)


@dataclass
class FaultProfile:
    """Per-data-source probabilistic fault rates (probabilities per op)."""

    transient_rate: float = 0.0
    drop_rate: float = 0.0
    latency_rate: float = 0.0
    #: seconds slept when a latency fault fires
    latency_spike: float = 0.002

    def __post_init__(self) -> None:
        for name in ("transient_rate", "drop_rate", "latency_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")


class FaultInjector:
    """Seeded chaos source shared across a fleet of data sources."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._profiles: dict[str, FaultProfile] = {}
        self._crashed: set[str] = set()
        #: (source, operation) -> queued one-shot fault kinds
        self._one_shots: dict[tuple[str, str], list[str]] = {}
        #: source -> fault kind -> times injected
        self._counts: dict[str, dict[str, int]] = {}
        #: source -> operations seen (faulted or not)
        self._ops: dict[str, int] = {}

    # -- configuration ----------------------------------------------------

    def configure(
        self,
        source: str,
        *,
        transient_rate: float = 0.0,
        drop_rate: float = 0.0,
        latency_rate: float = 0.0,
        latency_spike: float = 0.002,
    ) -> FaultProfile:
        """Set the probabilistic fault rates for one data source."""
        profile = FaultProfile(transient_rate, drop_rate, latency_rate, latency_spike)
        with self._lock:
            self._profiles[source] = profile
        return profile

    def fail_once(self, source: str, operation: str = "statement",
                  kind: str = FaultKind.TRANSIENT) -> None:
        """Queue one deterministic fault for the next ``operation`` on
        ``source`` (chaos schedules script these at known points).

        ``kind=FaultKind.CRASH`` additionally leaves the source crashed
        until :meth:`revive` — that is how a test crashes a participant
        *between* XA prepare and commit.
        """
        if kind not in FaultKind.ALL:
            raise ValueError(f"unknown fault kind {kind!r}; known: {FaultKind.ALL}")
        with self._lock:
            self._one_shots.setdefault((source, operation), []).append(kind)

    # -- outages -----------------------------------------------------------

    def crash(self, source: str) -> None:
        """Take the source down until :meth:`revive` (crash-until-revived)."""
        with self._lock:
            self._crashed.add(source)

    def revive(self, source: str) -> None:
        with self._lock:
            self._crashed.discard(source)

    def is_crashed(self, source: str) -> bool:
        with self._lock:
            return source in self._crashed

    # -- the hook ----------------------------------------------------------

    def on_operation(self, source: str, operation: str) -> float:
        """Called by ``Database.maybe_fail`` before every operation.

        Raises the injected error, or returns the seconds of an injected
        latency spike (0.0 without one): the caller adds them to what the
        operation waits for — in place, or on an issued statement as a
        later start of its I/O window. Nothing sleeps here. At most one
        fault fires per operation; crash state dominates.
        """
        with self._lock:
            self._ops[source] = self._ops.get(source, 0) + 1
            if source in self._crashed:
                self._count_locked(source, FaultKind.CRASH)
                raise DataSourceUnavailableError(
                    f"data source {source!r} is down (injected outage)"
                )
            kind = self._draw_locked(source, operation)
            if kind is None:
                return 0.0
            self._count_locked(source, kind)
            if kind == FaultKind.CRASH:
                self._crashed.add(source)
                raise DataSourceUnavailableError(
                    f"data source {source!r} crashed (injected, on {operation})"
                )
            if kind == FaultKind.LATENCY:
                profile = self._profiles.get(source)
                return profile.latency_spike if profile is not None else 0.002
        if kind == FaultKind.TRANSIENT:
            raise TransientError(
                f"injected transient error on {operation} in {source!r}"
            )
        raise ConnectionDropError(
            f"injected connection drop on {operation} in {source!r}"
        )

    def _draw_locked(self, source: str, operation: str) -> str | None:
        queued = self._one_shots.get((source, operation))
        if queued:
            return queued.pop(0)
        profile = self._profiles.get(source)
        if profile is None or operation != "statement":
            # Probabilistic faults only hit the statement path; prepare and
            # commit faults are scripted via fail_once for determinism.
            return None
        roll = self._rng.random()
        if roll < profile.transient_rate:
            return FaultKind.TRANSIENT
        roll -= profile.transient_rate
        if roll < profile.drop_rate:
            return FaultKind.DROP
        roll -= profile.drop_rate
        if roll < profile.latency_rate:
            return FaultKind.LATENCY
        return None

    # -- observability -----------------------------------------------------

    def _count_locked(self, source: str, kind: str) -> None:
        by_kind = self._counts.setdefault(source, {})
        by_kind[kind] = by_kind.get(kind, 0) + 1

    def injected(self, source: str | None = None, kind: str | None = None) -> int:
        """Number of faults injected, optionally filtered."""
        with self._lock:
            sources = [source] if source is not None else list(self._counts)
            total = 0
            for name in sources:
                by_kind = self._counts.get(name, {})
                if kind is not None:
                    total += by_kind.get(kind, 0)
                else:
                    total += sum(by_kind.values())
            return total

    def snapshot(self) -> dict[str, dict[str, int]]:
        """{source: {kind: count, "ops": seen}} for reports and tests."""
        with self._lock:
            out: dict[str, dict[str, int]] = {}
            for name in set(self._counts) | set(self._ops):
                row = dict(self._counts.get(name, {}))
                row["ops"] = self._ops.get(name, 0)
                out[name] = row
            return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector(seed={self.seed}, sources={sorted(self._profiles)})"
