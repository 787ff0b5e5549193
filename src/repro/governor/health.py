"""Health detection (Section V-B).

"Governor launches a thread to check periodically the statuses of each
ShardingSphere-Proxy instance and the underlying databases. If one
ShardingSphere-Proxy is down or the primary nodes are changed, Governor
would change the configurations automatically."

:class:`HealthDetector` pings every data source (``SELECT 1``), records
UP/DOWN in the config center, and — for primary/replica groups used by
read-write splitting — promotes the first healthy replica when a primary
goes down, rewriting the group config so the system keeps working (in
``ShardingRuntime.apply_rule``'s shape, keeping ``source``, the group's
name for the router).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .. import clock
from ..exceptions import DataSourceUnavailableError
from ..storage import DataSource
from .config import ConfigCenter


@dataclass
class ReplicaGroup:
    """A primary with its replicas (the unit of failover)."""

    name: str
    primary: str
    replicas: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class FailoverEvent:
    """One recorded primary promotion, with its detection-to-promotion lag."""

    group: str
    old_primary: str
    new_primary: str
    detected_at: float
    promoted_at: float

    @property
    def latency(self) -> float:
        """Seconds between DOWN detection and the replacement promotion."""
        return self.promoted_at - self.detected_at


class HealthDetector:
    """Periodic health checks + automatic primary failover."""

    def __init__(
        self,
        data_sources: Mapping[str, DataSource],
        config: ConfigCenter,
        groups: list[ReplicaGroup] | None = None,
        interval: float = 1.0,
        prober: Callable[[DataSource], bool] | None = None,
    ):
        self.data_sources = dict(data_sources)
        self.config = config
        self.groups = {g.name: g for g in (groups or [])}
        self.interval = interval
        self.prober = prober or _default_probe
        self.failover_listeners: list[Callable[[str, str, str], None]] = []
        #: promotion history with detection->promotion latency per event
        self.failover_events: list[FailoverEvent] = []
        self._down: set[str] = set()
        self._down_since: dict[str, float] = {}
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True, name="ss-health")
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.check_once()

    # -- checking --------------------------------------------------------------

    def is_up(self, name: str) -> bool:
        with self._lock:
            return name not in self._down

    def check_once(self) -> dict[str, bool]:
        """Probe everything once; returns {name: healthy}."""
        statuses: dict[str, bool] = {}
        for name, source in self.data_sources.items():
            healthy = self.prober(source)
            statuses[name] = healthy
            self.config.set_status(f"datasource/{name}", "UP" if healthy else "DOWN")
            with self._lock:
                was_down = name in self._down
                if healthy:
                    self._down.discard(name)
                    self._down_since.pop(name, None)
                else:
                    self._down.add(name)
                    if not was_down:
                        self._down_since[name] = clock.now()
            if not healthy and not was_down:
                self._handle_failure(name)
        return statuses

    def add_failover_listener(self, listener: Callable[[str, str, str], None]) -> None:
        """listener(group_name, old_primary, new_primary)"""
        self.failover_listeners.append(listener)

    def _handle_failure(self, name: str) -> None:
        for group in self.groups.values():
            if group.primary != name:
                continue
            promotion = self._storage_promote(group)
            if promotion is None:
                # Legacy (name-only) groups: promote the first healthy
                # replica and keep the old primary listed so a revived
                # source serves reads again.
                candidates = [r for r in group.replicas if self.is_up(r)]
                if not candidates:
                    continue
                new_primary = candidates[0]
                old_primary = group.primary
                group.replicas = [r for r in group.replicas if r != new_primary]
                group.replicas.append(old_primary)
                group.primary = new_primary
            elif promotion is False:
                continue  # storage group but nothing promotable yet
            else:
                old_primary, new_primary = promotion
                group.replicas = [r for r in group.replicas if r != new_primary]
                group.primary = new_primary
            source = (self.config.load_rule("readwrite_splitting", group.name)["source"]
                      if group.name in self.config.rule_names("readwrite_splitting")
                      else old_primary)
            self.config.store_rule("readwrite_splitting", group.name, {
                "source": source, "primary": group.primary, "replicas": list(group.replicas)})
            with self._lock:
                detected_at = self._down_since.get(name, clock.now())
            self.failover_events.append(
                FailoverEvent(
                    group=group.name,
                    old_primary=old_primary,
                    new_primary=new_primary,
                    detected_at=detected_at,
                    promoted_at=clock.now(),
                )
            )
            for listener in self.failover_listeners:
                listener(group.name, old_primary, new_primary)

    def _storage_promote(self, group: ReplicaGroup):
        """Promote through the storage replica group when one is wired.

        The storage layer fences the dead primary (writes to it fail
        fast), picks the most-caught-up replica by applied LSN, and
        drains the durable log into it before installing it — so no
        acknowledged write is lost, unlike the name-only path which has
        no replication state to consult. The fenced old primary is NOT
        re-added as a replica: its database is frozen at failover time.

        Returns ``None`` when the group is not storage-backed (caller
        takes the legacy path), ``False`` when it is but no replica is
        promotable, or ``(old_primary, new_primary)`` on success.
        """
        source = self.data_sources.get(group.primary)
        storage_group = getattr(source, "replica_group", None)
        if storage_group is None or getattr(storage_group, "primary", None) is not source:
            return None
        try:
            event = storage_group.promote(is_up=self.is_up)
        except DataSourceUnavailableError:
            return False
        return event.old_primary, event.new_primary


def _default_probe(source: DataSource) -> bool:
    try:
        source.execute("SELECT 1")
        return True
    except Exception:
        return False
