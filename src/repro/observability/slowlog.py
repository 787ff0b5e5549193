"""Slow-query log: a bounded ring buffer of completed traces.

Every finished trace is offered to the log; traces whose wall time exceeds
the configurable threshold are always recorded, and one in every
``sample_every`` fast traces is recorded too (sampled normal traffic, so
the log shows what "normal" looks like next to the outliers). The buffer
is a fixed-capacity ring: when full, recording a new entry evicts the
oldest one.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .metrics import sample_weights, sampling_setting

if TYPE_CHECKING:
    from .trace import Trace


@dataclass
class SlowQueryEntry:
    """One recorded statement with its full trace attached."""

    trace_id: int
    sql: str
    wall: float
    simulated: float
    kind: str  # "slow" | "sampled"
    route_type: str
    spans: int
    error: str | None
    trace: Any  # the full Trace, for drill-down
    digest: str = ""  # statement digest id ("" when analytics disabled)


class SlowQueryLog:
    """Threshold-filtered, sampled ring buffer of completed traces."""

    #: record every Nth non-slow trace as well (0 disables sampling)
    sample_every = sampling_setting("sample_every")

    def __init__(self, threshold: float = 0.1, capacity: int = 128,
                 sample_every: int = 0):
        if capacity < 1:
            raise ValueError("slow query log capacity must be >= 1")
        self.threshold = threshold
        self.capacity = capacity
        self._entries: deque[SlowQueryEntry] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.recorded = 0
        self.sample_every = sample_every

    def _resample(self) -> None:
        self._fast_weights = sample_weights(0, self._sample_every)

    def offer(self, trace: "Trace", digest: str = "") -> bool:
        """Consider one finished trace; True when it was recorded."""
        slow = trace.wall >= self.threshold
        if not slow and not next(self._fast_weights):
            return False
        entry = SlowQueryEntry(
            trace_id=trace.trace_id,
            sql=trace.name,
            wall=trace.wall,
            simulated=trace.simulated,
            kind="slow" if slow else "sampled",
            route_type=str(trace.root.attributes.get("route_type", "")),
            spans=len(trace.spans),
            error=trace.error,
            trace=trace,
            digest=digest,
        )
        with self._lock:
            self._entries.append(entry)
            self.recorded += 1
        return True

    def entries(self) -> list[SlowQueryEntry]:
        """Recorded entries, newest first."""
        with self._lock:
            return list(self._entries)[::-1]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._resample()
