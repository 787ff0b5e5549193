"""Tracing: one root span per logical statement, child spans per stage.

The span model mirrors what ShardingSphere's observability Agent hangs off
the SQL engine: a root ``statement`` span with children for ``parse``,
``route``, ``rewrite``, one ``storage`` span per execution unit, and
``merge``. Storage spans carry the data source, connection mode, rewritten
SQL and retry history, and they separate *wall* time (what the client
waited) from *simulated* time (the latency model's priced time), *lock
wait* (time blocked acquiring table/database/I-O locks) and *pay
overshoot* (how much longer than priced those sleeps really took) — so a
benchmark can attribute cost to middleware CPU vs. storage I/O per query.

Determinism: trace and span ids come from monotonic per-tracer counters
(no global randomness), and per-unit spans are allocated in routing order
on the submitting thread, so the same statement against the same topology
always yields the same ids — chaos runs and tests can assert on them.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Iterable

from .. import clock


class Span:
    """One timed operation inside a trace.

    Wall time is measured with ``clock.now``, to the end of what the span
    booked; simulated time, lock waits and sleep overshoot are *reported*
    by the storage layer via :meth:`record_simulated` /
    :meth:`record_lock_wait` / :meth:`record_pay_overshoot` (the connection
    carries the span while it executes, see ``Connection.trace_span``).
    A span is owned by one thread at a time, so its mutators need no lock.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "attributes",
        "events",
        "simulated",
        "lock_wait",
        "pay_overshoot",
        "error",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        name: str,
        parent_id: int | None = None,
        attributes: dict[str, Any] | None = None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = clock.now()
        self.end: float | None = None
        self.attributes: dict[str, Any] = attributes if attributes is not None else {}
        self.events: list[tuple[str, dict[str, Any]]] = []
        self.simulated = 0.0
        self.lock_wait = 0.0
        self.pay_overshoot = 0.0
        self.error: str | None = None

    # -- lifecycle -------------------------------------------------------

    def finish(self, error: BaseException | None = None, until: float = 0.0) -> "Span":
        """End the span now, or at ``until`` (what it booked) if later."""
        if self.end is None:
            self.end = max(clock.now(), until)
        if error is not None and self.error is None:
            self.error = f"{type(error).__name__}: {error}"
        return self

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def wall(self) -> float:
        """Elapsed wall seconds (0 while the span is still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    # -- storage-side attribution ---------------------------------------

    def record_simulated(self, seconds: float) -> None:
        """Attribute latency-model sleep time to this span."""
        if seconds > 0:
            self.simulated += seconds

    def record_lock_wait(self, seconds: float) -> None:
        """Attribute time spent blocked on a storage lock to this span."""
        if seconds > 0:
            self.lock_wait += seconds

    def record_pay_overshoot(self, seconds: float) -> None:
        """Attribute the part of a latency-model sleep that ran past its
        priced duration (timer granularity, scheduling) to this span."""
        if seconds > 0:
            self.pay_overshoot += seconds

    def add_event(self, name: str, **fields: Any) -> None:
        """Append a point-in-time annotation (retry, reroute, redirect...)."""
        self.events.append((name, fields))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, wall={self.wall * 1000:.3f}ms)"


class Trace:
    """All spans of one logical statement, rooted at ``statement``."""

    def __init__(self, tracer: "Tracer", trace_id: int, name: str):
        self.tracer = tracer
        self.trace_id = trace_id
        self.name = name
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.error: str | None = None
        self.root = self.start_span("statement", parent=None, sql=name)

    # -- span management -------------------------------------------------

    def start_span(self, name: str, parent: Span | None = None, **attributes: Any) -> Span:
        """Open a child span (of ``parent``, or of the root when omitted)."""
        parent_id = parent.span_id if parent is not None else (
            self.root.span_id if self.spans else None
        )
        span = Span(
            self.trace_id,
            self.tracer.next_span_id(),
            name,
            parent_id=parent_id,
            attributes=attributes or None,
        )
        with self._lock:
            self.spans.append(span)
        return span

    def finish(self, error: BaseException | None = None, until: float = 0.0) -> "Trace":
        """Close the root (see :meth:`Span.finish`) and any stragglers."""
        self.root.finish(error, until)
        if error is not None:
            self.error = self.root.error
        with self._lock:
            for span in self.spans:
                if not span.finished:
                    span.end = self.root.end
                    if error is not None and span.error is None:
                        span.error = "unfinished"
        return self

    # -- aggregate views -------------------------------------------------

    @property
    def wall(self) -> float:
        return self.root.wall

    @property
    def simulated(self) -> float:
        """Total latency-model seconds attributed across all spans."""
        with self._lock:
            return sum(span.simulated for span in self.spans)

    def find_spans(self, name: str) -> list[Span]:
        with self._lock:
            return [span for span in self.spans if span.name == name]

    def children_of(self, span: Span) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.parent_id == span.span_id]

    # -- rendering ---------------------------------------------------------

    _DETAIL_KEYS = (
        "route_type", "data_source", "mode", "units", "rows", "retries",
        "merger_kind", "partial", "skipped_sources", "attempt", "sql",
    )

    def _detail(self, span: Span) -> str:
        parts = []
        for key in self._DETAIL_KEYS:
            if key in span.attributes:
                parts.append(f"{key}={span.attributes[key]}")
        for key in sorted(set(span.attributes) - set(self._DETAIL_KEYS)):
            parts.append(f"{key}={span.attributes[key]}")
        for name, fields in span.events:
            inner = ",".join(f"{k}={v}" for k, v in fields.items())
            parts.append(f"!{name}({inner})")
        if span.lock_wait > 0:
            parts.append(f"lock_wait={span.lock_wait * 1000:.3f}ms")
        if span.pay_overshoot > 0:
            parts.append(f"pay_overshoot={span.pay_overshoot * 1000:.3f}ms")
        if span.error:
            parts.append(f"error={span.error}")
        return " ".join(parts)

    def tree_rows(self) -> list[tuple[str, float, float, str]]:
        """(indented name, wall_ms, simulated_ms, detail) per span, pre-order."""
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s.span_id)
        by_parent: dict[int | None, list[Span]] = {}
        for span in spans:
            by_parent.setdefault(span.parent_id, []).append(span)
        rows: list[tuple[str, float, float, str]] = []

        def visit(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
            if is_root:
                label = span.name
                child_prefix = ""
            else:
                connector = "└─ " if is_last else "├─ "
                label = prefix + connector + span.name
                child_prefix = prefix + ("   " if is_last else "│  ")
            rows.append(
                (label, round(span.wall * 1000, 3), round(span.simulated * 1000, 3),
                 self._detail(span))
            )
            children = by_parent.get(span.span_id, [])
            for i, child in enumerate(children):
                visit(child, child_prefix, i == len(children) - 1, False)

        for i, top in enumerate(by_parent.get(None, [])):
            visit(top, "", i == len(by_parent.get(None, [])) - 1, True)
        return rows

    def render(self) -> str:
        """Human-readable span tree (used by DistSQL ``TRACE <sql>``)."""
        header = (
            f"trace #{self.trace_id} · {self.name!r} · "
            f"wall {self.wall * 1000:.3f}ms · simulated {self.simulated * 1000:.3f}ms"
        )
        lines = [header]
        for label, wall_ms, simulated_ms, detail in self.tree_rows():
            lines.append(
                f"{label:<40} wall={wall_ms:.3f}ms sim={simulated_ms:.3f}ms"
                + (f"  {detail}" if detail else "")
            )
        return "\n".join(lines)


class Tracer:
    """Creates and retains traces; ids are monotonic and seed-free.

    ``enabled`` is the zero-cost switch the engine checks before creating
    any span. Finished traces land in a bounded ring buffer (``finished``)
    for ``SHOW TRACES``; ``Observability.record_trace`` hands each one to
    the slow-query log as well.
    """

    def __init__(self, enabled: bool = False, keep: int = 128):
        self.enabled = enabled
        self.keep = keep
        self.finished: deque[Trace] = deque(maxlen=keep)
        self._lock = threading.Lock()
        self._trace_seq = 0
        self._span_seq = 0

    # -- id allocation ----------------------------------------------------

    def next_span_id(self) -> int:
        with self._lock:
            self._span_seq += 1
            return self._span_seq

    @property
    def span_count(self) -> int:
        """How many spans this tracer ever allocated (overhead guard)."""
        with self._lock:
            return self._span_seq

    # -- trace lifecycle ---------------------------------------------------

    def start_trace(self, name: str) -> Trace:
        with self._lock:
            self._trace_seq += 1
            trace_id = self._trace_seq
        return Trace(self, trace_id, name)

    def record(self, trace: Trace) -> None:
        """Keep a finished trace in the ring buffer."""
        self.finished.append(trace)

    def recent(self) -> Iterable[Trace]:
        """Finished traces, newest first."""
        return list(self.finished)[::-1]
