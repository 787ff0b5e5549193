"""Metrics registry: counters, gauges and fixed-bucket histograms.

Prometheus-flavoured pull model: metric *families* are registered once
(name + kind + label names), label sets materialize children lazily, and
:meth:`MetricsRegistry.render_prometheus` emits the text exposition
format. Histograms use fixed buckets and estimate p50/p95/p99 by linear
interpolation inside the bucket containing the target rank — the standard
fixed-bucket quantile estimate, accurate to one bucket width.

The registry also accepts *collectors*: callables that produce sample
families at collection time. The execution engine's ad-hoc
``ExecutionMetrics`` counters are folded into the registry this way, so
``SHOW METRICS``, ``SHOW EXECUTION METRICS`` and the Prometheus export all
read one source of truth without adding locked counter updates to the
executor's hot path.

Naming scheme (see DESIGN.md "Observability"): ``<subsystem>_<what>_<unit>``
with ``_total`` for counters — e.g. ``engine_stage_seconds{stage="route"}``,
``storage_queries_total{source="ds0"}``, ``pool_checkout_wait_seconds``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from itertools import chain, cycle, repeat
from threading import get_ident
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

#: default latency buckets (seconds): 10µs .. 2.5s, roughly ×2.5 steps
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5,
)

#: default fan-out buckets (execution units per statement)
DEFAULT_FANOUT_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

LabelValues = tuple[str, ...]

#: a collector yields (name, kind, help, [(labels_dict, value)]) families
SampleFamily = tuple[str, str, str, list[tuple[dict[str, str], float]]]
Collector = Callable[[], Iterable[SampleFamily]]


def sample_weights(warmup: int, every: int) -> Iterator[int]:
    """The one sampling rule (DESIGN.md "Observability > Sampling"), as an
    endless stream of weights: the first ``warmup`` draws weigh 1, then
    every ``every``-th draw weighs ``every`` and the others 0 (skip), so a
    sampled observation stands in for the skipped ones; with ``every`` 0
    all draws after the warm-up skip. ``next()`` on it runs no Python
    code, and threads drawing at once only shift the phase."""
    period = (0,) * (every - 1) + (every,) if every > 0 else (0,)
    return chain(repeat(1, warmup), cycle(period))


def sampling_setting(name: str) -> property:
    """A sampling setting: assigning it restarts its owner's weight
    streams (``owner._resample()``), warm-up included."""
    slot = "_" + name

    def assign(owner: Any, value: int) -> None:
        setattr(owner, slot, value)
        owner._resample()

    return property(lambda owner: getattr(owner, slot), assign)


class _Metric:
    """Base family: shared registry lock + per-label-set children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str],
                 lock: threading.Lock):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._children: dict[LabelValues, Any] = {}

    def _key(self, labels: Mapping[str, Any]) -> LabelValues:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _label_dict(self, key: LabelValues) -> dict[str, str]:
        return dict(zip(self.labelnames, key))

    def remove(self, **labels: Any) -> None:
        """Drop one label set's child (e.g. an unregistered data source)."""
        key = self._key(labels)
        with self._lock:
            self._children.pop(key, None)


class Counter(_Metric):
    """Monotonic counter family.

    Two write paths: :meth:`inc` (validated, locked) for general use, and
    :meth:`inc_sharded` for per-statement hot paths — a lock-free exact
    increment into one slot per (label values, thread). Each slot has a
    single writer and CPython dict get/set are individually atomic under
    the GIL, so no update is ever lost; contended-mutex convoys (thread
    parks + GIL handoffs) never happen on the statement path. Readers
    merge the shards under the registry lock.
    """

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Sequence[str],
                 lock: threading.Lock):
        super().__init__(name, help, labelnames, lock)
        self._shards: dict[tuple[LabelValues, int], float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def inc_sharded(self, key: LabelValues, amount: float = 1.0) -> None:
        """Lock-free increment; ``key`` is the label-values tuple.
        ``Observability.on_statement`` writes these slots inline."""
        shards = self._shards
        slot = (key, get_ident())
        shards[slot] = shards.get(slot, 0.0) + amount

    def _merged_locked(self) -> dict[LabelValues, float]:
        totals = dict(self._children)
        # list() snapshots atomically under the GIL while writers insert
        for (key, _tid), value in list(self._shards.items()):
            totals[key] = totals.get(key, 0.0) + value
        return totals

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._merged_locked().get(key, 0.0)

    def samples(self) -> list[tuple[dict[str, str], float]]:
        with self._lock:
            items = sorted(self._merged_locked().items())
        return [(self._label_dict(key), value) for key, value in items]


class Gauge(_Metric):
    """Point-in-time value; supports callback children (pool occupancy)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._children[key] = float(value)

    def set_function(self, fn: Callable[[], float], **labels: Any) -> None:
        """Register a callable sampled at collection time."""
        key = self._key(labels)
        with self._lock:
            self._children[key] = fn

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            raw = self._children.get(key, 0.0)
        return float(raw()) if callable(raw) else raw

    def samples(self) -> list[tuple[dict[str, str], float]]:
        with self._lock:
            items = sorted(self._children.items())
        out = []
        for key, raw in items:
            value = float(raw()) if callable(raw) else raw
            out.append((self._label_dict(key), value))
        return out


class _HistogramChild:
    """One label set's buckets: the only weighted bucket update and the
    only percentile interpolation in the package. Not locked: its owner
    holds whatever lock guards it."""

    __slots__ = ("bounds", "counts", "count", "sum", "max")

    def __init__(self, bounds: Sequence[float]):
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float, weight: float = 1) -> None:
        """One observation standing for ``weight`` (its sample period)."""
        self.counts[bisect_left(self.bounds, value)] += weight
        self.count += weight
        self.sum += value * weight
        if value > self.max:
            self.max = value

    def percentile(self, p: float) -> float:
        """Estimated percentile (p in [0, 100]) via in-bucket interpolation."""
        if not self.count:
            return 0.0
        bounds = self.bounds
        rank = max(0.0, min(100.0, p)) / 100.0 * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = bounds[i - 1] if i > 0 else 0.0
                upper = max(bounds[i] if i < len(bounds) else self.max, lower)
                return lower + (rank - cumulative) / bucket_count * (upper - lower)
            cumulative += bucket_count
        return self.max


class Histogram(_Metric):
    """Fixed-bucket histogram family with interpolated percentiles."""

    kind = "histogram"

    def __init__(self, name: str, help: str, labelnames: Sequence[str],
                 lock: threading.Lock, buckets: Sequence[float] | None = None):
        super().__init__(name, help, labelnames, lock)
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds

    def _child(self, key: LabelValues) -> _HistogramChild:
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _HistogramChild(self.bounds)
        return child

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._child(key).observe(value)

    # -- reads -------------------------------------------------------------

    def _read(self, labels: Mapping[str, Any]) -> _HistogramChild:
        """The label set's child, or an empty one (caller holds the lock)."""
        return self._children.get(self._key(labels)) or _HistogramChild(self.bounds)

    def count(self, **labels: Any) -> int:
        with self._lock:
            return self._read(labels).count

    def percentile(self, p: float, **labels: Any) -> float:
        """Estimated percentile (p in [0, 100]); 0.0 before any observation."""
        with self._lock:
            return self._read(labels).percentile(p)

    def stats(self, **labels: Any) -> dict[str, float]:
        """count/sum/avg plus the paper's three tail percentiles, read at once."""
        with self._lock:
            child = self._read(labels)
            count, total = child.count, child.sum
            return {
                "count": count,
                "sum": total,
                "avg": (total / count) if count else 0.0,
                "p50": child.percentile(50),
                "p95": child.percentile(95),
                "p99": child.percentile(99),
            }

    def samples(self) -> list[tuple[dict[str, str], float]]:
        """Summary view used by SHOW METRICS (value = observation count)."""
        with self._lock:
            items = sorted((k, c.count) for k, c in self._children.items())
        return [(self._label_dict(key), float(count)) for key, count in items]

    def label_sets(self) -> list[dict[str, str]]:
        with self._lock:
            keys = sorted(self._children)
        return [self._label_dict(key) for key in keys]

    def _prometheus_lines(self) -> list[str]:
        lines: list[str] = []
        with self._lock:
            items = sorted(self._children.items())
            snapshot = [
                (key, list(child.counts), child.count, child.sum) for key, child in items
            ]
        for key, counts, count, total in snapshot:
            cumulative = 0
            for i, bound in enumerate(self.bounds):
                cumulative += counts[i]
                labels = {**self._label_dict(key), "le": _format_value(bound)}
                lines.append(f"{self.name}_bucket{_render_labels(labels)} {cumulative}")
            labels = {**self._label_dict(key), "le": "+Inf"}
            lines.append(f"{self.name}_bucket{_render_labels(labels)} {count}")
            lines.append(f"{self.name}_sum{_render_labels(self._label_dict(key))} "
                         f"{_format_value(total)}")
            lines.append(f"{self.name}_count{_render_labels(self._label_dict(key))} {count}")
        return lines


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Prometheus exposition-format label escaping: ``\\``, ``"``, newline."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(str(v))}"' for k, v in labels.items())
    return "{" + inner + "}"


def like_to_matcher(pattern: str) -> Callable[[str], bool]:
    """SQL LIKE (``%``/``_`` wildcards, case-insensitive) → predicate."""
    if not pattern:
        return lambda name: True
    import re

    regex = re.compile(
        "^" + "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in pattern.lower()
        ) + "$"
    )
    return lambda name: regex.match(name.lower()) is not None


class MetricsRegistry:
    """Holds metric families plus pull-time collectors.

    All families share one registry lock. The statement hot path avoids
    it entirely: counters go through ``Counter.inc_sharded`` (lock-free
    per-thread slots) and histograms only lock on sampled statements
    (see ``Observability.on_statement``).
    """

    def __init__(self):
        self.lock = threading.Lock()
        self._families: dict[str, _Metric] = {}
        self._order: list[str] = []
        #: (dedup key, collector) pairs; keys compare by equality so an
        #: UNREGISTER RESOURCE can drop a source's collector again
        self._collectors: list[tuple[Any, Collector]] = []

    # -- family creation (get-or-create, kind-checked) --------------------

    def _family(self, cls, name: str, help: str, labelnames: Sequence[str],
                **kwargs: Any) -> Any:
        existing = self._families.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help, labelnames, self.lock, **kwargs)
        self._families[name] = metric
        self._order.append(name)
        return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._family(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._family(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames: Sequence[str] = (),
                  buckets: Sequence[float] | None = None) -> Histogram:
        return self._family(Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        return self._families.get(name)

    # -- collectors ---------------------------------------------------------

    def register_collector(self, collector: Collector, key: Any = None) -> None:
        """Add a pull-time sample source; ``key`` dedupes re-registration."""
        marker = key if key is not None else collector
        with self.lock:
            if any(existing == marker for existing, _ in self._collectors):
                return
            self._collectors.append((marker, collector))

    def unregister_collector(self, key: Any) -> None:
        """Remove the collector registered under ``key`` (no-op if absent)."""
        with self.lock:
            self._collectors = [
                (marker, collector)
                for marker, collector in self._collectors
                if marker != key
            ]

    # -- collection ---------------------------------------------------------

    def collect(self) -> list[SampleFamily]:
        """Every family (static + collector-produced) with its samples."""
        out: list[SampleFamily] = []
        for name in list(self._order):
            metric = self._families[name]
            out.append((metric.name, metric.kind, metric.help, metric.samples()))
        for _, collector in list(self._collectors):
            out.extend(collector())
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: list[str] = []
        for name, kind, help, samples in self.collect():
            if help:
                lines.append(f"# HELP {name} {help}")
            lines.append(f"# TYPE {name} {kind}")
            if kind == "histogram":
                lines.extend(self._families[name]._prometheus_lines())
            else:
                for labels, value in samples:
                    lines.append(f"{name}{_render_labels(labels)} {_format_value(value)}")
        return "\n".join(lines) + "\n"
