"""Resilience policy layer: retries, deadlines, per-source breakers.

The paper's Governor (Section V-B) keeps the middleware serving traffic
when proxies or databases fail; this module is the execution-side half of
that story. :class:`ResiliencePolicy` says *how* the execution engine
absorbs faults (how many retries, what backoff, what deadline budget, when
broadcast reads may degrade); :class:`CircuitBreaker` /
:class:`BreakerRegistry` keep per-data-source failure state so one sick
shard stops receiving traffic without taking the fleet down.

Retry safety rules (enforced by the engine, stated here):

- only :class:`TransientError` subclasses are retried transparently;
- reads are always safe to retry; autocommit writes only when the policy
  opts in (``retry_writes``); writes inside an open distributed
  transaction are **never** retried (a partially-applied write plus a
  blind retry is how rows get duplicated);
- :class:`DataSourceUnavailableError` is not retried against the same
  source — re-routing (replica reads, broadcast degradation) or the
  pipeline-level re-route handles it.
"""

from __future__ import annotations

import enum
import random
import threading
from dataclasses import dataclass

from .. import clock
from ..exceptions import (
    CircuitBreakerOpenError,
    DataSourceUnavailableError,
    TransientError,
)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs for the execution engine's fault absorption."""

    #: transparent per-unit retries on transient errors
    max_retries: int = 3
    #: exponential backoff base; attempt n sleeps U(0, min(cap, base*2^n))
    base_backoff: float = 0.001
    max_backoff: float = 0.05
    #: per logical statement deadline budget (seconds); None = unlimited
    statement_timeout: float | None = None
    #: pipeline-level re-route attempts for idempotent reads (a re-route
    #: re-runs route->rewrite->execute, letting health-aware routing pick
    #: a different replica after a source went DOWN)
    max_reroutes: int = 2
    #: retry autocommit writes too (safe when faults fire before the
    #: write applies, as this substrate's injector does; real deployments
    #: need idempotency keys to turn this on)
    retry_writes: bool = False
    #: broadcast reads skip DOWN/tripped sources and return partial
    #: results flagged as such, instead of failing the whole statement
    allow_partial_broadcast: bool = True
    #: per-source circuit breaker knobs
    breaker_failure_threshold: int = 5
    breaker_reset_timeout: float = 30.0
    #: exception classes considered transient/retryable
    retryable: tuple[type[BaseException], ...] = (TransientError,)
    #: seed for the backoff jitter RNG (determinism in tests)
    seed: int | None = None

    def is_retryable(self, error: BaseException) -> bool:
        return isinstance(error, self.retryable)

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Exponential backoff with full jitter (AWS-style)."""
        cap = min(self.max_backoff, self.base_backoff * (2 ** max(attempt - 1, 0)))
        return rng.uniform(0.0, cap)


#: errors that justify re-running the whole pipeline for an idempotent read
REROUTABLE_ERRORS = (
    TransientError,
    DataSourceUnavailableError,
    CircuitBreakerOpenError,
)


class CircuitState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Trip after consecutive failures; recover through a single probe.

    Admission protocol: call :meth:`try_acquire` before each attempt; on
    True run the attempt and report :meth:`record_success` /
    :meth:`record_failure`. When the cooldown elapses the first acquirer
    becomes the HALF_OPEN probe; every other caller is rejected until the
    probe reports back (success closes, failure re-opens) — exactly one
    in-flight probe, tracked under the lock, so concurrent requests racing
    the probe window cannot stampede a recovering backend.
    """

    def __init__(self, failure_threshold: int = 5, reset_timeout: float = 30.0,
                 name: str = ""):
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = CircuitState.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._lock = threading.Lock()

    # -- manual controls (DistSQL RAL can force these) --------------------

    def trip(self) -> None:
        with self._lock:
            self.state = CircuitState.OPEN
            self._opened_at = clock.now()
            self._probe_in_flight = False

    def reset(self) -> None:
        with self._lock:
            self.state = CircuitState.CLOSED
            self._failures = 0
            self._probe_in_flight = False

    # -- admission ---------------------------------------------------------

    def try_acquire(self) -> bool:
        """Admit one attempt; False means the breaker rejects it."""
        with self._lock:
            if self.state is CircuitState.CLOSED:
                return True
            if self.state is CircuitState.OPEN:
                if (
                    clock.now() - self._opened_at >= self.reset_timeout
                    and not self._probe_in_flight
                ):
                    self.state = CircuitState.HALF_OPEN
                    self._probe_in_flight = True
                    return True
                return False
            # HALF_OPEN: exactly one probe at a time. If its owner died
            # without reporting back, the slot frees up here.
            if not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            return False

    def available(self) -> bool:
        """Non-mutating check: could an attempt plausibly be admitted now?

        Health-aware routing uses this to steer traffic away from sources
        whose breaker is open (without consuming the probe slot).
        """
        with self._lock:
            if self.state is CircuitState.CLOSED:
                return True
            if self.state is CircuitState.HALF_OPEN:
                return not self._probe_in_flight
            return (
                clock.now() - self._opened_at >= self.reset_timeout
                and not self._probe_in_flight
            )

    # -- outcome reporting -------------------------------------------------

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._probe_in_flight = False
            if self.state is CircuitState.HALF_OPEN:
                self.state = CircuitState.CLOSED

    def record_failure(self) -> None:
        with self._lock:
            self._probe_in_flight = False
            self._failures += 1
            if self.state is CircuitState.HALF_OPEN or self._failures >= self.failure_threshold:
                self.state = CircuitState.OPEN
                self._opened_at = clock.now()

    # -- observability -----------------------------------------------------

    @property
    def failures(self) -> int:
        with self._lock:
            return self._failures

    @property
    def open_seconds(self) -> float:
        """How long the breaker has been open (0 when closed)."""
        with self._lock:
            if self.state is CircuitState.CLOSED:
                return 0.0
            return clock.now() - self._opened_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker({self.name!r}, state={self.state.value})"


class BreakerRegistry:
    """Per-data-source circuit breakers, keyed by route target.

    Created lazily: the first attempt against a source materializes its
    breaker, so resources registered at runtime just work.
    """

    def __init__(self, failure_threshold: int = 5, reset_timeout: float = 30.0):
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_policy(cls, policy: ResiliencePolicy) -> "BreakerRegistry":
        return cls(policy.breaker_failure_threshold, policy.breaker_reset_timeout)

    def breaker(self, source: str) -> CircuitBreaker:
        with self._lock:
            existing = self._breakers.get(source)
            if existing is None:
                existing = CircuitBreaker(
                    self.failure_threshold, self.reset_timeout, name=source
                )
                self._breakers[source] = existing
            return existing

    def try_acquire(self, source: str) -> bool:
        return self.breaker(source).try_acquire()

    def record_success(self, source: str) -> None:
        self.breaker(source).record_success()

    def record_failure(self, source: str) -> None:
        self.breaker(source).record_failure()

    def available(self, source: str) -> bool:
        with self._lock:
            existing = self._breakers.get(source)
        return existing.available() if existing is not None else True

    def states(self) -> dict[str, CircuitState]:
        with self._lock:
            return {name: b.state for name, b in sorted(self._breakers.items())}

    def snapshot_rows(self) -> list[tuple[str, str, int, float]]:
        """(source, state, consecutive_failures, open_seconds) per breaker."""
        with self._lock:
            breakers = sorted(self._breakers.items())
        return [
            (name, b.state.value, b.failures, round(b.open_seconds, 3))
            for name, b in breakers
        ]
