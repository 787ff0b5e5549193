"""Circuit breaking and throttling features.

Both are request-admission guards plugged in at ``on_context`` (the
earliest pipeline hook), so rejected statements cost nothing downstream.

The breaker state machine itself lives in :mod:`repro.engine.resilience`
(:class:`CircuitBreaker`, with the single-in-flight-probe HALF_OPEN
protocol, and :class:`BreakerRegistry` for per-data-source breakers keyed
by route target — those are what the execution engine consults per unit).
This module re-exports them and provides:

- :class:`CircuitBreakerFeature`: one global breaker guarding the whole
  pipeline (the original coarse behaviour, kept for simple deployments);
- :class:`ThrottleFeature`: token-bucket rate limiter.
"""

from __future__ import annotations

import threading

from .. import clock
from ..engine.context import StatementContext
from ..engine.pipeline import EngineResult, Feature
from ..engine.resilience import BreakerRegistry, CircuitBreaker, CircuitState
from ..exceptions import CircuitBreakerOpenError, ThrottledError

__all__ = [
    "CircuitBreaker",
    "CircuitState",
    "BreakerRegistry",
    "CircuitBreakerFeature",
    "ThrottleFeature",
]


class CircuitBreakerFeature(Feature):
    """One global breaker guarding the whole pipeline (coarse guard).

    For per-data-source breaking use a :class:`ResiliencePolicy` on the
    engine instead — the executor then keys breakers by route target.
    """

    name = "circuit_breaker"
    # Admission guard only (may veto in on_context); never mutates the AST.
    plan_cache_safe = True

    def __init__(self, failure_threshold: int = 5, reset_timeout: float = 30.0):
        self.breaker = CircuitBreaker(failure_threshold, reset_timeout, name="global")

    # The feature keeps exposing the breaker's knobs and state directly.

    @property
    def failure_threshold(self) -> int:
        return self.breaker.failure_threshold

    @property
    def reset_timeout(self) -> float:
        return self.breaker.reset_timeout

    @property
    def state(self) -> CircuitState:
        return self.breaker.state

    def trip(self) -> None:
        self.breaker.trip()

    def reset(self) -> None:
        self.breaker.reset()

    def record_success(self) -> None:
        self.breaker.record_success()

    def record_failure(self) -> None:
        self.breaker.record_failure()

    def on_context(self, context: StatementContext) -> None:
        if not self.breaker.try_acquire():
            raise CircuitBreakerOpenError(
                "circuit open; retry after the cooldown (probe in flight or "
                f"{self.breaker.reset_timeout:.1f}s reset timeout not elapsed)"
            )

    def on_result(self, result: EngineResult, context: StatementContext) -> None:
        self.record_success()

    def on_error(self, error: Exception, context: StatementContext) -> None:
        self.record_failure()


class ThrottleFeature(Feature):
    """Token bucket: at most ``rate`` statements/second, bursts up to ``burst``."""

    name = "throttle"
    # Admission guard only; never mutates the AST.
    plan_cache_safe = True

    def __init__(self, rate: float, burst: int | None = None):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.capacity = float(burst if burst is not None else max(1, int(rate)))
        self._tokens = self.capacity
        self._updated = clock.now()
        self._lock = threading.Lock()
        self.rejected = 0

    def on_context(self, context: StatementContext) -> None:
        with self._lock:
            now = clock.now()
            self._tokens = min(self.capacity, self._tokens + (now - self._updated) * self.rate)
            self._updated = now
            if self._tokens < 1.0:
                self.rejected += 1
                raise ThrottledError(f"rate limit of {self.rate}/s exceeded")
            self._tokens -= 1.0
