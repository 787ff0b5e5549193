"""Tests for an extension beyond the paper's shipped feature set:
automatic circuit-breaker tripping."""

import pytest

from repro.exceptions import CircuitBreakerOpenError
from repro.features import CircuitBreakerFeature, CircuitState


class TestAutomaticCircuitBreaking:
    def test_execution_failures_trip_the_breaker(self, seeded_engine, fleet):
        breaker = CircuitBreakerFeature(failure_threshold=2, reset_timeout=60)
        seeded_engine.add_feature(breaker)
        fleet["ds0"].database.fail_next("statement", times=2)
        for _ in range(2):
            with pytest.raises(Exception):
                seeded_engine.execute("SELECT * FROM t_user WHERE uid = 2")
        assert breaker.state is CircuitState.OPEN
        with pytest.raises(CircuitBreakerOpenError):
            seeded_engine.execute("SELECT * FROM t_user WHERE uid = 2")

    def test_success_resets_failure_streak(self, seeded_engine, fleet):
        breaker = CircuitBreakerFeature(failure_threshold=2, reset_timeout=60)
        seeded_engine.add_feature(breaker)
        fleet["ds0"].database.fail_next("statement", times=1)
        with pytest.raises(Exception):
            seeded_engine.execute("SELECT * FROM t_user WHERE uid = 2")
        # a success in between clears the streak
        seeded_engine.execute("SELECT * FROM t_user WHERE uid = 1").fetchall()
        fleet["ds0"].database.fail_next("statement", times=1)
        with pytest.raises(Exception):
            seeded_engine.execute("SELECT * FROM t_user WHERE uid = 2")
        assert breaker.state is CircuitState.CLOSED
