"""Tests for extensions beyond the paper's shipped feature set:
automatic circuit-breaker tripping and asynchronous BASE commit
(the paper's stated future work)."""

import threading
import time

import pytest

from repro.exceptions import BaseTransactionError, CircuitBreakerOpenError
from repro.features import CircuitBreakerFeature, CircuitState
from repro.storage import DataSource
from repro.transaction import TransactionCoordinator, TransactionManager, TransactionType


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


@pytest.fixture
def base_pair():
    sources = {"ds0": DataSource("ds0"), "ds1": DataSource("ds1")}
    for ds in sources.values():
        ds.execute("CREATE TABLE acct (id INT PRIMARY KEY, balance INT NOT NULL)")
        ds.execute("INSERT INTO acct (id, balance) VALUES (1, 100)")
    manager = TransactionManager(
        sources, TransactionType.BASE,
        coordinator=TransactionCoordinator(rpc_delay=0.002),
    )
    return sources, manager


class TestAsyncBaseCommit:
    def test_async_commit_applies_eventually(self, base_pair):
        sources, manager = base_pair
        txn = manager.begin()
        txn.connection_for("ds0").execute("UPDATE acct SET balance = balance - 5 WHERE id = 1")
        txn.connection_for("ds1").execute("UPDATE acct SET balance = balance + 5 WHERE id = 1")
        future = txn.commit_async()
        assert future.result(timeout=10) is True
        assert sources["ds0"].execute("SELECT balance FROM acct WHERE id = 1") == [(95,)]
        assert sources["ds1"].execute("SELECT balance FROM acct WHERE id = 1") == [(105,)]

    def test_async_commit_returns_before_completion(self, base_pair, fake):
        """The whole point: the caller does not wait for the TC round trips
        (2 ms each here); the worker that commits does."""
        sources, manager = base_pair
        txn = manager.begin()
        txn.connection_for("ds0").execute("UPDATE acct SET balance = 0 WHERE id = 1")
        txn.connection_for("ds1").execute("UPDATE acct SET balance = 0 WHERE id = 1")
        caller = threading.get_ident()
        before = fake.by_thread.get(caller, 0.0)
        future = txn.commit_async()
        assert future.result(timeout=10) is True
        assert fake.by_thread.get(caller, 0.0) == before
        assert fake.slept - before >= 2 * 0.002

    def test_async_commit_surfaces_compensation_failure(self, base_pair):
        sources, manager = base_pair
        txn = manager.begin()
        txn.connection_for("ds0").execute("UPDATE acct SET balance = 7 WHERE id = 1")
        txn.connection_for("ds1").execute("UPDATE acct SET balance = 7 WHERE id = 1")
        sources["ds1"].database.fail_next("commit")
        future = txn.commit_async()
        with pytest.raises(BaseTransactionError):
            future.result(timeout=10)
        # compensated: both balances restored
        assert sources["ds0"].execute("SELECT balance FROM acct WHERE id = 1") == [(100,)]
        assert sources["ds1"].execute("SELECT balance FROM acct WHERE id = 1") == [(100,)]

    def test_async_is_faster_for_the_caller_than_sync(self, base_pair):
        sources, manager = base_pair

        def one_txn():
            txn = manager.begin()
            txn.connection_for("ds0").execute("UPDATE acct SET balance = balance + 1 WHERE id = 1")
            txn.connection_for("ds1").execute("UPDATE acct SET balance = balance + 1 WHERE id = 1")
            return txn

        txn = one_txn()
        start = time.perf_counter()
        txn.commit()
        sync_time = time.perf_counter() - start

        txn = one_txn()
        start = time.perf_counter()
        future = txn.commit_async()
        async_submit = time.perf_counter() - start
        future.result(timeout=10)

        assert async_submit < sync_time / 3
