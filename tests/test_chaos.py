"""Chaos suite: seeded fault injection against the resilient execution layer.

Every test here is deterministic (seeded injector RNG, scripted one-shot
faults) and asserts *invariants* — bounded client-visible error rates, no
lost or duplicated committed rows, breaker/failover convergence — rather
than exact fault traces, since thread interleaving still varies.
"""

import threading
import time

import pytest

from repro.adaptors import ShardingRuntime
from repro.distsql import execute_distsql
from repro.engine import (
    CircuitBreaker,
    CircuitState,
    ResiliencePolicy,
    SQLEngine,
)
from repro.exceptions import (
    CircuitBreakerOpenError,
    ConnectionPoolExhaustedError,
    DataSourceUnavailableError,
    DeadlineExceededError,
    ExecutionError,
    TransientError,
    XATransactionError,
)
from repro.features import CircuitBreakerFeature
from repro.governor import ConfigCenter, HealthDetector, ReplicaGroup
from repro.storage import DataSource, FaultInjector, FaultKind
from repro.transaction import XATransaction, XATransactionLog
from repro.transaction.xa import recover

pytestmark = pytest.mark.chaos


# ---------------------------------------------------------------------------
# FaultInjector substrate
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_seeded_schedule_is_deterministic(self):
        def run(seed):
            source = DataSource("ds0")
            source.execute("CREATE TABLE t (a INT)")
            injector = FaultInjector(seed=seed)
            injector.configure("ds0", transient_rate=0.3, drop_rate=0.1)
            source.set_fault_injector(injector)
            outcomes = []
            for _ in range(200):
                try:
                    source.execute("SELECT a FROM t")
                    outcomes.append("ok")
                except Exception as exc:
                    outcomes.append(type(exc).__name__)
            return outcomes

        assert run(42) == run(42)
        assert run(42) != run(43)

    def test_rates_validated(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.configure("ds0", transient_rate=1.5)

    def test_crash_until_revived(self):
        source = DataSource("ds0")
        source.execute("CREATE TABLE t (a INT)")
        injector = FaultInjector()
        source.set_fault_injector(injector)
        injector.crash("ds0")
        with pytest.raises(DataSourceUnavailableError):
            source.execute("SELECT a FROM t")
        assert injector.is_crashed("ds0")
        injector.revive("ds0")
        assert source.execute("SELECT a FROM t") == []
        assert injector.injected("ds0", FaultKind.CRASH) == 1

    def test_fail_once_scripts_a_single_fault(self):
        source = DataSource("ds0")
        source.execute("CREATE TABLE t (a INT)")
        injector = FaultInjector()
        source.set_fault_injector(injector)
        injector.fail_once("ds0", "statement", kind=FaultKind.TRANSIENT)
        with pytest.raises(TransientError):
            source.execute("SELECT a FROM t")
        assert source.execute("SELECT a FROM t") == []

    def test_connection_drop_closes_the_session(self):
        source = DataSource("ds0")
        source.execute("CREATE TABLE t (a INT)")
        injector = FaultInjector()
        source.set_fault_injector(injector)
        conn = source.pool.acquire()
        injector.fail_once("ds0", "statement", kind=FaultKind.DROP)
        with pytest.raises(ExecutionError):
            conn.execute("SELECT a FROM t")
        assert conn.closed
        source.pool.release(conn)


# ---------------------------------------------------------------------------
# Satellite: pool exhaustion diagnostics
# ---------------------------------------------------------------------------


class TestPoolExhaustion:
    def test_exhausted_pool_reports_diagnostics(self):
        source = DataSource("ds0", pool_size=2)
        held = [source.pool.acquire(), source.pool.acquire()]
        with pytest.raises(ConnectionPoolExhaustedError) as excinfo:
            source.pool.acquire(timeout=0.05)
        error = excinfo.value
        assert error.pool_name == "ds0"
        assert error.in_use == 2
        assert error.max_size == 2
        assert error.waited >= 0.05
        assert "ds0" in str(error) and "2/2" in str(error)
        source.pool.release_many(held)
        # Pool recovers once connections are returned.
        conn = source.pool.acquire(timeout=0.05)
        source.pool.release(conn)


# ---------------------------------------------------------------------------
# Satellite: HALF_OPEN single-probe protocol
# ---------------------------------------------------------------------------


class TestHalfOpenProbe:
    def test_exactly_one_probe_admitted_concurrently(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.01)
        breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        time.sleep(0.02)

        admitted = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            if breaker.try_acquire():
                admitted.append(threading.get_ident())

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(admitted) == 1
        assert breaker.state is CircuitState.HALF_OPEN

        # Failed probe re-opens; the slot frees for the next cooldown.
        breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        time.sleep(0.02)
        assert breaker.try_acquire()
        assert not breaker.try_acquire()  # probe in flight again
        breaker.record_success()
        assert breaker.state is CircuitState.CLOSED

    def test_feature_admits_one_probe_after_cooldown(self):
        feature = CircuitBreakerFeature(failure_threshold=1, reset_timeout=0.01)
        feature.record_failure()
        assert feature.state is CircuitState.OPEN
        time.sleep(0.02)
        rejected = []
        barrier = threading.Barrier(6)

        def worker():
            barrier.wait()
            try:
                feature.on_context(None)
            except CircuitBreakerOpenError:
                rejected.append(1)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(rejected) == 5  # exactly one in-flight probe


# ---------------------------------------------------------------------------
# Retry / deadline behaviour of the execution engine
# ---------------------------------------------------------------------------


def make_chaos_engine(fleet, paper_rule, policy, rates=None, seed=11):
    injector = FaultInjector(seed=seed)
    for name, source in fleet.items():
        if rates:
            injector.configure(name, **rates)
        source.set_fault_injector(injector)
    engine = SQLEngine(fleet, paper_rule, max_connections_per_query=2,
                       resilience=policy)
    return engine, injector


class TestRetries:
    def test_transient_faults_absorbed_for_reads(self, fleet, paper_rule):
        engine, injector = make_chaos_engine(
            fleet, paper_rule,
            ResiliencePolicy(max_retries=5, base_backoff=0.0001, seed=3),
            rates={"transient_rate": 0.2},
        )
        engine.execute("INSERT INTO t_user (uid, name, age) VALUES (1, 'a', 1), (2, 'b', 2)")
        for _ in range(150):
            rows = engine.execute("SELECT name FROM t_user WHERE uid = 1").fetchall()
            assert rows == [("a",)]
        assert injector.injected(kind=FaultKind.TRANSIENT) > 0
        metrics = engine.executor.metrics.snapshot()
        assert metrics["retries"] > 0
        assert metrics["giveups"] == 0
        engine.close()

    def test_gives_up_after_max_retries(self, fleet, paper_rule):
        engine, _ = make_chaos_engine(
            fleet, paper_rule,
            ResiliencePolicy(max_retries=2, base_backoff=0.0001, max_reroutes=0, seed=3),
            rates={"transient_rate": 1.0},
        )
        with pytest.raises(TransientError):
            engine.execute("SELECT name FROM t_user WHERE uid = 1")
        metrics = engine.executor.metrics.snapshot()
        assert metrics["retries"] == 2
        assert metrics["giveups"] == 1
        engine.close()

    def test_writes_not_retried_without_opt_in(self, fleet, paper_rule):
        engine, _ = make_chaos_engine(
            fleet, paper_rule,
            ResiliencePolicy(max_retries=5, retry_writes=False, seed=3),
        )
        injector = fleet["ds0"].fault_injector
        injector.fail_once("ds0", "statement", kind=FaultKind.TRANSIENT)
        with pytest.raises(TransientError):
            engine.execute("INSERT INTO t_user (uid, name, age) VALUES (2, 'b', 2)")
        assert engine.executor.metrics.snapshot()["retries"] == 0
        engine.close()

    def test_deadline_budget_is_enforced(self, fleet, paper_rule):
        engine, _ = make_chaos_engine(
            fleet, paper_rule,
            ResiliencePolicy(max_retries=1000, base_backoff=0.005,
                             max_backoff=0.01, statement_timeout=0.03,
                             max_reroutes=0, breaker_failure_threshold=10_000,
                             seed=3),
            rates={"transient_rate": 1.0},
        )
        with pytest.raises(DeadlineExceededError):
            engine.execute("SELECT name FROM t_user WHERE uid = 1")
        assert engine.executor.metrics.snapshot()["timeouts"] >= 1
        engine.close()

    def test_retry_reacquires_after_connection_drop(self, fleet, paper_rule):
        engine, injector = make_chaos_engine(
            fleet, paper_rule,
            ResiliencePolicy(max_retries=3, base_backoff=0.0001, seed=3),
        )
        engine.execute("INSERT INTO t_user (uid, name, age) VALUES (1, 'a', 1)")
        injector.fail_once("ds1", "statement", kind=FaultKind.DROP)
        rows = engine.execute("SELECT name FROM t_user WHERE uid = 1").fetchall()
        assert rows == [("a",)]
        assert engine.executor.metrics.snapshot()["retries"] == 1
        engine.close()


class TestWriteConsistency:
    def test_no_lost_or_duplicated_rows_under_chaos(self, fleet, paper_rule):
        """Seeded transient faults + retry_writes: every autocommit INSERT
        lands exactly once (faults fire before the write applies)."""
        engine, injector = make_chaos_engine(
            fleet, paper_rule,
            ResiliencePolicy(max_retries=8, base_backoff=0.0001,
                             retry_writes=True, seed=5),
            rates={"transient_rate": 0.15},
        )
        total = 200
        for uid in range(1, total + 1):
            engine.execute(
                "INSERT INTO t_user (uid, name, age) VALUES (?, 'u', 1)", (uid,)
            )
        assert injector.injected(kind=FaultKind.TRANSIENT) > 0
        rows = engine.execute("SELECT uid FROM t_user").fetchall()
        uids = sorted(r[0] for r in rows)
        assert uids == list(range(1, total + 1))  # no lost, no duplicated
        engine.close()


# ---------------------------------------------------------------------------
# Per-source breakers
# ---------------------------------------------------------------------------


class TestPerSourceBreakers:
    def test_sick_source_trips_without_taking_fleet_down(self, fleet, paper_rule):
        engine, injector = make_chaos_engine(
            fleet, paper_rule,
            ResiliencePolicy(max_retries=0, max_reroutes=0,
                             breaker_failure_threshold=2,
                             breaker_reset_timeout=30.0, seed=3),
        )
        engine.execute("INSERT INTO t_user (uid, name, age) VALUES (1, 'a', 1), (2, 'b', 2)")
        injector.crash("ds0")
        # uid=2 routes to ds0: two real failures trip its breaker...
        for _ in range(2):
            with pytest.raises(DataSourceUnavailableError):
                engine.execute("SELECT name FROM t_user WHERE uid = 2")
        with pytest.raises(CircuitBreakerOpenError):
            engine.execute("SELECT name FROM t_user WHERE uid = 2")
        # ...while ds1 keeps serving.
        assert engine.execute("SELECT name FROM t_user WHERE uid = 1").fetchall() == [("a",)]
        states = engine.executor.breakers.states()
        assert states["ds0"] is CircuitState.OPEN
        assert states["ds1"] is CircuitState.CLOSED
        assert engine.executor.metrics.snapshot()["breaker_rejections"] >= 1
        engine.close()

    def test_breaker_recovers_after_source_revived(self, fleet, paper_rule):
        engine, injector = make_chaos_engine(
            fleet, paper_rule,
            ResiliencePolicy(max_retries=0, max_reroutes=0,
                             breaker_failure_threshold=1,
                             breaker_reset_timeout=0.02, seed=3),
        )
        engine.execute("INSERT INTO t_user (uid, name, age) VALUES (2, 'b', 2)")
        injector.crash("ds0")
        with pytest.raises(DataSourceUnavailableError):
            engine.execute("SELECT name FROM t_user WHERE uid = 2")
        assert engine.executor.breakers.states()["ds0"] is CircuitState.OPEN
        injector.revive("ds0")
        time.sleep(0.03)  # cooldown elapses; next attempt is the probe
        assert engine.execute("SELECT name FROM t_user WHERE uid = 2").fetchall() == [("b",)]
        assert engine.executor.breakers.states()["ds0"] is CircuitState.CLOSED
        engine.close()


# ---------------------------------------------------------------------------
# Health-aware degradation
# ---------------------------------------------------------------------------


class TestHealthDegradation:
    def make_engine(self, fleet, paper_rule):
        engine, injector = make_chaos_engine(
            fleet, paper_rule,
            ResiliencePolicy(max_retries=1, max_reroutes=0, seed=3),
        )
        engine.executor.set_health_check(
            lambda name: not injector.is_crashed(name)
        )
        engine.execute("INSERT INTO t_dict (k, v) VALUES ('currency', 'usd')")
        engine.execute("INSERT INTO t_user (uid, name, age) VALUES (1, 'a', 1), (2, 'b', 2)")
        return engine, injector

    def test_sharded_scan_degrades_to_flagged_partial_results(self, fleet, paper_rule):
        engine, injector = self.make_engine(fleet, paper_rule)
        injector.crash("ds0")
        result = engine.execute("SELECT name FROM t_user")
        assert result.partial_results
        assert result.skipped_sources == ["ds0"]
        assert result.fetchall() == [("a",)]  # uid=1 lives on ds1
        metrics = engine.executor.metrics.snapshot()
        assert metrics["degraded_statements"] >= 1
        assert metrics["skipped_units"] >= 1
        engine.close()

    def test_a_soft_failed_source_counts_each_of_its_units_skipped(self):
        # no health check: the crash surfaces at execution, where the
        # skipped source's units are counted as the health filter counts them
        runtime = ShardingRuntime(
            {name: DataSource(name) for name in ("ds0", "ds1")}, max_connections_per_query=4,
            resilience=ResiliencePolicy(max_retries=0, max_reroutes=0))
        execute_distsql("CREATE SHARDING TABLE RULE t (RESOURCES(ds0, ds1), SHARDING_COLUMN=id, "
                        "TYPE=mod, PROPERTIES('sharding-count'=4))", runtime)
        runtime.engine.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        injector = FaultInjector(seed=1)
        for source in runtime.data_sources.values():
            source.set_fault_injector(injector)
        injector.crash("ds1")
        result = runtime.engine.execute("SELECT * FROM t")
        assert result.partial_results and result.skipped_sources == ["ds1"]
        metrics = runtime.engine.executor.metrics.snapshot()
        assert metrics["failed_units"] == 2
        assert metrics["skipped_units"] == 2
        runtime.close()

    def test_full_results_when_all_up(self, fleet, paper_rule):
        engine, _ = self.make_engine(fleet, paper_rule)
        result = engine.execute("SELECT name FROM t_user")
        assert not result.partial_results
        assert result.skipped_sources == []
        assert sorted(result.fetchall()) == [("a",), ("b",)]
        engine.close()

    def test_broadcast_table_read_redirects_to_healthy_source(self, fleet, paper_rule):
        # Broadcast-table reads route unicast; a DOWN target is replaced by
        # a healthy copy, so the answer stays complete (no partial flag).
        engine, injector = self.make_engine(fleet, paper_rule)
        injector.crash("ds0")
        result = engine.execute("SELECT k, v FROM t_dict")
        assert not result.partial_results
        assert result.fetchall() == [("currency", "usd")]
        engine.close()

    def test_write_to_down_source_fails_fast(self, fleet, paper_rule):
        engine, injector = self.make_engine(fleet, paper_rule)
        injector.crash("ds1")
        with pytest.raises(DataSourceUnavailableError, match="fail fast"):
            engine.execute("INSERT INTO t_dict (k, v) VALUES ('lang', 'en')")
        engine.close()

    def test_all_sources_down_raises(self, fleet, paper_rule):
        engine, injector = self.make_engine(fleet, paper_rule)
        injector.crash("ds0")
        injector.crash("ds1")
        with pytest.raises(DataSourceUnavailableError):
            engine.execute("SELECT k, v FROM t_dict")
        with pytest.raises(DataSourceUnavailableError):
            engine.execute("SELECT name FROM t_user")
        engine.close()


# ---------------------------------------------------------------------------
# Runtime-level chaos: replicas, health-aware routing, observability
# ---------------------------------------------------------------------------


def make_replicated_runtime(policy=None):
    """Primary + two replicas carrying the same (pre-replicated) table."""
    sources = {name: DataSource(name) for name in ("prim", "rep0", "rep1")}
    for source in sources.values():
        source.execute("CREATE TABLE t_item (iid INT PRIMARY KEY, label VARCHAR(32))")
        for iid in range(10):
            source.execute(f"INSERT INTO t_item (iid, label) VALUES ({iid}, 'x{iid}')")
    runtime = ShardingRuntime(
        sources,
        resilience=policy or ResiliencePolicy(
            max_retries=2, base_backoff=0.0001, max_reroutes=3, seed=9
        ),
    )
    runtime.rule.default_data_source = "prim"
    runtime.apply_rule("readwrite_splitting", "g0", {
        "source": "prim", "primary": "prim", "replicas": ["rep0", "rep1"]})
    detector = HealthDetector(sources, ConfigCenter(),
                              groups=[ReplicaGroup("g0", "prim", ["rep0", "rep1"])],
                              interval=0.01)
    runtime.attach_health_detector(detector)
    injector = FaultInjector(seed=9)
    for source in sources.values():
        source.set_fault_injector(injector)
    return runtime, detector, injector


class TestHealthAwareRouting:
    def test_replica_outage_absorbed_by_reroute_and_health(self):
        runtime, detector, injector = make_replicated_runtime()
        run_read = lambda iid: runtime.engine.execute(
            "SELECT label FROM t_item WHERE iid = ?", (iid,)
        ).fetchall()

        for i in range(10):
            assert run_read(i % 10) == [(f"x{i % 10}",)]

        # Mid-run outage: one replica crashes. Reads must keep succeeding —
        # first via pipeline re-route, then via health-aware routing once
        # the detector converges.
        injector.crash("rep0")
        errors = 0
        for i in range(30):
            try:
                assert run_read(i % 10) == [(f"x{i % 10}",)]
            except Exception:
                errors += 1
            if i == 4:
                detector.check_once()  # Governor notices the outage
        assert errors == 0
        assert not detector.is_up("rep0")
        assert runtime.engine.executor.metrics.reroutes > 0

        # Revive: after the next probe round the replica serves again.
        injector.revive("rep0")
        detector.check_once()
        assert detector.is_up("rep0")
        for i in range(10):
            assert run_read(i % 10) == [(f"x{i % 10}",)]
        runtime.close()

    def test_observability_via_distsql(self):
        runtime, detector, injector = make_replicated_runtime()
        for i in range(6):
            runtime.engine.execute("SELECT label FROM t_item WHERE iid = ?", (i,))

        result = execute_distsql("SHOW EXECUTION METRICS", runtime)
        assert result.columns == ["metric", "value"]
        metrics = dict(result.rows)
        assert metrics["statements"] >= 6
        assert {"retries", "reroutes", "timeouts", "giveups",
                "degraded_statements", "breaker_rejections"} <= set(metrics)

        result = execute_distsql("SHOW CIRCUIT BREAKERS", runtime)
        assert result.columns == ["data_source", "state", "failures", "open_seconds"]
        states = {row[0]: row[1] for row in result.rows}
        assert all(state == "closed" for state in states.values())

        # Crash the primary: the Governor promotes a replica and the
        # failover (with its detection->promotion latency) becomes visible.
        injector.crash("prim")
        detector.check_once()
        result = execute_distsql("SHOW FAILOVER EVENTS", runtime)
        assert result.columns == ["group", "old_primary", "new_primary", "failover_ms"]
        assert len(result.rows) == 1
        group, old_primary, new_primary, failover_ms = result.rows[0]
        assert (group, old_primary, new_primary) == ("g0", "prim", "rep0")
        assert failover_ms >= 0.0
        runtime.close()


# ---------------------------------------------------------------------------
# Sysbench-style traffic under a seeded fault schedule
# ---------------------------------------------------------------------------


class TestSysbenchChaos:
    def test_point_select_traffic_sees_zero_errors(self):
        import random

        from paper.sysbench import SysbenchConfig, SysbenchWorkload
        from paper.systems import ShardingJDBCSystem

        workload = SysbenchWorkload(SysbenchConfig(table_size=400))
        system = ShardingJDBCSystem([("sbtest", "id")], num_sources=2,
                                    tables_per_source=2, name="SSJ",
                                    layout="range", key_space=401)
        workload.prepare(system)
        injector = FaultInjector(seed=7)
        for name, source in system.runtime.data_sources.items():
            injector.configure(name, transient_rate=0.02, latency_rate=0.005,
                               latency_spike=0.0005)
            source.set_fault_injector(injector)
        system.runtime.enable_resilience(
            ResiliencePolicy(max_retries=4, base_backoff=0.0001,
                             retry_writes=True, seed=7)
        )
        session = system.session()
        rng = random.Random(7)
        errors = 0
        for _ in range(400):
            try:
                workload.run_transaction("point_select", session, rng)
            except Exception:
                errors += 1
        session.close()
        metrics = system.runtime.engine.executor.metrics.snapshot()
        system.close()
        assert errors == 0  # a 2% transient rate is fully absorbed
        assert injector.injected(kind=FaultKind.TRANSIENT) > 0
        assert metrics["retries"] > 0
        assert metrics["giveups"] == 0


# ---------------------------------------------------------------------------
# Satellite: XA recovery under injected failures
# ---------------------------------------------------------------------------


class TestXARecovery:
    def make_fleet(self):
        sources = {name: DataSource(name) for name in ("ds0", "ds1")}
        for source in sources.values():
            source.execute("CREATE TABLE t_acct (aid INT PRIMARY KEY, bal INT)")
        return sources

    def test_participant_crash_between_prepare_and_commit(self):
        sources = self.make_fleet()
        injector = FaultInjector(seed=1)
        for source in sources.values():
            source.set_fault_injector(injector)
        log = XATransactionLog()

        txn = XATransaction(sources, log=log)
        txn.connection_for("ds0").execute("INSERT INTO t_acct (aid, bal) VALUES (1, 100)")
        txn.connection_for("ds1").execute("INSERT INTO t_acct (aid, bal) VALUES (2, 200)")
        # Crash ds1 *after* it prepared, when its phase-2 commit arrives.
        injector.fail_once("ds1", "commit", kind=FaultKind.CRASH)
        with pytest.raises(XATransactionError, match="will be recovered"):
            txn.commit()

        # The decision was COMMIT: ds0 applied, ds1 is in doubt.
        assert sources["ds0"].execute("SELECT bal FROM t_acct WHERE aid = 1") == [(100,)]
        assert len(log.in_doubt()) == 1
        assert log.in_doubt()[0].pending == ["ds1"]

        # Restart the participant and replay the log.
        injector.revive("ds1")
        assert recover(log, sources) == 1
        assert sources["ds1"].execute("SELECT bal FROM t_acct WHERE aid = 2") == [(200,)]
        assert log.in_doubt() == []
        # The branch is gone from the participant's prepared set too.
        assert not sources["ds1"].database.prepared_xids()

    def test_recovery_is_idempotent(self):
        sources = self.make_fleet()
        injector = FaultInjector(seed=1)
        for source in sources.values():
            source.set_fault_injector(injector)
        log = XATransactionLog()
        txn = XATransaction(sources, log=log)
        txn.connection_for("ds0").execute("INSERT INTO t_acct (aid, bal) VALUES (1, 100)")
        txn.connection_for("ds1").execute("INSERT INTO t_acct (aid, bal) VALUES (2, 200)")
        injector.fail_once("ds1", "commit", kind=FaultKind.CRASH)
        with pytest.raises(XATransactionError):
            txn.commit()
        injector.revive("ds1")
        assert recover(log, sources) == 1
        assert recover(log, sources) == 0  # nothing left in doubt
        assert sources["ds1"].execute("SELECT bal FROM t_acct WHERE aid = 2") == [(200,)]
