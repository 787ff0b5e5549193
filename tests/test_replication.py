"""Replica groups, lag-aware routing, promotion and the result cache.

Covers the replication storage layer (log / lag / convergence /
promotion), the consistency-aware rwsplit routing above it
(read-your-writes tokens, lag-aware balancers, breaker exclusion), the
epoch-invalidated result cache, and the DistSQL observability surfaces.
"""

import threading
import time

import pytest

from repro.adaptors import ShardingDataSource, ShardingRuntime
from repro.distsql import execute_distsql
from repro.engine import SQLEngine
from repro.engine.pipeline import Feature
from repro.engine.result_cache import ResultCache
from repro.exceptions import DataSourceUnavailableError
from repro.features import (
    BoundedStalenessLoadBalancer,
    LeastLagLoadBalancer,
    ReadWriteGroup,
    ReadWriteSplittingFeature,
    RoundRobinLoadBalancer,
)
from repro.governor import ConfigCenter, HealthDetector
from repro.governor import ReplicaGroup as GovReplicaGroup
from repro.sharding import ShardingRule
from repro.storage import DataSource, FaultInjector, ReplicaGroup
from repro.storage.replication import _apply_op, pin_primary, reset_session, session_token


@pytest.fixture(autouse=True)
def fresh_session():
    """Causal tokens are thread-local; tests must not leak them."""
    reset_session()
    yield
    reset_session()


def make_storage_group(replica_lags=(0.0, 0.0), seed_rows=4):
    """Primary + replicas sharing one replicated table, fully synced."""
    primary = DataSource("prim")
    group = ReplicaGroup(primary, seed=1)
    sources = {"prim": primary}
    primary.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(seed_rows):
        primary.execute(f"INSERT INTO t (id, v) VALUES ({i}, {i * 10})")
    for i, lag in enumerate(replica_lags):
        replica = DataSource(f"rep{i}")
        sources[replica.name] = replica
        group.add_replica(replica, lag=lag)
    group.sync()
    return sources, group


# ---------------------------------------------------------------------------
# Storage layer: log, lag, convergence
# ---------------------------------------------------------------------------


class TestReplicationLog:
    def test_commits_publish_dense_lsns_and_stamp_token(self):
        sources, group = make_storage_group()
        base = group.last_lsn()
        sources["prim"].execute("INSERT INTO t (id, v) VALUES (100, 1)")
        sources["prim"].execute("UPDATE t SET v = 2 WHERE id = 100")
        assert group.last_lsn() == base + 2
        # autocommit runs on this thread: the causal token tracks the tip
        assert session_token("prim") == group.last_lsn()

    def test_lagging_replica_stays_stale_then_converges(self):
        sources, group = make_storage_group(replica_lags=(0.05,))
        sources["prim"].execute("UPDATE t SET v = 999 WHERE id = 0")
        token = session_token("prim")
        # not due yet: reads on the replica still see the old image
        assert not group.covers("rep0", token)
        assert sources["rep0"].execute("SELECT v FROM t WHERE id = 0") == [(0,)]
        assert group.lag_records("rep0") == 1
        time.sleep(0.06)
        assert group.covers("rep0", token)
        assert sources["rep0"].execute("SELECT v FROM t WHERE id = 0") == [(999,)]
        assert group.lag_records("rep0") == 0

    def test_concurrent_writers_converge_on_replicas(self):
        sources, group = make_storage_group(replica_lags=(0.0,), seed_rows=0)

        def writer(offset):
            for i in range(25):
                sources["prim"].execute(
                    f"INSERT INTO t (id, v) VALUES ({offset + i}, {offset + i})"
                )

        threads = [threading.Thread(target=writer, args=(k * 100,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        group.sync()
        want = sorted(sources["prim"].execute("SELECT id, v FROM t"))
        assert len(want) == 100
        assert sorted(sources["rep0"].execute("SELECT id, v FROM t")) == want

    def test_ddl_replicates(self):
        sources, group = make_storage_group(replica_lags=(0.0,))
        sources["prim"].execute("CREATE TABLE t2 (id INT PRIMARY KEY)")
        sources["prim"].execute("INSERT INTO t2 (id) VALUES (7)")
        sources["prim"].execute("TRUNCATE TABLE t")
        group.sync()
        assert sources["rep0"].execute("SELECT id FROM t2") == [(7,)]
        assert sources["rep0"].execute("SELECT * FROM t") == []

    def test_lag_report_shape(self):
        sources, group = make_storage_group(replica_lags=(0.0, 30.0))
        sources["prim"].execute("INSERT INTO t (id, v) VALUES (50, 5)")
        report = {row["replica"]: row for row in group.lag_report()}
        assert set(report) == {"rep0", "rep1"}
        assert report["rep1"]["lag_records"] == 1
        assert report["rep1"]["configured_lag_s"] == 30.0
        assert report["rep0"]["last_lsn"] == group.last_lsn()

    def test_replica_rejects_writes(self):
        sources, _ = make_storage_group(replica_lags=(0.0,))
        with pytest.raises(DataSourceUnavailableError):
            sources["rep0"].execute("INSERT INTO t (id, v) VALUES (9, 9)")

    def test_put_evicts_a_stale_unique_key_occupant(self):
        # The primary deleted key 2 and re-inserted it under a new row id;
        # the replica sees the put first (publish order inverted), so the
        # old row id still holds the primary key the new image claims.
        sources, _ = make_storage_group(replica_lags=(0.0,))
        replica = sources["rep0"].database
        table = replica.table("t")
        stale_id = next(row_id for row_id, image in table.scan() if image["id"] == 2)
        new_id = max(row_id for row_id, _ in table.scan()) + 1
        assert table.conflicting_row_ids({"id": 2, "v": 99}) == {stale_id}
        version = replica.data_version("t")
        _apply_op(replica, ("put", "t", new_id, {"id": 2, "v": 99}))
        assert table.image(stale_id) is None
        assert table.image(new_id) == {"id": 2, "v": 99}
        assert replica.data_version("t") == version + 1
        assert sorted(sources["rep0"].execute("SELECT id, v FROM t")) == [
            (0, 0), (1, 10), (2, 99), (3, 30)]


class TestPromotion:
    def test_promotes_most_caught_up_and_keeps_every_write(self):
        sources, group = make_storage_group(replica_lags=(60.0, 60.0))
        for i in range(100, 110):
            sources["prim"].execute(f"INSERT INTO t (id, v) VALUES ({i}, {i})")
        # rep1 is further ahead than rep0 at failover time
        group.states["rep1"].apply_all()
        want = sorted(sources["prim"].execute("SELECT id, v FROM t"))

        event = group.promote()
        assert event.new_primary == "rep1"
        assert group.primary is sources["rep1"]
        # the durable log was drained into the new primary: nothing lost
        assert sorted(sources["rep1"].execute("SELECT id, v FROM t")) == want
        # the old primary is fenced against writes
        assert sources["prim"].fenced
        with pytest.raises(DataSourceUnavailableError):
            sources["prim"].execute("INSERT INTO t (id, v) VALUES (999, 0)")
        # the survivor keeps streaming from the same log
        sources["rep1"].execute("INSERT INTO t (id, v) VALUES (999, 1)")
        group.states["rep0"].apply_all()
        assert sources["rep0"].execute("SELECT v FROM t WHERE id = 999") == [(1,)]

    def test_promote_without_candidates_raises(self):
        sources, group = make_storage_group(replica_lags=(0.0,))
        with pytest.raises(DataSourceUnavailableError):
            group.promote(is_up=lambda name: False)


# ---------------------------------------------------------------------------
# Load balancers
# ---------------------------------------------------------------------------


class TestLagAwareBalancers:
    def test_round_robin_lock_free_under_threads(self):
        lb = RoundRobinLoadBalancer()
        picks = []

        def spin():
            local = [lb.choose(["a", "b", "c"]) for _ in range(500)]
            picks.extend(local)

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(picks) == 2000
        counts = {name: picks.count(name) for name in ("a", "b", "c")}
        assert all(count > 0 for count in counts.values())

    def test_least_lag_prefers_caught_up_replica(self):
        sources, group = make_storage_group(replica_lags=(0.0, 60.0))
        sources["prim"].execute("INSERT INTO t (id, v) VALUES (100, 0)")
        group.states["rep0"].apply_all()
        rw = ReadWriteGroup("prim", primary="prim", replicas=["rep0", "rep1"],
                            replication=group)
        lb = LeastLagLoadBalancer()
        assert all(
            lb.choose_with(["rep0", "rep1"], rw) == "rep0" for _ in range(5)
        )

    def test_least_lag_rotates_ties(self):
        sources, group = make_storage_group(replica_lags=(0.0, 0.0))
        rw = ReadWriteGroup("prim", primary="prim", replicas=["rep0", "rep1"],
                            replication=group)
        lb = LeastLagLoadBalancer()
        picks = {lb.choose_with(["rep0", "rep1"], rw) for _ in range(4)}
        assert picks == {"rep0", "rep1"}

    def test_bounded_staleness_falls_back_when_all_stale(self):
        sources, group = make_storage_group(replica_lags=(60.0, 60.0))
        sources["prim"].execute("INSERT INTO t (id, v) VALUES (100, 0)")
        time.sleep(0.01)  # the unapplied record ages past the budget
        rw = ReadWriteGroup("prim", primary="prim", replicas=["rep0", "rep1"],
                            replication=group)
        lb = BoundedStalenessLoadBalancer(max_staleness=0.001, seed=3)
        assert lb.choose_with(["rep0", "rep1"], rw) is None
        fresh = BoundedStalenessLoadBalancer(max_staleness=30.0, seed=3)
        assert fresh.choose_with(["rep0", "rep1"], rw) in ("rep0", "rep1")


# ---------------------------------------------------------------------------
# Consistency-aware routing through the engine
# ---------------------------------------------------------------------------


def make_replicated_engine(replica_lags=(60.0,), load_balancer=None):
    sources, group = make_storage_group(replica_lags=replica_lags)
    rw = ReadWriteGroup(
        "prim", primary="prim", replicas=[f"rep{i}" for i in range(len(replica_lags))],
        load_balancer=load_balancer or RoundRobinLoadBalancer(),
        replication=group,
    )
    feature = ReadWriteSplittingFeature([rw])
    engine = SQLEngine(sources, ShardingRule(default_data_source="prim"),
                       features=[feature])
    return sources, group, engine, feature


class TestReadYourWrites:
    def test_writer_session_never_reads_stale(self):
        sources, group, engine, feature = make_replicated_engine()
        try:
            engine.execute("UPDATE t SET v = 777 WHERE id = 1")
            rows = engine.execute("SELECT v FROM t WHERE id = 1").fetchall()
            assert rows == [(777,)]  # fell back to the primary
            assert feature.causal_fallbacks >= 1
        finally:
            engine.close()

    def test_other_sessions_may_read_stale(self):
        sources, group, engine, feature = make_replicated_engine()
        try:
            engine.execute("UPDATE t SET v = 777 WHERE id = 1")
            seen = []

            def fresh_reader():
                reset_session()  # a different client session: no token
                seen.append(
                    engine.execute("SELECT v FROM t WHERE id = 1").fetchall()
                )

            t = threading.Thread(target=fresh_reader)
            t.start()
            t.join()
            assert seen == [[(10,)]]  # replica snapshot from before the write
            assert feature.reads_routed >= 1
        finally:
            engine.close()

    def test_primary_pin_overrides_replica_routing(self):
        sources, group, engine, feature = make_replicated_engine()
        try:
            with pin_primary():
                engine.execute("SELECT v FROM t WHERE id = 1").fetchall()
            assert feature.reads_routed == 0
            assert feature.writes_routed == 1
        finally:
            engine.close()

    def test_open_breaker_replica_excluded(self):
        class _Breakers:
            def available(self, name):
                return name != "rep0"

        sources, group = make_storage_group(replica_lags=(0.0, 0.0))
        rw = ReadWriteGroup("prim", primary="prim", replicas=["rep0", "rep1"],
                            replication=group)
        feature = ReadWriteSplittingFeature([rw], breakers=_Breakers())
        engine = SQLEngine(sources, ShardingRule(default_data_source="prim"),
                           features=[feature])
        try:
            before = sources["rep0"].database.statements_executed
            for _ in range(6):
                engine.execute("SELECT v FROM t WHERE id = 1").fetchall()
            assert feature.reads_routed == 6
            assert sources["rep0"].database.statements_executed == before
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# Chaos: primary crash mid-workload, automatic promotion
# ---------------------------------------------------------------------------


class TestFailoverChaos:
    def test_primary_crash_promotes_replica_and_loses_nothing(self):
        sources, group = make_storage_group(replica_lags=(0.0, 0.0), seed_rows=0)
        runtime = ShardingRuntime(sources)
        runtime.rule.default_data_source = "prim"
        runtime.apply_rule("readwrite_splitting", "prim", {
            "source": "prim", "primary": "prim", "replicas": ["rep0", "rep1"]})
        detector = HealthDetector(
            sources, ConfigCenter(),
            groups=[GovReplicaGroup("prim", "prim", ["rep0", "rep1"])],
            interval=0.01,
        )
        runtime.attach_health_detector(detector)
        injector = FaultInjector(seed=5)
        for source in sources.values():
            source.set_fault_injector(injector)
        conn = ShardingDataSource(runtime).get_connection()

        acknowledged = []
        next_id = 0
        # Phase 1: healthy workload
        for _ in range(20):
            conn.execute(f"INSERT INTO t (id, v) VALUES ({next_id}, {next_id})")
            acknowledged.append(next_id)
            next_id += 1

        # Phase 2: the primary dies mid-workload. Writes fence (fail fast,
        # not acknowledged) until the Governor promotes a replica.
        injector.crash("prim")
        deadline = time.monotonic() + 5.0
        promoted = False
        while time.monotonic() < deadline:
            detector.check_once()
            try:
                conn.execute(f"INSERT INTO t (id, v) VALUES ({next_id}, {next_id})")
                acknowledged.append(next_id)
                next_id += 1
                promoted = True
                break
            except Exception:
                next_id += 1  # rejected, NOT acknowledged
        assert promoted, "no replica was promoted within the deadline"
        assert group.promotions, "storage-level promotion did not run"
        new_primary = group.promotions[0].new_primary
        assert new_primary in ("rep0", "rep1")
        assert detector.groups["prim"].primary == new_primary
        assert sources["prim"].fenced

        # Phase 3: workload continues against the new primary
        for _ in range(10):
            conn.execute(f"INSERT INTO t (id, v) VALUES ({next_id}, {next_id})")
            acknowledged.append(next_id)
            next_id += 1

        # No acknowledged write lost: every acknowledged id is readable.
        rows = conn.execute("SELECT id FROM t ORDER BY id").fetchall()
        present = {row[0] for row in rows}
        missing = [i for i in acknowledged if i not in present]
        assert not missing, f"acknowledged writes lost: {missing}"
        runtime.close()


# ---------------------------------------------------------------------------
# Result cache: unit level
# ---------------------------------------------------------------------------


def make_db(rows=2):
    source = DataSource("cachedb")
    source.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(rows):
        source.execute(f"INSERT INTO t (id, v) VALUES ({i}, {i})")
    return source.database


class TestResultCacheUnit:
    def test_store_and_hit_lru_order(self):
        db = make_db()
        cache = ResultCache(capacity=2)
        guard = [(db, "t", db.data_version("t"))]
        assert cache.store("k1", ["v"], [(1,)], guard, [])
        assert cache.store("k2", ["v"], [(2,)], guard, [])
        assert list(cache.lookup("k1").rows) == [(1,)]  # k1 now most-recent
        assert cache.store("k3", ["v"], [(3,)], guard, [])
        assert cache.evictions == 1
        assert cache.lookup("k2") is None  # k2 was LRU
        assert cache.lookup("k1") is not None

    def test_ttl_expiry(self):
        db = make_db()
        cache = ResultCache(ttl=0.01)
        cache.store("k", ["v"], [(1,)], [(db, "t", db.data_version("t"))], [])
        time.sleep(0.02)
        assert cache.lookup("k") is None
        assert cache.invalidations == 1

    def test_data_version_guard_invalidates(self):
        db = make_db()
        cache = ResultCache()
        cache.store("k", ["v"], [(1,)], [(db, "t", db.data_version("t"))], [])
        db.bump_data_version("t")
        assert cache.lookup("k") is None
        assert cache.invalidations == 1

    def test_stale_store_rejected(self):
        db = make_db()
        cache = ResultCache()
        guard = [(db, "t", db.data_version("t"))]
        db.bump_data_version("t")  # concurrent write between read and store
        assert not cache.store("k", ["v"], [(1,)], guard, [])
        assert len(cache) == 0

    def test_causal_guard_bypasses_without_evicting(self):
        db = make_db()
        cache = ResultCache()
        cache.store("k", ["v"], [(1,)], [(db, "t", db.data_version("t"))],
                    [("g", 5)])
        assert cache.lookup("k", lambda g: 9) is None  # session ahead of entry
        assert cache.causal_bypasses == 1
        assert cache.lookup("k", lambda g: 5) is not None  # entry still valid
        assert cache.lookup("k", lambda g: 0) is not None

    def test_oversized_results_not_cached(self):
        db = make_db()
        cache = ResultCache(max_rows=2)
        rows = [(i,) for i in range(3)]
        assert not cache.store("k", ["v"], rows, [(db, "t", db.data_version("t"))], [])

    def test_single_flight_lease(self):
        cache = ResultCache()
        leader, event = cache.lease("k")
        assert leader
        follower, same = cache.lease("k")
        assert not follower and same is event
        cache.release("k")
        assert same.is_set()
        again, _ = cache.lease("k")
        assert again  # lease usable again after release

    def test_clear_counts(self):
        db = make_db()
        cache = ResultCache()
        cache.store("k", ["v"], [(1,)], [(db, "t", db.data_version("t"))], [])
        assert cache.clear("test") == 1
        assert len(cache) == 0
        assert cache.stats()["clears"] == 1


# ---------------------------------------------------------------------------
# Result cache: through the engine
# ---------------------------------------------------------------------------


@pytest.fixture
def cached_engine():
    source = DataSource("solo")
    source.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(4):
        source.execute(f"INSERT INTO t (id, v) VALUES ({i}, {i * 10})")
    engine = SQLEngine({"solo": source}, ShardingRule(default_data_source="solo"))
    engine.result_cache.enabled = True
    yield source, engine
    engine.close()


class TestResultCacheEngine:
    def test_hot_point_read_does_zero_storage_work(self, cached_engine):
        source, engine = cached_engine
        sql, params = "SELECT v FROM t WHERE id = ?", (1,)
        assert engine.execute(sql, params).fetchall() == [(10,)]
        before = source.database.statements_executed
        result = engine.execute(sql, params)
        assert result.fetchall() == [(10,)]
        assert result.route_type == "result_cache"
        assert result.unit_count == 0
        # fully hot: the storage layer never saw the second execution
        assert source.database.statements_executed == before

    def test_update_invalidates(self, cached_engine):
        source, engine = cached_engine
        sql, params = "SELECT v FROM t WHERE id = ?", (1,)
        engine.execute(sql, params).fetchall()
        engine.execute("UPDATE t SET v = 111 WHERE id = 1")
        assert engine.execute(sql, params).fetchall() == [(111,)]

    def test_insert_and_delete_invalidate(self, cached_engine):
        source, engine = cached_engine
        sql = "SELECT count(*) FROM t"
        assert engine.execute(sql).fetchall() == [(4,)]
        engine.execute("INSERT INTO t (id, v) VALUES (90, 0)")
        assert engine.execute(sql).fetchall() == [(5,)]
        engine.execute("DELETE FROM t WHERE id = 90")
        assert engine.execute(sql).fetchall() == [(4,)]

    def test_truncate_invalidates(self, cached_engine):
        source, engine = cached_engine
        sql = "SELECT v FROM t WHERE id = 0"
        engine.execute(sql).fetchall()
        engine.execute("TRUNCATE TABLE t")
        assert engine.execute(sql).fetchall() == []

    def test_create_index_invalidates(self, cached_engine):
        source, engine = cached_engine
        sql = "SELECT v FROM t WHERE id = 2"
        engine.execute(sql).fetchall()
        hits_before = engine.result_cache.hits
        engine.execute("CREATE INDEX idx_v ON t (v)")
        engine.execute(sql).fetchall()
        assert engine.result_cache.invalidations >= 1
        assert engine.result_cache.hits == hits_before

    def test_plan_epoch_bump_clears(self, cached_engine):
        source, engine = cached_engine

        class _Safe(Feature):
            name = "noop"
            plan_cache_safe = True

        engine.execute("SELECT v FROM t WHERE id = 1").fetchall()
        assert len(engine.result_cache) == 1
        engine.add_feature(_Safe())
        assert len(engine.result_cache) == 0
        assert engine.result_cache.stats()["clears"] >= 1

    def test_primary_pin_bypasses_cache(self, cached_engine):
        source, engine = cached_engine
        with pin_primary():
            result = engine.execute("SELECT v FROM t WHERE id = 1")
            result.fetchall()
            assert result.route_type != "result_cache"
        assert len(engine.result_cache) == 0

    def test_select_for_update_not_cached(self, cached_engine):
        source, engine = cached_engine
        engine.execute("SELECT v FROM t WHERE id = 1 FOR UPDATE").fetchall()
        assert len(engine.result_cache) == 0

    def test_cached_rows_are_reusable(self, cached_engine):
        """Hits must replay buffered rows, not share one spent iterator."""
        source, engine = cached_engine
        sql = "SELECT id, v FROM t"
        first = sorted(engine.execute(sql).fetchall())
        second = sorted(engine.execute(sql).fetchall())
        third = sorted(engine.execute(sql).fetchall())
        assert first == second == third

    def test_cache_respects_read_your_writes_through_replicas(self):
        sources, group, engine, feature = make_replicated_engine(
            replica_lags=(60.0,))
        engine.result_cache.enabled = True
        try:
            # cold read: served by the (synced) replica, cached with a
            # causal guard at the current group LSN
            assert engine.execute("SELECT v FROM t WHERE id = 1").fetchall() == [(10,)]
            engine.execute("UPDATE t SET v = 555 WHERE id = 1")
            # the session's token now exceeds the entry's causal guard:
            # the hit is refused and the read falls back to the primary
            assert engine.execute("SELECT v FROM t WHERE id = 1").fetchall() == [(555,)]
            assert engine.result_cache.causal_bypasses + \
                engine.result_cache.invalidations >= 1
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# DistSQL surfaces
# ---------------------------------------------------------------------------


class TestDistSQLSurfaces:
    @pytest.fixture
    def replicated_runtime(self):
        sources, group = make_storage_group(replica_lags=(0.0, 30.0))
        runtime = ShardingRuntime(sources)
        runtime.rule.default_data_source = "prim"
        runtime.apply_rule("readwrite_splitting", "prim", {
            "source": "prim", "primary": "prim", "replicas": ["rep0", "rep1"]})
        yield sources, group, runtime
        runtime.close()

    def test_show_read_resources(self, replicated_runtime):
        sources, group, runtime = replicated_runtime
        result = execute_distsql("SHOW READ RESOURCES", runtime)
        assert result.columns[0] == "group"
        row = result.rows[0]
        assert row[0] == "prim" and "rep0" in row[2]
        assert row[-1] == "yes"  # replication-wired

    def test_show_replication_lag(self, replicated_runtime):
        sources, group, runtime = replicated_runtime
        sources["prim"].execute("INSERT INTO t (id, v) VALUES (70, 7)")
        result = execute_distsql("SHOW REPLICATION LAG", runtime)
        rows = {row[1]: row for row in result.rows}
        assert set(rows) == {"rep0", "rep1"}
        assert rows["rep1"][4] >= 1  # lag_records on the slow replica

    def test_result_cache_variable_and_show_clear(self, replicated_runtime):
        sources, group, runtime = replicated_runtime
        conn = ShardingDataSource(runtime).get_connection()
        conn.execute("SET VARIABLE result_cache = ON")
        assert runtime.engine.result_cache.enabled
        conn.execute("SELECT v FROM t WHERE id = 1").fetchall()
        conn.execute("SELECT v FROM t WHERE id = 1").fetchall()
        shown = execute_distsql("SHOW RESULT CACHE", runtime)
        stats = dict(shown.rows)
        assert int(stats["hits"]) >= 1
        assert int(stats["entries"]) >= 1
        cleared = execute_distsql("CLEAR RESULT CACHE", runtime)
        assert "1" in (cleared.message or "") or len(runtime.engine.result_cache) == 0
        conn.execute("SET VARIABLE result_cache = OFF")
        assert not runtime.engine.result_cache.enabled


# ---------------------------------------------------------------------------
# Bench wiring: replicas through the system-under-test builder
# ---------------------------------------------------------------------------


class TestBenchReplicaWiring:
    def test_ssj_system_builds_replica_groups(self):
        from paper.sysbench import SysbenchConfig, SysbenchWorkload
        from paper.systems import ShardingJDBCSystem

        system = ShardingJDBCSystem(
            [("sbtest", "id")], num_sources=2, tables_per_source=2,
            replicas=2, replication_lag=0.0, result_cache=True,
        )
        try:
            assert len(system.replica_groups) == 2
            assert system.runtime.engine.result_cache.enabled
            assert "ds0_r1" in system.runtime.data_sources
            feature = system.runtime.rwsplit_feature
            assert feature is not None
            assert feature.groups["ds0"].replication is system.replica_groups[0]
            SysbenchWorkload(SysbenchConfig(table_size=40)).prepare(system)
            system.sync_replicas()
            assert all(g.lag_records(r) == 0 for g in system.replica_groups
                       for r in g.replica_names)
            session = system.session()
            rows = session.execute("SELECT c FROM sbtest WHERE id = 1")
            assert len(rows) == 1
            assert feature.reads_routed >= 1
            session.close()
        finally:
            system.close()
