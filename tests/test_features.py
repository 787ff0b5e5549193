"""Tests for the pluggable features: rw-split, encrypt, shadow, circuit,
throttle and scaling — each combined with the sharding pipeline."""

import pytest

from repro.adaptors import ShardingDataSource, ShardingRuntime
from repro.engine import SQLEngine
from repro.exceptions import CircuitBreakerOpenError, ShardingSphereError, ThrottledError
from repro.features import (
    CircuitBreakerFeature,
    CircuitState,
    EncryptColumn,
    EncryptFeature,
    EncryptRule,
    MD5Encryptor,
    RandomLoadBalancer,
    ReadWriteGroup,
    ReadWriteSplittingFeature,
    RoundRobinLoadBalancer,
    ScalingJob,
    ShadowFeature,
    ShadowRule,
    ThrottleFeature,
    WeightedLoadBalancer,
    XorStreamEncryptor,
    create_encryptor,
)
from repro.sharding import ShardingRule, build_auto_table_rule, create_physical_tables
from repro.storage import DataSource


class TestLoadBalancers:
    def test_round_robin_cycles(self):
        lb = RoundRobinLoadBalancer()
        picks = [lb.choose(["a", "b", "c"]) for _ in range(6)]
        assert picks == ["a", "b", "c", "a", "b", "c"]

    def test_random_stays_within_replicas(self):
        lb = RandomLoadBalancer(seed=7)
        assert all(lb.choose(["a", "b"]) in ("a", "b") for _ in range(20))

    def test_weighted_prefers_heavy(self):
        lb = WeightedLoadBalancer({"a": 9, "b": 1}, seed=3)
        picks = [lb.choose(["a", "b"]) for _ in range(200)]
        assert picks.count("a") > picks.count("b") * 3


@pytest.fixture
def rw_cluster():
    """primary + 2 replicas, unsharded single table everywhere."""
    sources = {name: DataSource(name) for name in ("primary", "replica0", "replica1")}
    for ds in sources.values():
        ds.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        ds.execute("INSERT INTO t (id, v) VALUES (1, 10)")
    rule = ShardingRule(default_data_source="primary")
    group = ReadWriteGroup("primary", primary="primary", replicas=["replica0", "replica1"])
    feature = ReadWriteSplittingFeature([group])
    engine = SQLEngine(sources, rule, features=[feature])
    yield sources, engine, feature
    engine.close()


class TestReadWriteSplitting:
    def test_reads_round_robin_over_replicas(self, rw_cluster):
        sources, engine, feature = rw_cluster
        engine.execute("SELECT * FROM t").fetchall()
        engine.execute("SELECT * FROM t").fetchall()
        assert feature.reads_routed == 2

    def test_writes_go_to_primary(self, rw_cluster):
        sources, engine, feature = rw_cluster
        engine.execute("UPDATE t SET v = 99 WHERE id = 1")
        assert sources["primary"].execute("SELECT v FROM t WHERE id = 1") == [(99,)]
        assert sources["replica0"].execute("SELECT v FROM t WHERE id = 1") == [(10,)]
        assert feature.writes_routed == 1

    def test_select_for_update_goes_to_primary(self, rw_cluster):
        sources, engine, feature = rw_cluster
        engine.execute("SELECT * FROM t WHERE id = 1 FOR UPDATE").fetchall()
        assert feature.writes_routed == 1
        assert feature.reads_routed == 0

    def test_unhealthy_replicas_skipped(self):
        sources = {name: DataSource(name) for name in ("primary", "replica0")}
        for ds in sources.values():
            ds.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        group = ReadWriteGroup("primary", primary="primary", replicas=["replica0"])
        feature = ReadWriteSplittingFeature([group], is_up=lambda name: name != "replica0")
        engine = SQLEngine(sources, ShardingRule(default_data_source="primary"), features=[feature])
        engine.execute("SELECT * FROM t").fetchall()
        assert feature.writes_routed == 1  # fell back to primary
        engine.close()

    def test_in_transaction_reads_go_to_primary(self):
        sources = {name: DataSource(name) for name in ("primary", "replica0")}
        for ds in sources.values():
            ds.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        group = ReadWriteGroup("primary", primary="primary", replicas=["replica0"])
        feature = ReadWriteSplittingFeature([group], in_transaction=lambda: True)
        engine = SQLEngine(sources, ShardingRule(default_data_source="primary"), features=[feature])
        engine.execute("SELECT * FROM t").fetchall()
        assert feature.writes_routed == 1
        engine.close()

    def test_primary_scope_reads_the_primary(self):
        # the two copies disagree, so each read tells where it was served
        sources = {name: DataSource(name) for name in ("primary", "replica0")}
        for v, ds in enumerate(sources.values(), 1):
            ds.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            ds.execute(f"INSERT INTO t (id, v) VALUES (1, {v})")
        runtime = ShardingRuntime(sources)
        runtime.apply_rule("readwrite_splitting", "primary", {
            "source": "primary", "primary": "primary", "replicas": ["replica0"]})
        with ShardingDataSource(runtime) as data_source:
            conn = data_source.get_connection()

            def read():
                return conn.execute("SELECT v FROM t WHERE id = 1").fetchall()

            assert read() == [(2,)]
            with conn.primary():
                assert read() == [(1,)]
                assert read() == [(1,)]
            assert read() == [(2,)]
            conn.close()
        feature = runtime.rwsplit_feature
        assert (feature.reads_routed, feature.writes_routed) == (2, 2)


@pytest.fixture
def encrypted_engine(fleet, paper_rule):
    rule = EncryptRule()
    rule.add("t_user", EncryptColumn("name", "name_cipher", XorStreamEncryptor("k1")))
    for i, ds in enumerate(fleet.values()):
        ds.execute(f"DROP TABLE t_user_h{i}")
        ds.execute(
            f"CREATE TABLE t_user_h{i} (uid INT PRIMARY KEY, name_cipher VARCHAR(128), age INT)"
        )
    engine = SQLEngine(fleet, paper_rule, features=[EncryptFeature(rule)])
    yield fleet, engine
    engine.close()


class TestEncrypt:
    def test_insert_stores_ciphertext(self, encrypted_engine):
        fleet, engine = encrypted_engine
        engine.execute("INSERT INTO t_user (uid, name, age) VALUES (2, 'bob', 25)")
        stored = fleet["ds0"].execute("SELECT name_cipher FROM t_user_h0")[0][0]
        assert stored != "bob"
        assert XorStreamEncryptor("k1").decrypt(stored) == "bob"

    def test_select_decrypts_transparently(self, encrypted_engine):
        fleet, engine = encrypted_engine
        engine.execute("INSERT INTO t_user (uid, name, age) VALUES (2, 'bob', 25)")
        rows = engine.execute("SELECT name FROM t_user WHERE uid = 2").fetchall()
        assert rows == [("bob",)]

    def test_where_equality_on_encrypted_column(self, encrypted_engine):
        fleet, engine = encrypted_engine
        engine.execute("INSERT INTO t_user (uid, name, age) VALUES (2, 'bob', 25), (4, 'dave', 30)")
        rows = engine.execute("SELECT uid FROM t_user WHERE name = 'dave'").fetchall()
        assert rows == [(4,)]

    def test_update_encrypts_new_value(self, encrypted_engine):
        fleet, engine = encrypted_engine
        engine.execute("INSERT INTO t_user (uid, name, age) VALUES (2, 'bob', 25)")
        engine.execute("UPDATE t_user SET name = 'robert' WHERE uid = 2")
        rows = engine.execute("SELECT name FROM t_user WHERE uid = 2").fetchall()
        assert rows == [("robert",)]

    def test_placeholder_values_encrypted(self, encrypted_engine):
        fleet, engine = encrypted_engine
        engine.execute("INSERT INTO t_user (uid, name, age) VALUES (?, ?, ?)", (2, "eve", 20))
        rows = engine.execute("SELECT uid FROM t_user WHERE name = ?", ("eve",)).fetchall()
        assert rows == [(2,)]

    def test_in_list_on_encrypted_column(self, encrypted_engine):
        fleet, engine = encrypted_engine
        engine.execute(
            "INSERT INTO t_user (uid, name, age) VALUES (2, 'bob', 25), (3, 'cy', 28), "
            "(4, 'dave', 30)"
        )

        def uids(sql, params=()):
            return engine.execute(sql + " ORDER BY uid", params).fetchall()

        assert uids("SELECT uid FROM t_user WHERE name IN ('bob', 'cy')") == [(2,), (3,)]
        assert uids("SELECT uid FROM t_user WHERE name IN (?, ?)", ("bob", "dave")) == [
            (2,), (4,)]
        assert uids("SELECT uid FROM t_user WHERE name IN (?, ?) AND age > ?",
                    ("bob", "dave", 26)) == [(4,)]
        assert uids("SELECT uid, name FROM t_user WHERE name NOT IN ('bob')") == [
            (3, "cy"), (4, "dave")]
        result = engine.execute("DELETE FROM t_user WHERE name IN (?)", ("cy",))
        assert result.update_count == 1
        assert uids("SELECT uid, name FROM t_user") == [(2, "bob"), (4, "dave")]

    def test_md5_is_one_way(self):
        encryptor = MD5Encryptor()
        digest = encryptor.encrypt("secret")
        assert digest != "secret"
        assert encryptor.decrypt(digest) == digest

    def test_registry(self):
        assert isinstance(create_encryptor("aes", key="x"), XorStreamEncryptor)
        with pytest.raises(Exception):
            create_encryptor("rot13")


class TestShadow:
    @pytest.fixture
    def shadow_setup(self):
        sources = {"prod": DataSource("prod"), "prod_shadow": DataSource("prod_shadow")}
        for ds in sources.values():
            ds.execute("CREATE TABLE t (id INT PRIMARY KEY, is_shadow BOOLEAN, v INT)")
        rule = ShardingRule(default_data_source="prod")
        feature = ShadowFeature(ShadowRule(mapping={"prod": "prod_shadow"}))
        engine = SQLEngine(sources, rule, features=[feature])
        yield sources, engine, feature
        engine.close()

    def test_shadow_insert_redirected(self, shadow_setup):
        sources, engine, feature = shadow_setup
        engine.execute("INSERT INTO t (id, is_shadow, v) VALUES (1, TRUE, 10)")
        assert sources["prod_shadow"].execute("SELECT COUNT(*) FROM t") == [(1,)]
        assert sources["prod"].execute("SELECT COUNT(*) FROM t") == [(0,)]

    def test_production_insert_stays(self, shadow_setup):
        sources, engine, feature = shadow_setup
        engine.execute("INSERT INTO t (id, is_shadow, v) VALUES (1, FALSE, 10)")
        assert sources["prod"].execute("SELECT COUNT(*) FROM t") == [(1,)]
        assert sources["prod_shadow"].execute("SELECT COUNT(*) FROM t") == [(0,)]

    def test_shadow_select_redirected(self, shadow_setup):
        sources, engine, feature = shadow_setup
        sources["prod_shadow"].execute("INSERT INTO t (id, is_shadow, v) VALUES (9, TRUE, 1)")
        rows = engine.execute("SELECT id FROM t WHERE is_shadow = TRUE").fetchall()
        assert rows == [(9,)]

    def test_mixed_rows_not_shadow(self, shadow_setup):
        sources, engine, feature = shadow_setup
        engine.execute("INSERT INTO t (id, is_shadow, v) VALUES (1, TRUE, 1), (2, FALSE, 2)")
        assert sources["prod"].execute("SELECT COUNT(*) FROM t") == [(2,)]


class TestCircuitBreaker:
    def test_opens_after_threshold(self, seeded_engine):
        breaker = CircuitBreakerFeature(failure_threshold=2, reset_timeout=60)
        seeded_engine.add_feature(breaker)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        with pytest.raises(CircuitBreakerOpenError):
            seeded_engine.execute("SELECT 1 FROM t_user WHERE uid = 1")

    def test_half_open_probe_closes(self, seeded_engine):
        breaker = CircuitBreakerFeature(failure_threshold=1, reset_timeout=0.0)
        seeded_engine.add_feature(breaker)
        breaker.record_failure()
        # reset_timeout elapsed -> probe allowed; success closes the circuit
        seeded_engine.execute("SELECT * FROM t_user WHERE uid = 1").fetchall()
        assert breaker.state is CircuitState.CLOSED

    def test_manual_trip_and_reset(self, seeded_engine):
        breaker = CircuitBreakerFeature(reset_timeout=60)
        seeded_engine.add_feature(breaker)
        breaker.trip()
        with pytest.raises(CircuitBreakerOpenError):
            seeded_engine.execute("SELECT * FROM t_user")
        breaker.reset()
        assert seeded_engine.execute("SELECT COUNT(*) FROM t_user").fetchall() == [(4,)]


class TestThrottle:
    def test_burst_then_reject(self, seeded_engine):
        seeded_engine.add_feature(ThrottleFeature(rate=0.001, burst=2))
        seeded_engine.execute("SELECT * FROM t_user WHERE uid = 1").fetchall()
        seeded_engine.execute("SELECT * FROM t_user WHERE uid = 1").fetchall()
        with pytest.raises(ThrottledError):
            seeded_engine.execute("SELECT * FROM t_user WHERE uid = 1")

    def test_tokens_refill(self, seeded_engine):
        import time

        seeded_engine.add_feature(ThrottleFeature(rate=100, burst=1))
        seeded_engine.execute("SELECT * FROM t_user WHERE uid = 1").fetchall()
        time.sleep(0.05)
        seeded_engine.execute("SELECT * FROM t_user WHERE uid = 1").fetchall()

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ThrottleFeature(rate=0)


class TestScaling:
    def make_cluster(self, shards_before=2, sources_before=1):
        names = [f"ds{i}" for i in range(4)]
        sources = {n: DataSource(n) for n in names}
        rule_obj = build_auto_table_rule(
            "t_big", names[:sources_before], sharding_column="id",
            algorithm_type="MOD", properties={"sharding-count": shards_before},
        )
        from repro.storage import Column, TableSchema, make_type

        schema = TableSchema(
            "t_big",
            [Column("id", make_type("INT"), not_null=True), Column("v", make_type("INT"))],
            primary_key=["id"],
        )
        create_physical_tables(rule_obj, schema, sources)
        rule = ShardingRule([rule_obj], default_data_source="ds0")
        engine = SQLEngine(sources, rule, max_connections_per_query=4)
        for i in range(50):
            engine.execute(f"INSERT INTO t_big (id, v) VALUES ({i}, {i * 2})")
        return sources, rule, engine

    def test_reshard_2_to_4(self):
        sources, rule, engine = self.make_cluster()
        target = build_auto_table_rule(
            "t_big_v2", list(sources), sharding_column="id",
            algorithm_type="MOD", properties={"sharding-count": 4},
        )
        # target logic table must be the same; rebuild with matching name
        from repro.sharding import TableRule, StandardShardingStrategy, create_algorithm, DataNode

        target = TableRule(
            "t_big",
            [DataNode(f"ds{i % 4}", f"t_big_new_{i}") for i in range(4)],
            table_strategy=StandardShardingStrategy(
                "id", create_algorithm("MOD", {"sharding-count": 4})
            ),
            auto=True,
        )
        job = ScalingJob(rule, target, sources)
        report = job.run()
        assert report.rows_migrated == 50
        assert report.consistent
        # traffic now flows through the new layout
        assert engine.execute("SELECT COUNT(*) FROM t_big").fetchall() == [(50,)]
        rows = engine.execute("SELECT v FROM t_big WHERE id = 13").fetchall()
        assert rows == [(26,)]
        engine.close()

    def test_progress_callbacks(self):
        sources, rule, engine = self.make_cluster()
        from repro.sharding import TableRule, StandardShardingStrategy, create_algorithm, DataNode

        target = TableRule(
            "t_big",
            [DataNode("ds1", "t_big_x0"), DataNode("ds2", "t_big_x1")],
            table_strategy=StandardShardingStrategy(
                "id", create_algorithm("MOD", {"sharding-count": 2})
            ),
            auto=True,
        )
        phases = []
        job = ScalingJob(rule, target, sources, progress=lambda p, c: phases.append(p))
        job.run()
        # one "inventory" event per source node
        assert phases == ["preparing", "inventory", "inventory", "checking", "switching"]
        engine.close()

    def test_colliding_target_rejected(self):
        sources, rule, engine = self.make_cluster()
        current = rule.table_rule("t_big")
        job = ScalingJob(rule, current, sources)
        with pytest.raises(ShardingSphereError):
            job.run()
        engine.close()

    def test_drop_source_tables(self):
        sources, rule, engine = self.make_cluster()
        from repro.sharding import TableRule, StandardShardingStrategy, create_algorithm, DataNode

        target = TableRule(
            "t_big",
            [DataNode("ds3", "t_big_y0"), DataNode("ds3", "t_big_y1")],
            table_strategy=StandardShardingStrategy(
                "id", create_algorithm("MOD", {"sharding-count": 2})
            ),
            auto=True,
        )
        job = ScalingJob(rule, target, sources, drop_source_tables=True)
        job.run()
        assert not sources["ds0"].database.has_table("t_big_0")
        engine.close()
