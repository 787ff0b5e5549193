"""Live cluster propagation: two runtimes converging through one Governor.

Section V-A's cluster mode: every member shares one ConfigCenter; rule
and prop changes made on any member are applied by the others without a
restart. These tests run two :class:`ShardingRuntime` instances against
the same (in-process) Governor and assert convergence, idempotence, and
self-event suppression.
"""

import pytest

from repro.adaptors import ShardingDataSource, ShardingRuntime
from repro.exceptions import GovernanceError


@pytest.fixture
def cluster():
    """Runtime A (writer) and runtime B (cluster member) on one Governor."""
    a = ShardingRuntime()
    a_conn = ShardingDataSource(a).get_connection()
    a_conn.execute("REGISTER RESOURCE ds0, ds1")

    b = ShardingRuntime(config_center=a.config_center)
    b_conn = ShardingDataSource(b).get_connection()
    b_conn.execute("REGISTER RESOURCE ds0, ds1")
    b.enable_cluster_mode()

    yield a, b, a_conn, b_conn

    a_conn.close()
    b_conn.close()
    a.close()
    b.close()


CREATE_T_USER = (
    "CREATE SHARDING TABLE RULE t_user (RESOURCES(ds0, ds1), "
    "SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES('sharding-count'=2))"
)


class TestRulePropagation:
    def test_create_on_a_applies_on_b(self, cluster):
        a, b, a_conn, _ = cluster
        assert not b.rule.is_sharded("t_user")
        a_conn.execute(CREATE_T_USER)
        assert b.rule.is_sharded("t_user")
        # B routes the propagated rule correctly: uid=3 -> shard 1 on ds1
        targets = dict(b.preview("SELECT * FROM t_user WHERE uid = 3"))
        assert list(targets) == ["ds1"]
        assert "t_user_1" in targets["ds1"]

    def test_propagation_bumps_b_version_once(self, cluster):
        a, b, a_conn, _ = cluster
        before = b.metadata.version
        a_conn.execute(CREATE_T_USER)
        assert b.metadata.version == before + 1
        snap = b.metadata.current()
        assert snap.reason == "sharding rule t_user"

    def test_alter_on_a_reshapes_b(self, cluster):
        a, b, a_conn, _ = cluster
        a_conn.execute(CREATE_T_USER)
        assert len(b.rule.table_rule("t_user").data_nodes) == 2
        a_conn.execute(
            "ALTER SHARDING TABLE RULE t_user (RESOURCES(ds0, ds1), "
            "SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES('sharding-count'=4))"
        )
        assert len(b.rule.table_rule("t_user").data_nodes) == 4

    def test_drop_on_a_removes_from_b(self, cluster):
        a, b, a_conn, _ = cluster
        a_conn.execute(CREATE_T_USER)
        assert b.rule.is_sharded("t_user")
        a_conn.execute("DROP SHARDING TABLE RULE t_user")
        assert not b.rule.is_sharded("t_user")
        assert not a.rule.is_sharded("t_user")

    def test_broadcast_and_binding_propagate(self, cluster):
        a, b, a_conn, _ = cluster
        a_conn.execute(CREATE_T_USER)
        a_conn.execute(
            "CREATE SHARDING TABLE RULE t_order (RESOURCES(ds0, ds1), "
            "SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES('sharding-count'=2))"
        )
        a_conn.execute("CREATE BROADCAST TABLE RULE t_dict")
        a_conn.execute("CREATE SHARDING BINDING TABLE RULES (t_user, t_order)")
        assert b.rule.is_broadcast("t_dict")
        assert b.rule.are_binding(["t_user", "t_order"])

    def test_rwsplit_propagates(self, cluster):
        a, b, a_conn, _ = cluster
        a_conn.execute(
            "CREATE READWRITE_SPLITTING RULE wr (PRIMARY=ds0, REPLICAS(ds1))"
        )
        feature = b.rwsplit_feature
        assert feature is not None
        group = feature.groups["ds0"]
        assert group.primary == "ds0"
        assert list(group.replicas) == ["ds1"]

    def test_peer_rule_referencing_unknown_resource_autoregisters(self, cluster):
        a, b, a_conn, _ = cluster
        a_conn.execute("REGISTER RESOURCE ds9")
        a_conn.execute(
            "CREATE SHARDING TABLE RULE t_wide (RESOURCES(ds0, ds1, ds9), "
            "SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES('sharding-count'=3))"
        )
        # B never registered ds9; convergence pulls it in
        assert "ds9" in b.data_sources
        assert b.rule.is_sharded("t_wide")


CREATE_T_ORDER_KEYGEN = (
    "CREATE SHARDING TABLE RULE t_order (RESOURCES(ds0, ds1), "
    "SHARDING_COLUMN=order_id, TYPE=mod, PROPERTIES('sharding-count'=2), "
    "KEY_GENERATE_COLUMN=order_id, KEY_GENERATOR=snowflake)"
)


def insert_without_key(conn):
    """Create t_order and insert one row whose sharding key is generated."""
    conn.execute("CREATE TABLE t_order (order_id BIGINT, amount INT, PRIMARY KEY (order_id))")
    conn.execute("INSERT INTO t_order (amount) VALUES (5)")
    ((order_id, amount),) = conn.execute("SELECT order_id, amount FROM t_order").fetchall()
    assert order_id is not None and amount == 5


class TestKeyGeneratorThroughGovernor:
    """A DistSQL rule's key generator survives the config center."""

    def test_peer_generates_the_key(self, cluster):
        _, b, a_conn, b_conn = cluster
        a_conn.execute(CREATE_T_ORDER_KEYGEN)
        assert b.rule.table_rule("t_order").key_generate.column == "order_id"
        insert_without_key(b_conn)

    def test_restart_generates_the_key(self, cluster):
        a, _, a_conn, _ = cluster
        a_conn.execute(CREATE_T_ORDER_KEYGEN)
        restarted = ShardingRuntime(config_center=a.config_center)
        assert restarted.load_rules_from_governor() >= 1
        conn = ShardingDataSource(restarted).get_connection()
        insert_without_key(conn)
        conn.close()
        restarted.close()


class TestPropPropagation:
    def test_set_variable_on_a_applies_on_b(self, cluster):
        a, b, a_conn, _ = cluster
        a_conn.execute("SET VARIABLE tracing = on")
        assert b.variables["tracing"] == "ON"
        assert b.observability.tracer.enabled
        a_conn.execute("SET VARIABLE slow_query_threshold_ms = 77")
        assert b.variables["slow_query_threshold_ms"] == 77.0

    def test_prop_propagation_does_not_echo(self, cluster):
        a, b, a_conn, _ = cluster
        a.enable_cluster_mode()
        before_a, before_b = a.metadata.version, b.metadata.version
        a_conn.execute("SET VARIABLE tracing = on")
        # one mutation on each side — A applies locally, B converges;
        # neither replays the event back at the writer
        assert a.metadata.version == before_a + 1
        assert b.metadata.version == before_b + 1


class TestSelfEventSuppression:
    def test_writer_with_cluster_mode_does_not_echo_own_rule(self, cluster):
        a, b, a_conn, _ = cluster
        a.enable_cluster_mode()
        before = a.metadata.version
        a_conn.execute(CREATE_T_USER)
        assert a.metadata.version == before + 1  # apply once, no echo
        assert b.rule.is_sharded("t_user")

    def test_bidirectional_writes_converge(self, cluster):
        a, b, a_conn, b_conn = cluster
        a.enable_cluster_mode()
        a_conn.execute(CREATE_T_USER)
        b_conn.execute(
            "CREATE SHARDING TABLE RULE t_order (RESOURCES(ds0, ds1), "
            "SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES('sharding-count'=2))"
        )
        # both members hold both rules
        for runtime in (a, b):
            assert runtime.rule.is_sharded("t_user")
            assert runtime.rule.is_sharded("t_order")

    def test_peer_write_does_not_reapply_own_rules(self, cluster):
        a, b, a_conn, b_conn = cluster
        a.enable_cluster_mode()
        a_conn.execute(CREATE_T_USER)
        version_a = a.metadata.version
        # B's write fires A's sharding watcher; reconcile must not treat
        # A's own (already applied) t_user as fresh and re-apply it
        b_conn.execute(
            "CREATE SHARDING TABLE RULE t_order (RESOURCES(ds0, ds1), "
            "SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES('sharding-count'=2))"
        )
        assert a.metadata.version == version_a + 1  # exactly the t_order apply


class TestClusterLifecycle:
    def test_enable_twice_raises(self, cluster):
        _, b, _, _ = cluster
        with pytest.raises(GovernanceError, match="already enabled"):
            b.enable_cluster_mode()

    def test_instances_visible_while_enabled(self, cluster):
        a, b, _, _ = cluster
        assert b.instance_id in a.config_center.online_instances()
        b.disable_cluster_mode()
        assert b.instance_id not in a.config_center.online_instances()

    def test_disable_stops_propagation(self, cluster):
        a, b, a_conn, _ = cluster
        b.disable_cluster_mode()
        a_conn.execute(CREATE_T_USER)
        assert not b.rule.is_sharded("t_user")
        # rejoining reconverges via restart recovery
        b.enable_cluster_mode()
        applied = b.load_rules_from_governor()
        assert applied >= 1
        assert b.rule.is_sharded("t_user")

    def test_close_disables_cluster_mode(self):
        a = ShardingRuntime()
        b = ShardingRuntime(config_center=a.config_center)
        b.enable_cluster_mode()
        b.close()
        assert a.config_center.online_instances() == []
        a.close()
