"""Rules are declared once: ``repro.adaptors.runtime.RULES``.

Every writer of a rule — DistSQL, MIGRATE TABLE's switchover, the
HealthDetector's failover — goes through ``ShardingRuntime.apply_rule``
with the rule's Governor config, and restart replay and cluster peers
apply the persisted config the same way. The round trips here check that
every side builds an equal rule; the regressions are the ways the writer's
and the replayer's rules used to differ.
"""

import pytest

from repro.adaptors import ShardingDataSource, ShardingRuntime
from repro.adaptors.runtime import RULES
from repro.distsql import execute_distsql
from repro.exceptions import ShardingConfigError
from repro.governor import ConfigCenter, HealthDetector
from repro.governor import ReplicaGroup as GovReplicaGroup
from repro.sharding import UUIDKeyGenerator
from repro.storage import DataSource, FaultInjector, ReplicaGroup

SHARD_T_USER = ("CREATE SHARDING TABLE RULE t_user (RESOURCES(ds0, ds1), SHARDING_COLUMN=uid, "
                "TYPE=mod, PROPERTIES('sharding-count'=2))")
SHARD_T_ORDER = ("CREATE SHARDING TABLE RULE t_order (RESOURCES(ds0, ds1), SHARDING_COLUMN=uid, "
                 "TYPE=mod, PROPERTIES('sharding-count'=2))")

#: DistSQL that creates (and for sharding alters) one rule of each kind, and
#: the names under which the Governor keeps the kind's rules
STATEMENTS = {
    "sharding": ([
        SHARD_T_USER,
        "ALTER SHARDING TABLE RULE t_user (RESOURCES(ds0, ds1, ds2), SHARDING_COLUMN=uid, "
        "TYPE=hash_mod, PROPERTIES('sharding-count'=6), KEY_GENERATE_COLUMN=ukey, "
        "KEY_GENERATOR=uuid)",
    ], ["t_user"]),
    "binding": ([
        SHARD_T_USER, SHARD_T_ORDER, "CREATE SHARDING BINDING TABLE RULES (t_user, t_order)",
    ], ["t_order+t_user"]),
    "broadcast": (["CREATE BROADCAST TABLE RULE t_dict"], ["t_dict"]),
    "readwrite_splitting": ([
        "CREATE READWRITE_SPLITTING RULE wr (PRIMARY=ds0, REPLICAS(ds1, ds2))",
    ], ["wr"]),
}


def described(runtime):
    """Everything a rule decides, in comparable form."""
    tables = {}
    for table_rule in runtime.rule.table_rules():
        strategy = table_rule.table_strategy
        key_generate = table_rule.key_generate
        tables[table_rule.logic_table] = (
            [str(node) for node in table_rule.data_nodes],
            strategy.columns, type(strategy.algorithm), vars(strategy.algorithm),
            key_generate and (key_generate.column, type(key_generate.generator)),
        )
    feature = runtime.rwsplit_feature
    return {
        "sharding": tables,
        "binding": sorted(sorted(group) for group in runtime.rule.binding_groups),
        "broadcast": sorted(runtime.rule.broadcast_tables),
        "readwrite_splitting": {
            key: (group.primary, list(group.replicas))
            for key, group in (feature.groups.items() if feature else ())
        },
    }


def test_the_table_covers_every_kind():
    assert set(STATEMENTS) == set(RULES)


@pytest.mark.parametrize("kind", sorted(RULES))
def test_round_trip(kind):
    """DistSQL create (+ ALTER) -> persisted config -> restart replay -> peer."""
    statements, names = STATEMENTS[kind]
    center = ConfigCenter()
    writer = ShardingRuntime(config_center=center)
    peer = ShardingRuntime(config_center=center)
    peer.enable_cluster_mode()
    execute_distsql("REGISTER RESOURCE ds0, ds1, ds2 (PROPERTIES('dialect'='PostgreSQL'))", writer)
    for sql in statements:
        execute_distsql(sql, writer)

    assert center.rule_names(kind) == names
    for name in names:  # the whole config: every key the kind declares
        assert set(center.load_rule(kind, name)) == set(RULES[kind].keys)

    restarted = ShardingRuntime(config_center=center)
    assert restarted.load_rules_from_governor() == sum(
        len(center.rule_names(each)) for each in RULES)
    expected = described(writer)
    assert expected[kind]  # the kind's rule is there to compare
    for side in (restarted, peer):
        assert described(side) == expected
        for name, source in side.data_sources.items():  # registered as the writer did
            assert source.dialect.name == writer.data_sources[name].dialect.name
    for runtime in (writer, peer, restarted):
        runtime.close()


def test_alter_reshapes_what_restart_and_peers_build():
    center = ConfigCenter()
    writer = ShardingRuntime(config_center=center)
    peer = ShardingRuntime(config_center=center)
    peer.enable_cluster_mode()
    execute_distsql("REGISTER RESOURCE ds0, ds1, ds2", writer)
    for sql in STATEMENTS["sharding"][0]:
        execute_distsql(sql, writer)
    restarted = ShardingRuntime(config_center=center)
    restarted.load_rules_from_governor()
    for runtime in (writer, peer, restarted):
        table_rule = runtime.rule.table_rule("t_user")
        assert len(table_rule.data_nodes) == 6
        assert isinstance(table_rule.key_generate.generator, UUIDKeyGenerator)
        runtime.close()


def test_drop_retracts_the_config_everywhere():
    center = ConfigCenter()
    writer = ShardingRuntime(config_center=center)
    peer = ShardingRuntime(config_center=center)
    peer.enable_cluster_mode()
    execute_distsql("REGISTER RESOURCE ds0, ds1", writer)
    execute_distsql(SHARD_T_USER, writer)
    assert peer.rule.is_sharded("t_user")
    execute_distsql("DROP SHARDING TABLE RULE t_user", writer)
    assert center.rule_names("sharding") == []
    assert not peer.rule.is_sharded("t_user")
    restarted = ShardingRuntime(config_center=center)
    assert restarted.load_rules_from_governor() == 0
    for runtime in (writer, peer, restarted):
        runtime.close()


def test_a_restart_skips_a_binding_whose_table_was_dropped():
    writer = ShardingRuntime()
    execute_distsql("REGISTER RESOURCE ds0, ds1", writer)
    for sql in STATEMENTS["binding"][0]:
        execute_distsql(sql, writer)
    execute_distsql("DROP SHARDING TABLE RULE t_order", writer)
    restarted = ShardingRuntime(config_center=writer.config_center)
    assert restarted.load_rules_from_governor() == 1  # t_user; the drop retracted the binding
    assert described(restarted) == described(writer)
    writer.close()
    restarted.close()


def test_a_config_must_give_the_keys_its_kind_declares():
    runtime = ShardingRuntime()
    with pytest.raises(ShardingConfigError, match="required; not"):
        runtime.apply_rule("broadcast", "t_dict", {})
    with pytest.raises(ShardingConfigError, match="required; not"):
        runtime.apply_rule("broadcast", "t_dict", {"table": "t_dict", "tabel": "x"})
    assert not runtime.rule.is_broadcast("t_dict")
    assert runtime.config_center.rule_names("broadcast") == []
    runtime.close()


# ---------------------------------------------------------------------------
# What the writer and a replayer used to build differently
# ---------------------------------------------------------------------------


def migrated(key_generator=None):
    """A runtime whose t_user moved from 2 shards to 4 by MIGRATE TABLE,
    and a cluster peer that watched it happen."""
    center = ConfigCenter()
    owner = ShardingRuntime(config_center=center)
    peer = ShardingRuntime(config_center=center)
    peer.enable_cluster_mode()
    conn = ShardingDataSource(owner).get_connection()
    conn.execute("REGISTER RESOURCE ds0, ds1, ds2, ds3")
    keygen = f", KEY_GENERATE_COLUMN=ukey, KEY_GENERATOR={key_generator}" if key_generator else ""
    conn.execute(SHARD_T_USER[:-1] + keygen + ")")
    conn.execute("CREATE TABLE t_user (uid INT PRIMARY KEY, ukey VARCHAR(32), v INT)")
    for uid in range(8):
        conn.execute(f"INSERT INTO t_user (uid, ukey, v) VALUES ({uid}, 'k{uid}', {uid})")
    conn.execute("MIGRATE TABLE t_user (RESOURCES(ds0, ds1, ds2, ds3), SHARDING_COLUMN=uid, "
                 "TYPE=mod, PROPERTIES('sharding-count'=4))")
    conn.close()
    return owner, peer


def test_a_migrated_table_survives_a_restart():
    owner, peer = migrated()
    restarted = ShardingRuntime(dict(owner.data_sources), config_center=owner.config_center)
    restarted.load_rules_from_governor()
    assert restarted.engine.execute("SELECT COUNT(*) FROM t_user").fetchall() == [(8,)]
    for runtime in (owner, peer, restarted):
        runtime.close()


def test_a_peer_routes_to_the_migrated_tables():
    owner, peer = migrated()
    assert peer.preview("SELECT * FROM t_user WHERE uid = 3") == owner.preview(
        "SELECT * FROM t_user WHERE uid = 3")
    ((source, sql),) = peer.preview("SELECT * FROM t_user WHERE uid = 3")
    assert source == "ds3" and "t_user_g2_3" in sql
    owner.close()
    peer.close()


def test_migrate_keeps_the_key_generator():
    owner, peer = migrated(key_generator="uuid")
    restarted = ShardingRuntime(dict(owner.data_sources), config_center=owner.config_center)
    restarted.load_rules_from_governor()
    for runtime in (owner, peer, restarted):
        key_generate = runtime.rule.table_rule("t_user").key_generate
        assert key_generate.column == "ukey"
        assert isinstance(key_generate.generator, UUIDKeyGenerator)
        runtime.close()


def test_a_restart_after_failover_keys_the_group_by_its_routed_source():
    primary = DataSource("prim")
    storage_group = ReplicaGroup(primary, seed=1)
    sources = {"prim": primary}
    primary.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for name in ("rep0", "rep1"):
        sources[name] = DataSource(name)
        storage_group.add_replica(sources[name], lag=0.0)
    storage_group.sync()
    owner = ShardingRuntime(sources)
    execute_distsql(
        "CREATE READWRITE_SPLITTING RULE g0 (PRIMARY=prim, REPLICAS(rep0, rep1))", owner)
    detector = HealthDetector(sources, owner.config_center,
                              groups=[GovReplicaGroup("g0", "prim", ["rep0", "rep1"])])
    owner.attach_health_detector(detector)
    injector = FaultInjector(seed=1)
    for source in sources.values():
        source.set_fault_injector(injector)
    injector.crash("prim")
    detector.check_once()

    restarted = ShardingRuntime(sources, config_center=owner.config_center)
    restarted.load_rules_from_governor()
    for runtime in (owner, restarted):
        ((key, group),) = runtime.rwsplit_feature.groups.items()
        assert (key, group.primary, group.replicas) == ("prim", "rep0", ["rep1"])
    conn = ShardingDataSource(restarted).get_connection()
    conn.execute("INSERT INTO t (id, v) VALUES (1, 1)")
    conn.close()
    assert sources["rep0"].execute("SELECT v FROM t WHERE id = 1") == [(1,)]
    owner.close()
    restarted.close()


def test_a_replayed_rule_registers_a_resource_with_its_dialect():
    owner = ShardingRuntime()
    execute_distsql("REGISTER RESOURCE ds0 (PROPERTIES('dialect'='PostgreSQL')), ds1", owner)
    execute_distsql(SHARD_T_USER, owner)
    restarted = ShardingRuntime(config_center=owner.config_center)
    restarted.load_rules_from_governor()
    assert {name: source.dialect.name for name, source in restarted.data_sources.items()} == {
        "ds0": "PostgreSQL", "ds1": "MySQL"}
    owner.close()
    restarted.close()


def test_a_dropped_table_takes_its_binding_with_it():
    """Re-creating a dropped table does not revive its binding: the drop
    retracted the binding config, as it shrank the live binding group."""
    center = ConfigCenter()
    writer = ShardingRuntime(config_center=center)
    peer = ShardingRuntime(config_center=center)
    peer.enable_cluster_mode()
    execute_distsql("REGISTER RESOURCE ds0, ds1", writer)
    for sql in STATEMENTS["binding"][0]:
        execute_distsql(sql, writer)
    execute_distsql("DROP SHARDING TABLE RULE t_order", writer)
    execute_distsql(SHARD_T_ORDER, writer)
    assert center.rule_names("binding") == []
    restarted = ShardingRuntime(config_center=center)
    restarted.load_rules_from_governor()
    assert described(writer)["binding"] == []
    for side in (restarted, peer):
        assert described(side) == described(writer)
    for runtime in (writer, peer, restarted):
        runtime.close()


def test_a_dropped_table_leaves_the_rest_of_its_binding_bound():
    center = ConfigCenter()
    writer = ShardingRuntime(config_center=center)
    peer = ShardingRuntime(config_center=center)
    peer.enable_cluster_mode()
    execute_distsql("REGISTER RESOURCE ds0, ds1", writer)
    for sql in (SHARD_T_USER, SHARD_T_ORDER, SHARD_T_USER.replace("t_user", "t_item"),
                "CREATE SHARDING BINDING TABLE RULES (t_user, t_order, t_item)"):
        execute_distsql(sql, writer)
    execute_distsql("DROP SHARDING TABLE RULE t_order", writer)
    assert center.rule_names("binding") == ["t_item+t_user"]
    restarted = ShardingRuntime(config_center=center)
    restarted.load_rules_from_governor()
    assert described(writer)["binding"] == [["t_item", "t_user"]]
    for side in (restarted, peer):
        assert described(side) == described(writer)
    for runtime in (writer, peer, restarted):
        runtime.close()


def test_a_resource_keeps_every_property_across_a_restart():
    owner = ShardingRuntime()
    execute_distsql("REGISTER RESOURCE ds0 (PROPERTIES('pool_size'=8, 'dialect'='PostgreSQL')), "
                    "ds1", owner)
    execute_distsql(SHARD_T_USER, owner)
    restarted = ShardingRuntime(config_center=owner.config_center)
    restarted.load_rules_from_governor()
    for runtime in (owner, restarted):
        assert {name: (source.dialect.name, source.pool.max_size)
                for name, source in runtime.data_sources.items()} == {
            "ds0": ("PostgreSQL", 8), "ds1": ("MySQL", 64)}
    owner.close()
    restarted.close()
