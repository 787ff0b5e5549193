"""Integration tests: runtime + governor + transactions + features together."""

import pytest

from repro.adaptors import ShardingDataSource, ShardingRuntime
from repro.exceptions import DistSQLError
from repro.governor import ConfigCenter
from repro.transaction import TransactionType


@pytest.fixture
def runtime():
    rt = ShardingRuntime()
    yield rt
    rt.close()


class TestRuntimeResources:
    def test_register_resource_visible_to_engine(self, runtime):
        runtime.register_resource("dsX", {"dialect": "PostgreSQL"})
        assert "dsX" in runtime.engine.data_sources
        assert runtime.engine.data_sources["dsX"].dialect.name == "PostgreSQL"

    def test_register_sets_default_source(self, runtime):
        assert runtime.rule.default_data_source is None
        runtime.register_resource("first")
        assert runtime.rule.default_data_source == "first"

    def test_unregister_clears_default(self, runtime):
        runtime.register_resource("a")
        runtime.register_resource("b")
        runtime.unregister_resource("a")
        assert runtime.rule.default_data_source == "b"

    def test_resources_registered_in_governor(self, runtime):
        runtime.register_resource("dsY")
        assert "dsY" in runtime.config_center.data_source_names()

    def test_add_prebuilt_resource(self, runtime):
        from repro.storage import DataSource

        runtime.add_resource("pre", DataSource("pre"))
        assert runtime.data_sources["pre"].name == "pre"


class TestRuntimeVariables:
    def test_transaction_type_flows_to_manager(self, runtime):
        runtime.set_variable("transaction_type", "base")
        assert runtime.transaction_manager.transaction_type is TransactionType.BASE
        assert runtime.variables["transaction_type"] == "BASE"

    def test_max_connections_flows_to_executor(self, runtime):
        runtime.set_variable("max_connections_per_query", "7")
        assert runtime.engine.executor.max_connections_per_query == 7

    def test_invalid_max_connections(self, runtime):
        with pytest.raises(DistSQLError):
            runtime.set_variable("max_connections_per_query", 0)

    def test_variables_persisted_to_governor(self, runtime):
        runtime.set_variable("transaction_type", "XA")
        assert runtime.config_center.get_prop("transaction_type") == "XA"


class TestSharedGovernor:
    def test_jdbc_and_proxy_share_one_config_center(self):
        """The paper: deploy JDBC and Proxy together sharing one Governor."""
        config = ConfigCenter()
        jdbc_runtime = ShardingRuntime(config_center=config)
        jdbc_runtime.register_resource("shared_ds")
        proxy_runtime = ShardingRuntime(config_center=config)
        # the proxy-side runtime sees the JDBC-side registration
        assert "shared_ds" in config.data_source_names()
        jdbc_runtime.close()
        proxy_runtime.close()

    def test_rule_change_visible_through_watch(self, runtime):
        seen = []
        runtime.config_center.watch_rules("sharding", lambda e, p, v: seen.append(v))
        conn = ShardingDataSource(runtime).get_connection()
        conn.execute("REGISTER RESOURCE w0")
        conn.execute(
            "CREATE SHARDING TABLE RULE t_w (RESOURCES(w0), SHARDING_COLUMN=k, "
            "PROPERTIES('sharding-count'=2))"
        )
        assert seen == ["t_w"]
        conn.close()


class TestEndToEndLifecycle:
    def test_full_lifecycle(self, runtime):
        """Configure, create, write, transact, scale the variables, query."""
        ds = ShardingDataSource(runtime)
        conn = ds.get_connection()
        conn.execute("REGISTER RESOURCE e0, e1, e2")
        conn.execute(
            "CREATE SHARDING TABLE RULE t_evt (RESOURCES(e0, e1, e2), "
            "SHARDING_COLUMN=eid, TYPE=mod, PROPERTIES('sharding-count'=6), "
            "KEY_GENERATE_COLUMN=seq, KEY_GENERATOR=snowflake)"
        )
        conn.execute(
            "CREATE TABLE t_evt (eid INT NOT NULL, seq BIGINT, payload VARCHAR(64), "
            "PRIMARY KEY (eid))"
        )
        for i in range(30):
            conn.execute("INSERT INTO t_evt (eid, payload) VALUES (?, ?)", (i, f"p{i}"))

        assert conn.execute("SELECT COUNT(*) FROM t_evt").fetchall() == [(30,)]

        # every shard holds an equal slice (mod 6 over 0..29)
        per_node = []
        for source in runtime.data_sources.values():
            for table in source.database.table_names():
                per_node.append(source.database.table(table).row_count)
        assert per_node == [5] * 6

        conn.execute("SET VARIABLE transaction_type = XA")
        conn.begin()
        conn.execute("UPDATE t_evt SET payload = 'changed' WHERE eid IN (0, 1, 2)")
        conn.commit()
        rows = conn.execute(
            "SELECT COUNT(*) FROM t_evt WHERE payload = 'changed'"
        ).fetchall()
        assert rows == [(3,)]

        preview = conn.execute("PREVIEW SELECT * FROM t_evt WHERE eid = 7").fetchall()
        assert preview == [("e1", "SELECT * FROM t_evt_1 WHERE eid = 7")]
        conn.close()
        ds.close()


class TestShowTablesAndHints:
    def test_show_tables_lists_logic_and_broadcast(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.execute("REGISTER RESOURCE s0, s1")
        conn.execute(
            "CREATE SHARDING TABLE RULE t_x (RESOURCES(s0, s1), SHARDING_COLUMN=k, "
            "PROPERTIES('sharding-count'=2))"
        )
        conn.execute("CREATE BROADCAST TABLE RULE t_dict")
        rows = conn.execute("SHOW TABLES").fetchall()
        assert ("t_x",) in rows
        assert ("t_dict",) in rows
        conn.close()

    def test_show_tables_hides_physical_shards(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.execute("REGISTER RESOURCE s0")
        conn.execute(
            "CREATE SHARDING TABLE RULE t_x (RESOURCES(s0), SHARDING_COLUMN=k, "
            "PROPERTIES('sharding-count'=2))"
        )
        conn.execute("CREATE TABLE t_x (k INT PRIMARY KEY)")
        rows = conn.execute("SHOW TABLES").fetchall()
        assert ("t_x",) in rows
        assert ("t_x_0",) not in rows
        conn.close()

    def test_unsupported_show_rejected(self, runtime):
        from repro.exceptions import UnsupportedSQLError

        runtime.register_resource("s0")
        conn = ShardingDataSource(runtime).get_connection()
        with pytest.raises(UnsupportedSQLError):
            conn.execute("SHOW PROCESSLIST")
        conn.close()

    def test_hint_context_manager_scopes_values(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.set_hint(1)
        with conn.hint(2, 3):
            assert conn.hint_values == [2, 3]
        assert conn.hint_values == [1]
        conn.close()


class TestGovernorRestartRecovery:
    def test_rules_survive_a_runtime_restart(self):
        """A new runtime against the same Governor replays everything."""
        config = ConfigCenter()
        first = ShardingRuntime(config_center=config)
        conn = ShardingDataSource(first).get_connection()
        conn.execute("REGISTER RESOURCE r0, r1, replica0")
        conn.execute(
            "CREATE SHARDING TABLE RULE t_user (RESOURCES(r0, r1), "
            "SHARDING_COLUMN=uid, TYPE=hash_mod, PROPERTIES('sharding-count'=4))"
        )
        conn.execute(
            "CREATE SHARDING TABLE RULE t_order (RESOURCES(r0, r1), "
            "SHARDING_COLUMN=uid, TYPE=hash_mod, PROPERTIES('sharding-count'=4))"
        )
        conn.execute("CREATE SHARDING BINDING TABLE RULES (t_user, t_order)")
        conn.execute("CREATE BROADCAST TABLE RULE t_dict")
        conn.execute("CREATE READWRITE_SPLITTING RULE g (PRIMARY=r0, REPLICAS(replica0))")
        conn.execute("SET VARIABLE transaction_type = XA")
        conn.close()
        first.close()

        # "restart": a fresh runtime joins the same Governor
        second = ShardingRuntime(config_center=config)
        applied = second.load_rules_from_governor()
        assert applied >= 5
        assert second.rule.is_sharded("t_user")
        assert second.rule.are_binding(["t_user", "t_order"])
        assert second.rule.is_broadcast("t_dict")
        assert second.transaction_manager.transaction_type is TransactionType.XA
        assert second.rwsplit_feature is not None
        # and it routes identically to the first runtime's AutoTable layout
        preview = second.preview("SELECT * FROM t_user WHERE uid = 4")
        assert len(preview) == 1
        second.close()
