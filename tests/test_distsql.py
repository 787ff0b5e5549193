"""Tests for DistSQL: RDL / RQL / RAL parsing and execution."""

import pytest

from repro.adaptors import ShardingDataSource, ShardingRuntime
from repro.distsql import execute_distsql, is_distsql, parse_distsql
from repro.distsql.parser import (
    CreateBindingRule,
    CreateShardingTableRule,
    Preview,
    RegisterResource,
    SetVariable,
)
from repro.distsql.show import SHOW_FORMS
from repro.exceptions import DistSQLError


@pytest.fixture
def runtime():
    rt = ShardingRuntime()
    yield rt
    rt.close()


@pytest.fixture
def configured(runtime):
    execute_distsql("REGISTER RESOURCE ds0, ds1", runtime)
    execute_distsql(
        "CREATE SHARDING TABLE RULE t_user (RESOURCES(ds0, ds1), "
        "SHARDING_COLUMN=uid, TYPE=hash_mod, PROPERTIES('sharding-count'=2))",
        runtime,
    )
    return runtime


class TestDetection:
    @pytest.mark.parametrize(
        "sql",
        [
            "REGISTER RESOURCE ds0",
            "create sharding table rule x (RESOURCES(a), SHARDING_COLUMN=c)",
            "SHOW SHARDING TABLE RULES",
            "SET VARIABLE transaction_type = XA",
            "PREVIEW SELECT 1",
        ],
    )
    def test_distsql_detected(self, sql):
        assert is_distsql(sql)

    @pytest.mark.parametrize(
        "sql",
        ["SELECT * FROM t", "INSERT INTO t VALUES (1)", "SHOW TABLES", "CREATE TABLE t (a INT)"],
    )
    def test_plain_sql_not_detected(self, sql):
        assert not is_distsql(sql)


class TestParser:
    def test_register_with_properties(self):
        stmt = parse_distsql("REGISTER RESOURCE ds0 (PROPERTIES('dialect'='PostgreSQL'))")
        assert isinstance(stmt, RegisterResource)
        assert stmt.resources == [("ds0", {"dialect": "PostgreSQL"})]

    def test_paper_example_create_rule(self):
        """The exact RDL statement shown in Section V-A of the paper."""
        stmt = parse_distsql(
            "CREATE SHARDING TABLE RULE t_user_h (RESOURCES(ds0, ds1), "
            "SHARDING_COLUMN=uid, TYPE=hash_mod, PROPERTIES('sharding-count'=2))"
        )
        assert isinstance(stmt, CreateShardingTableRule)
        assert stmt.table == "t_user_h"
        assert stmt.resources == ["ds0", "ds1"]
        assert stmt.sharding_column == "uid"
        assert stmt.algorithm_type == "HASH_MOD"
        assert stmt.properties == {"sharding-count": 2}

    def test_alter_flag(self):
        stmt = parse_distsql(
            "ALTER SHARDING TABLE RULE t (RESOURCES(ds0), SHARDING_COLUMN=c, "
            "PROPERTIES('sharding-count'=1))"
        )
        assert stmt.alter

    def test_binding_rule(self):
        stmt = parse_distsql("CREATE SHARDING BINDING TABLE RULES (t_user, t_order)")
        assert isinstance(stmt, CreateBindingRule)
        assert stmt.tables == ["t_user", "t_order"]

    def test_set_variable(self):
        stmt = parse_distsql("SET VARIABLE transaction_type = XA")
        assert isinstance(stmt, SetVariable)
        assert stmt.value == "XA"

    def test_preview_wraps_sql(self):
        stmt = parse_distsql("PREVIEW SELECT * FROM t WHERE a = 1")
        assert isinstance(stmt, Preview)
        assert stmt.sql == "SELECT * FROM t WHERE a = 1"

    def test_rule_requires_resources(self):
        with pytest.raises(DistSQLError):
            parse_distsql("CREATE SHARDING TABLE RULE t (SHARDING_COLUMN=c)")

    def test_rule_requires_column(self):
        with pytest.raises(DistSQLError):
            parse_distsql("CREATE SHARDING TABLE RULE t (RESOURCES(ds0))")

    def test_garbage_rejected(self):
        with pytest.raises(DistSQLError):
            parse_distsql("SHOW NONSENSE THINGS")


class TestRDLExecution:
    def test_register_creates_data_sources(self, runtime):
        result = execute_distsql("REGISTER RESOURCE ds0, ds1", runtime)
        assert "2 resource" in result.message
        assert set(runtime.data_sources) == {"ds0", "ds1"}

    def test_register_duplicate_rejected(self, runtime):
        execute_distsql("REGISTER RESOURCE ds0", runtime)
        with pytest.raises(DistSQLError):
            execute_distsql("REGISTER RESOURCE ds0", runtime)

    def test_register_with_dialect(self, runtime):
        execute_distsql("REGISTER RESOURCE pg (PROPERTIES('dialect'='PostgreSQL'))", runtime)
        assert runtime.data_sources["pg"].dialect.name == "PostgreSQL"

    def test_unregister(self, runtime):
        execute_distsql("REGISTER RESOURCE ds0", runtime)
        execute_distsql("UNREGISTER RESOURCE ds0", runtime)
        assert runtime.data_sources == {}

    def test_unregister_in_use_rejected(self, configured):
        with pytest.raises(DistSQLError):
            execute_distsql("UNREGISTER RESOURCE ds0", configured)

    def test_create_rule_unknown_resource_rejected(self, runtime):
        with pytest.raises(DistSQLError):
            execute_distsql(
                "CREATE SHARDING TABLE RULE t (RESOURCES(nope), SHARDING_COLUMN=c, "
                "PROPERTIES('sharding-count'=1))",
                runtime,
            )

    def test_autotable_flow_creates_physical_tables(self, configured):
        """Rule first, then a logical CREATE TABLE materializes the shards."""
        configured.engine.execute("CREATE TABLE t_user (uid INT PRIMARY KEY, v INT)")
        assert configured.data_sources["ds0"].database.has_table("t_user_0")
        assert configured.data_sources["ds1"].database.has_table("t_user_1")

    def test_create_duplicate_rule_needs_alter(self, configured):
        with pytest.raises(DistSQLError):
            execute_distsql(
                "CREATE SHARDING TABLE RULE t_user (RESOURCES(ds0), SHARDING_COLUMN=uid, "
                "PROPERTIES('sharding-count'=1))",
                configured,
            )
        result = execute_distsql(
            "ALTER SHARDING TABLE RULE t_user (RESOURCES(ds0), SHARDING_COLUMN=uid, "
            "PROPERTIES('sharding-count'=1))",
            configured,
        )
        assert "altered" in result.message

    def test_alter_missing_rule_rejected(self, configured):
        with pytest.raises(DistSQLError):
            execute_distsql(
                "ALTER SHARDING TABLE RULE ghost (RESOURCES(ds0), SHARDING_COLUMN=c, "
                "PROPERTIES('sharding-count'=1))",
                configured,
            )

    def test_drop_rule(self, configured):
        execute_distsql("DROP SHARDING TABLE RULE t_user", configured)
        assert not configured.rule.is_sharded("t_user")

    def test_binding_rules(self, configured):
        execute_distsql(
            "CREATE SHARDING TABLE RULE t_order (RESOURCES(ds0, ds1), "
            "SHARDING_COLUMN=uid, TYPE=hash_mod, PROPERTIES('sharding-count'=2))",
            configured,
        )
        execute_distsql("CREATE SHARDING BINDING TABLE RULES (t_user, t_order)", configured)
        assert configured.rule.are_binding(["t_user", "t_order"])

    def test_broadcast_rule(self, configured):
        execute_distsql("CREATE BROADCAST TABLE RULE t_dict", configured)
        assert configured.rule.is_broadcast("t_dict")

    def test_rwsplit_rule_adds_feature(self, configured):
        execute_distsql("REGISTER RESOURCE replica0", configured)
        execute_distsql(
            "CREATE READWRITE_SPLITTING RULE g0 (PRIMARY=ds0, REPLICAS(replica0))", configured
        )
        assert configured.rwsplit_feature is not None
        assert configured.rwsplit_feature.groups["ds0"].replicas == ["replica0"]

    def test_rules_persisted_in_governor(self, configured):
        stored = configured.config_center.load_rule("sharding", "t_user")
        assert stored["sharding_column"] == "uid"


class TestRQLExecution:
    def test_show_resources(self, configured):
        result = execute_distsql("SHOW RESOURCES", configured)
        assert result.columns == ["name", "dialect", "database"]
        assert [r[0] for r in result.rows] == ["ds0", "ds1"]

    def test_show_sharding_rules(self, configured):
        result = execute_distsql("SHOW SHARDING TABLE RULES", configured)
        assert result.rows[0][0] == "t_user"
        assert "ds0.t_user_0" in result.rows[0][1]

    def test_show_algorithms_lists_ten_presets(self, configured):
        result = execute_distsql("SHOW SHARDING ALGORITHMS", configured)
        assert len(result.rows) >= 10

    def test_show_binding_and_broadcast(self, configured):
        execute_distsql("CREATE BROADCAST TABLE RULE t_dict", configured)
        result = execute_distsql("SHOW BROADCAST TABLE RULES", configured)
        assert result.rows == [("t_dict",)]


class TestRALExecution:
    def test_set_transaction_type_paper_example(self, configured):
        """'SET VARIABLE transaction_type = <type>' from Section V-A."""
        for type_name in ("LOCAL", "XA", "BASE"):
            execute_distsql(f"SET VARIABLE transaction_type = {type_name}", configured)
            assert configured.variables["transaction_type"] == type_name
            assert configured.transaction_manager.transaction_type.value == type_name

    def test_set_max_connections(self, configured):
        execute_distsql("SET VARIABLE max_connections_per_query = 5", configured)
        assert configured.engine.executor.max_connections_per_query == 5

    def test_unknown_variable_rejected(self, configured):
        with pytest.raises(DistSQLError):
            execute_distsql("SET VARIABLE nope = 1", configured)

    def test_show_variable(self, configured):
        execute_distsql("SET VARIABLE transaction_type = XA", configured)
        result = execute_distsql("SHOW VARIABLE transaction_type", configured)
        assert result.rows == [("transaction_type", "XA")]

    def test_preview_shows_routed_sql(self, configured):
        configured.engine.execute("CREATE TABLE t_user (uid INT PRIMARY KEY, v INT)")
        result = execute_distsql("PREVIEW SELECT * FROM t_user WHERE uid = 0", configured)
        assert len(result.rows) == 1
        ds, sql = result.rows[0]
        assert sql == "SELECT * FROM t_user_0 WHERE uid = 0"


class TestMigrateTable:
    """RAL scaling: MIGRATE TABLE reshards online through a ScalingJob."""

    @pytest.fixture
    def loaded(self, configured):
        configured.engine.execute("CREATE TABLE t_user (uid INT PRIMARY KEY, v INT)")
        for i in range(40):
            configured.engine.execute(f"INSERT INTO t_user (uid, v) VALUES ({i}, {i})")
        return configured

    def test_parse(self):
        from repro.distsql.parser import MigrateTable

        stmt = parse_distsql(
            "MIGRATE TABLE t_user (RESOURCES(ds2, ds3), SHARDING_COLUMN=uid, "
            "TYPE=hash_mod, PROPERTIES('sharding-count'=8))"
        )
        assert isinstance(stmt, MigrateTable)
        assert stmt.resources == ["ds2", "ds3"]
        assert stmt.properties == {"sharding-count": 8}

    def test_detected_as_distsql(self):
        assert is_distsql("MIGRATE TABLE t (RESOURCES(a), SHARDING_COLUMN=k)")

    def test_migrate_to_more_shards(self, loaded):
        execute_distsql("REGISTER RESOURCE ds2, ds3", loaded)
        result = execute_distsql(
            "MIGRATE TABLE t_user (RESOURCES(ds0, ds1, ds2, ds3), "
            "SHARDING_COLUMN=uid, TYPE=hash_mod, PROPERTIES('sharding-count'=8))",
            loaded,
        )
        assert result.rows[0][1] == 40  # rows migrated
        assert result.rows[0][4] is True  # consistent
        # logical view intact on the new layout
        assert loaded.engine.execute("SELECT COUNT(*) FROM t_user").fetchall() == [(40,)]
        assert loaded.engine.execute("SELECT v FROM t_user WHERE uid = 17").fetchall() == [(17,)]
        # new layout has 8 nodes over 4 sources
        assert len(loaded.rule.table_rule("t_user").data_nodes) == 8
        # old physical tables are gone
        assert not loaded.data_sources["ds0"].database.has_table("t_user_0")

    def test_migrate_unknown_table_rejected(self, configured):
        with pytest.raises(DistSQLError):
            execute_distsql(
                "MIGRATE TABLE ghost (RESOURCES(ds0), SHARDING_COLUMN=k, "
                "PROPERTIES('sharding-count'=1))",
                configured,
            )

    def test_migrate_unknown_resource_rejected(self, loaded):
        with pytest.raises(DistSQLError):
            execute_distsql(
                "MIGRATE TABLE t_user (RESOURCES(nowhere), SHARDING_COLUMN=uid, "
                "PROPERTIES('sharding-count'=2))",
                loaded,
            )


# Every SHOW form on a freshly configured runtime: (statement, columns,
# message, rows). The runtime has run no SQL, so every row is deterministic.
_EXECUTOR_COUNTERS = [
    "breaker_rejections", "connection_strictly", "degraded_statements",
    "failed_units", "giveups", "memory_strictly", "pipeline_batches",
    "pipelined_statements", "queued_tasks", "reroutes", "retries",
    "skipped_units", "statements", "steals", "timeouts",
]
_GOLDEN = [
    ("SHOW RESOURCES", ["name", "dialect", "database"], "OK",
     [("ds0", "MySQL", "ds0"), ("ds1", "MySQL", "ds1")]),
    ("SHOW SHARDING TABLE RULES",
     ["table", "actual_data_nodes", "sharding_column", "kind"], "OK",
     [("t_user", "ds0.t_user_0, ds1.t_user_1", "uid", "auto")]),
    ("SHOW SHARDING BINDING TABLE RULES", ["binding_tables"], "OK", []),
    ("SHOW BROADCAST TABLE RULES", ["broadcast_table"], "OK", []),
    ("SHOW SHARDING ALGORITHMS", ["algorithm"], "OK",
     [(a,) for a in ("AUTO_INTERVAL", "BOUNDARY_RANGE", "CLASS_BASED",
                     "COMPLEX_INLINE", "HASH_MOD", "HINT_INLINE", "INLINE",
                     "INTERVAL", "MOD", "VOLUME_RANGE")]),
    ("SHOW CIRCUIT BREAKERS", ["data_source", "state", "failures", "open_seconds"],
     "no resilience policy enabled", []),
    ("SHOW EXECUTION METRICS", ["metric", "value"],
     "alias of SHOW METRICS LIKE 'executor_%'",
     [(name, 0) for name in _EXECUTOR_COUNTERS]),
    ("SHOW FAILOVER EVENTS", ["group", "old_primary", "new_primary", "failover_ms"],
     "no health detector attached", []),
    ("SHOW METRICS LIKE 'executor_retries%'",
     ["metric", "labels", "kind", "value", "avg", "p50", "p95", "p99"], "OK",
     [("executor_retries_total", "-", "counter", 0.0, "", "", "", "")]),
    ("SHOW TRACES", ["trace_id", "sql", "wall_ms", "simulated_ms", "spans", "error"],
     "tracing is disabled; SET VARIABLE tracing = on, or use TRACE <sql>", []),
    ("SHOW SLOW QUERIES",
     ["trace_id", "kind", "sql", "wall_ms", "simulated_ms", "route_type", "spans", "error"],
     "no slow queries recorded (threshold 100ms; traced statements only)", []),
    ("SHOW SLOW QUERIES GROUP BY DIGEST",
     ["digest", "entries", "slow", "wall_avg_ms", "wall_max_ms", "route_types", "last_sql"],
     "OK", []),
    ("SHOW PLAN CACHE", ["sql", "hits", "templates", "state"],
     "0/512 plans, hit rate 0.0% (hits=0, misses=0, bypasses=0, evictions=0, "
     "invalidations=3)", []),
    ("SHOW METADATA", ["field", "value"], "metadata context v3 (sharding rule t_user)",
     [("version", 3), ("plan_epoch", 3), ("reason", "sharding rule t_user"),
      ("data_sources", "ds0, ds1"), ("sharded_tables", "t_user"),
      ("broadcast_tables", "-"), ("features", "-"), ("plan_cache_safe", True),
      ("rule_frozen", True)]),
    ("SHOW STATEMENT DIGESTS",
     ["digest", "calls", "errors", "rows", "avg_ms", "p95_ms", "max_ms", "fanout_avg",
      "plan_hit_rate", "storage_plan_hit_rate", "exemplar_ms", "sql"], "OK", []),
    ("SHOW SHARD HEAT",
     ["table", "data_source", "actual_table", "reads", "writes", "rows", "wall_ms",
      "simulated_ms", "share", "imbalance"], "OK", []),
    ("SHOW HOT KEYS", ["table", "column", "key", "estimated_count", "max_error", "share"],
     "OK", []),
    ("SHOW HOT KEYS FOR t_user",
     ["table", "column", "key", "estimated_count", "max_error", "share"], "OK", []),
    ("SHOW SLO",
     ["route_type", "threshold_ms", "target", "statements", "breaches", "compliance",
      "budget_burn", "state"], "OK", []),
    ("SHOW SLO ALERTS",
     ["seq", "route_type", "burn_rate", "statements", "breaches", "threshold_ms"],
     "OK", []),
    ("SHOW READ RESOURCES", ["group", "primary", "replicas", "load_balancer", "replicated"],
     "no read-write splitting rule configured", []),
    ("SHOW REPLICATION LAG",
     ["group", "replica", "applied_lsn", "last_lsn", "lag_records", "staleness_s",
      "configured_lag_s"], "no replica groups attached", []),
    ("SHOW RESULT CACHE", ["stat", "value"],
     "0/32768 entries, hit rate 0.0% (hits=0, misses=0, invalidations=0); "
     "result cache is DISABLED (SET VARIABLE result_cache = on)",
     [("capacity", 32768), ("causal_bypasses", 0), ("clears", 3), ("enabled", False),
      ("entries", 0), ("evictions", 0), ("hit_rate", 0.0), ("hits", 0),
      ("invalidations", 0), ("max_rows", 128), ("misses", 0), ("stores", 0), ("ttl_s", 30.0)]),
    ("SHOW SESSIONS",
     ["id", "kind", "client", "age_s", "statements", "in_transaction", "pinned_primary",
      "causal_groups", "last_sql"], "0 session(s)", []),
    ("SHOW VARIABLE transaction_type", ["variable", "value"], "OK",
     [("transaction_type", "LOCAL")]),
]


class TestShowGolden:
    """Exact output of every SHOW form; a change to one is a deliberate one."""

    @pytest.mark.parametrize(
        "sql,columns,message,rows", _GOLDEN, ids=[g[0] for g in _GOLDEN])
    def test_form(self, configured, sql, columns, message, rows):
        result = execute_distsql(sql, configured)
        assert (result.columns, result.message, result.rows) == (columns, message, rows)

    def test_did_you_mean_shard_heat(self, configured):
        with pytest.raises(DistSQLError, match=r"^did you mean SHOW SHARD HEAT\?$"):
            execute_distsql("SHOW SHARDING HEAT", configured)

    def test_unknown_subject(self, configured):
        with pytest.raises(DistSQLError, match=r"^unsupported SHOW statement: 'SHOW NONSENSE'$"):
            execute_distsql("SHOW NONSENSE", configured)


class TestShowVariableAndTraceFixes:
    def test_show_unknown_variable_rejected_like_set(self, configured):
        with pytest.raises(DistSQLError) as set_error:
            execute_distsql("SET VARIABLE nonsense = 1", configured)
        with pytest.raises(DistSQLError) as show_error:
            execute_distsql("SHOW VARIABLE nonsense", configured)
        assert str(show_error.value) == str(set_error.value)

    @pytest.mark.parametrize("separator", ["\n", "\t"])
    def test_trace_with_any_whitespace_after_verb(self, configured, separator):
        conn = ShardingDataSource(configured).get_connection()
        conn.execute("CREATE TABLE t_user (uid INT PRIMARY KEY, v INT)")
        result = conn.execute(f"TRACE{separator}SELECT * FROM t_user WHERE uid = 1")
        assert result.message.startswith("trace #")
        assert "0 row(s), route=" in result.message


class TestShowTableRoundTrip:
    """Detection and parsing both come from SHOW_FORMS: every phrase, in any
    case and with any whitespace between its words, is DistSQL and parses
    to its own subject."""

    @pytest.mark.parametrize("separator", ["\n", "\t"])
    @pytest.mark.parametrize("subject", sorted(SHOW_FORMS))
    def test_phrase_detects_and_parses_to_its_subject(self, subject, separator):
        form = SHOW_FORMS[subject]
        words = ["show", *form.phrase.lower().split()]
        if form.argument == "NAME":
            words.append("transaction_type")
        sql = separator.join(words)
        assert is_distsql(sql)
        assert parse_distsql(sql).subject == subject

    @pytest.mark.parametrize(
        "sql", ["SHOW TABLES", "show\ntables", "SELECT * FROM t", "CREATE TABLE t (a INT)"])
    def test_plain_sql_stays_plain(self, sql):
        assert not is_distsql(sql)
