"""Versioned metadata contexts: copy-on-write snapshots + single writer.

Pins down the tentpole contracts: snapshots are immutable (frozen rule,
read-only source/variable views), mutations are copy-on-write (untouched
fields shared by identity), ``version`` bumps on every mutation while
``plan_epoch`` bumps only on plan-affecting ones, the engine's caches key
by epoch, and every statement observes exactly one snapshot end-to-end
(the ``metadata_version`` trace attribute).
"""

import pytest

from repro.adaptors import ShardingDataSource, ShardingRuntime
from repro.distsql import execute_distsql
from repro.engine import PlanCache, SQLEngine
from repro.exceptions import DistSQLError, ShardingConfigError
from repro.adaptors.runtime import VARIABLES
from repro.metadata import ContextManager
from repro.sharding import ShardingRule
from repro.storage import DataSource


@pytest.fixture
def runtime():
    rt = ShardingRuntime()
    with ShardingDataSource(rt).get_connection() as conn:
        conn.execute("REGISTER RESOURCE ds0, ds1")
        conn.execute(
            "CREATE SHARDING TABLE RULE t_user (RESOURCES(ds0, ds1), "
            "SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES('sharding-count'=2))"
        )
        conn.execute("CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(64))")
    yield rt
    rt.close()


# ---------------------------------------------------------------------------
# Snapshot immutability
# ---------------------------------------------------------------------------


class TestSnapshotImmutability:
    def test_snapshot_views_are_read_only(self, runtime):
        snap = runtime.metadata.current()
        with pytest.raises(TypeError):
            snap.data_sources["rogue"] = DataSource("rogue")
        with pytest.raises(TypeError):
            snap.variables["tracing"] = "ON"

    def test_snapshot_rule_is_frozen(self, runtime):
        snap = runtime.metadata.current()
        assert snap.rule.frozen
        with pytest.raises(ShardingConfigError, match="immutable metadata snapshot"):
            snap.rule.add_broadcast_table("t_dict")
        with pytest.raises(ShardingConfigError, match="immutable metadata snapshot"):
            snap.rule.drop_table_rule("t_user")
        with pytest.raises(ShardingConfigError, match="immutable metadata snapshot"):
            snap.rule.default_data_source = "ds1"

    def test_bootstrap_rule_stays_writable(self):
        # Direct-embedding callers build a rule up front and keep mutating
        # it; only manager-produced copies freeze.
        rule = ShardingRule()
        engine = SQLEngine({"ds0": DataSource("ds0")}, rule)
        assert engine.rule is rule
        assert not engine.rule.frozen
        engine.rule.add_broadcast_table("t_dict")
        engine.close()

    def test_old_snapshot_untouched_by_mutation(self, runtime):
        before = runtime.metadata.current()
        with ShardingDataSource(runtime).get_connection() as conn:
            conn.execute("CREATE BROADCAST TABLE RULE t_dict")
        after = runtime.metadata.current()
        assert not before.rule.is_broadcast("t_dict")
        assert after.rule.is_broadcast("t_dict")
        assert after.version == before.version + 1


# ---------------------------------------------------------------------------
# Copy-on-write
# ---------------------------------------------------------------------------


class TestCopyOnWrite:
    def test_variable_mutation_shares_rule_identity(self, runtime):
        before = runtime.metadata.current()
        runtime.set_variable("tracing", "on")
        after = runtime.metadata.current()
        assert after.rule is before.rule
        assert after.data_sources == before.data_sources
        assert after.variables["tracing"] == "ON"

    def test_rule_mutation_copies_rule(self, runtime):
        before = runtime.metadata.current()
        runtime.metadata.set_default_data_source("ds1")
        after = runtime.metadata.current()
        assert after.rule is not before.rule
        assert after.rule.default_data_source == "ds1"
        assert before.rule.default_data_source == "ds0"

    def test_failed_mutation_leaves_snapshot_untouched(self, runtime):
        before = runtime.metadata.current()
        with pytest.raises(ShardingConfigError):
            runtime.drop_rule("sharding", "t_ghost")
        assert runtime.metadata.current() is before


# ---------------------------------------------------------------------------
# Version / plan-epoch semantics
# ---------------------------------------------------------------------------


class TestVersioning:
    def test_every_mutation_bumps_version(self, runtime):
        v0 = runtime.metadata.version
        runtime.set_variable("tracing", "on")
        runtime.register_resource("ds2")
        runtime.apply_rule("broadcast", "t_dict", {"table": "t_dict"})
        assert runtime.metadata.version == v0 + 3

    def test_variables_never_bump_plan_epoch(self, runtime):
        snap = runtime.metadata.current()
        runtime.set_variable("tracing", "on")
        runtime.set_variable("slow_query_threshold_ms", 250)
        after = runtime.metadata.current()
        assert after.version == snap.version + 2
        assert after.plan_epoch == snap.plan_epoch

    def test_rule_and_resource_changes_bump_plan_epoch(self, runtime):
        epoch = runtime.metadata.current().plan_epoch
        runtime.register_resource("ds9")
        assert runtime.metadata.current().plan_epoch == epoch + 1
        runtime.unregister_resource("ds9")
        assert runtime.metadata.current().plan_epoch == epoch + 2

    def test_set_variable_keeps_plan_cache_warm(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.execute("SELECT * FROM t_user WHERE uid = ?", (1,))
        conn.execute("SELECT * FROM t_user WHERE uid = ?", (2,))
        assert runtime.engine.plan_cache.hits >= 1
        hits = runtime.engine.plan_cache.hits
        runtime.set_variable("slow_query_threshold_ms", 123)
        conn.execute("SELECT * FROM t_user WHERE uid = ?", (3,))
        assert runtime.engine.plan_cache.hits == hits + 1
        conn.close()

    def test_stale_epoch_store_is_dropped(self, runtime):
        # A statement pinned to a superseded snapshot must not poison the
        # cache with a plan compiled against the old rule.
        cache = runtime.engine.plan_cache
        snap = runtime.metadata.current()
        runtime.metadata.set_default_data_source("ds1")  # epoch += 1
        from repro.engine import compile_plan
        from repro.sql import parse

        sql = "SELECT * FROM t_user WHERE uid = ?"
        stale = compile_plan(sql, parse(sql), snap.rule)
        cache.store(stale, snap.plan_epoch)
        assert cache.peek(sql) is None

    def test_replaced_cache_adopts_current_epoch(self, runtime):
        runtime.engine.plan_cache = PlanCache()
        runtime.engine.plan_cache.epoch = runtime.metadata.current().plan_epoch
        conn = ShardingDataSource(runtime).get_connection()
        conn.execute("SELECT * FROM t_user WHERE uid = ?", (1,))
        conn.execute("SELECT * FROM t_user WHERE uid = ?", (2,))
        assert runtime.engine.plan_cache.hits == 1
        conn.close()


# ---------------------------------------------------------------------------
# ContextManager mechanics
# ---------------------------------------------------------------------------


class TestContextManager:
    def test_subscribe_and_unsubscribe(self):
        manager = ContextManager({"ds0": DataSource("ds0")}, ShardingRule())
        swaps = []
        unsubscribe = manager.subscribe(lambda old, new: swaps.append((old.version, new.version)))
        manager.touch("ping")
        assert swaps == [(0, 1)]
        unsubscribe()
        manager.touch("pong")
        assert swaps == [(0, 1)]

    def test_remove_data_source_returns_source_and_reassigns_default(self):
        ds0, ds1 = DataSource("ds0"), DataSource("ds1")
        manager = ContextManager({"ds0": ds0, "ds1": ds1}, ShardingRule(default_data_source="ds0"))
        removed = manager.remove_data_source("ds0")
        assert removed is ds0
        snap = manager.current()
        assert snap.rule.default_data_source == "ds1"
        assert list(snap.data_sources) == ["ds1"]
        assert list(manager.live_sources) == ["ds1"]

    def test_live_sources_shared_by_reference(self):
        sources = {"ds0": DataSource("ds0")}
        manager = ContextManager(sources, ShardingRule())
        manager.add_data_source("ds1", DataSource("ds1"))
        assert set(sources) == {"ds0", "ds1"}

    def test_in_mutation_flag_is_thread_local(self):
        manager = ContextManager({}, ShardingRule())
        seen = []
        manager.subscribe(lambda old, new: seen.append(manager.in_mutation))
        assert not manager.in_mutation
        manager.touch("check")
        assert seen == [True]
        assert not manager.in_mutation


# ---------------------------------------------------------------------------
# Pipeline pinning (trace carries one version per statement)
# ---------------------------------------------------------------------------


class TestStatementPinning:
    def test_trace_spans_carry_single_metadata_version(self, runtime):
        result = runtime.engine.execute(
            "SELECT * FROM t_user WHERE uid = ?", (1,), force_trace=True
        )
        result.fetchall()
        trace = result.trace
        versions = {
            span.attributes["metadata_version"]
            for span in trace.spans
            if "metadata_version" in span.attributes
        }
        assert versions == {runtime.metadata.version}
        assert trace.root.attributes["metadata_version"] == runtime.metadata.version

    def test_plan_hit_path_carries_version_too(self, runtime):
        runtime.engine.execute("SELECT * FROM t_user WHERE uid = ?", (1,)).fetchall()
        result = runtime.engine.execute(
            "SELECT * FROM t_user WHERE uid = ?", (2,), force_trace=True
        )
        result.fetchall()
        names = {span.name for span in result.trace.spans}
        assert "plan_cache_hit" in names
        versions = {
            span.attributes["metadata_version"]
            for span in result.trace.spans
            if "metadata_version" in span.attributes
        }
        assert len(versions) == 1


# ---------------------------------------------------------------------------
# Satellite fixes
# ---------------------------------------------------------------------------


class TestUnregisterResource:
    def test_unregister_closes_pool_and_removes_instruments(self, runtime):
        source = runtime.register_resource("tmp")
        samples = runtime.observability.registry.get("pool_in_use").samples()
        assert any(labels == {"source": "tmp"} for labels, _ in samples)
        exported = runtime.observability.registry.render_prometheus()
        assert 'source="tmp"' in exported

        runtime.unregister_resource("tmp")
        assert not source.pool._idle  # drained by close()
        assert source.pool.wait_observer is None  # detached from metrics
        samples = runtime.observability.registry.get("pool_in_use").samples()
        assert not any(labels == {"source": "tmp"} for labels, _ in samples)
        exported = runtime.observability.registry.render_prometheus()
        assert 'source="tmp"' not in exported

    def test_unregister_unknown_source_is_noop(self, runtime):
        before = runtime.metadata.version
        runtime.unregister_resource("never_registered")
        # the mutation still versions (it's a write attempt), but nothing breaks
        assert runtime.metadata.version == before + 1

    def test_collector_can_reregister_after_unregister(self, runtime):
        source = runtime.register_resource("tmp")
        runtime.unregister_resource("tmp")
        runtime.register_resource("tmp")
        exported = runtime.observability.registry.render_prometheus()
        assert 'source="tmp"' in exported
        runtime.unregister_resource("tmp")


class TestSetVariableValidation:
    def test_unknown_variable_raises(self, runtime):
        with pytest.raises(DistSQLError, match="unknown variable"):
            runtime.set_variable("not_a_variable", 1)

    def test_unknown_variable_raises_through_sql_adaptor(self, runtime):
        with ShardingDataSource(runtime).get_connection() as conn:
            with pytest.raises(DistSQLError, match="unknown variable"):
                conn.execute("SET VARIABLE definitely_bogus = 1")

    def test_known_variables_round_trip(self, runtime):
        runtime.set_variable("tracing", "on")
        assert runtime.variables["tracing"] == "ON"
        assert runtime.observability.tracer.enabled
        runtime.set_variable("plan_cache", "off")
        assert not runtime.engine.plan_cache.enabled


class TestGovernorPropReplay:
    def test_restart_replays_all_props(self, runtime):
        runtime.set_variable("tracing", "on")
        runtime.set_variable("slow_query_threshold_ms", 42.0)
        runtime.set_variable("plan_cache", "off")
        runtime.set_variable("max_connections_per_query", 3)

        rejoined = ShardingRuntime(config_center=runtime.config_center)
        rejoined.load_rules_from_governor()
        assert rejoined.variables["tracing"] == "ON"
        assert rejoined.observability.tracer.enabled
        assert rejoined.variables["slow_query_threshold_ms"] == 42.0
        assert rejoined.observability.slow_log.threshold == pytest.approx(0.042)
        assert rejoined.variables["plan_cache"] == "OFF"
        assert not rejoined.engine.plan_cache.enabled
        assert rejoined.engine.executor.max_connections_per_query == 3
        rejoined.close()

    def test_replay_does_not_republish(self, runtime):
        runtime.set_variable("tracing", "on")
        version_node = runtime.config_center.metadata_version()
        rejoined = ShardingRuntime(config_center=runtime.config_center)
        rejoined.load_rules_from_governor()
        # replay applies locally but must not churn the shared prop nodes
        assert runtime.config_center.get_prop("tracing") == "ON"
        rejoined.close()
        assert VARIABLES  # sanity: the shared vocabulary is non-empty
        assert version_node is not None


class TestShowMetadata:
    def test_show_metadata(self, runtime):
        result = execute_distsql("SHOW METADATA", runtime)
        fields = dict(result.rows)
        assert fields["version"] == runtime.metadata.version
        assert fields["plan_epoch"] == runtime.metadata.current().plan_epoch
        assert "ds0" in fields["data_sources"]
        assert "t_user" in fields["sharded_tables"]
        assert fields["rule_frozen"] is True
        assert f"v{runtime.metadata.version}" in result.message
