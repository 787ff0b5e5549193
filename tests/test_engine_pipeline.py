"""Integration tests for the full SQL engine pipeline (SQLEngine)."""

import pytest

from repro.engine import Feature, SQLEngine
from repro.exceptions import CircuitBreakerOpenError, RewriteError, TableNotFoundError
from repro.features import CircuitBreakerFeature, CircuitState
from repro.session import current_session

ENTRY_POINTS = ("execute", "execute_pipeline")


def run(engine, entry, sql, params=()):
    """One statement through either engine entry point."""
    if entry == "execute":
        return engine.execute(sql, params)
    (result,) = engine.execute_pipeline([(sql, params)])
    return result


class Spy(Feature):
    """Records which hooks ran (and the session's pinned snapshot)."""

    name = "spy"
    plan_cache_safe = True

    def __init__(self):
        self.events = []
        self.snapshots = []

    def on_context(self, context):
        self.events.append("context")
        self.snapshots.append(current_session().snapshot)

    def on_result(self, result, context):
        self.events.append("result")
        self.snapshots.append(current_session().snapshot)

    def on_error(self, error, context):
        self.events.append(f"error:{type(error).__name__}")


class TestQueries:
    def test_point_select(self, seeded_engine):
        result = seeded_engine.execute("SELECT name FROM t_user WHERE uid = 3")
        assert result.fetchall() == [("carol",)]
        assert result.unit_count == 1

    def test_cross_shard_order_by(self, seeded_engine):
        result = seeded_engine.execute("SELECT uid, age FROM t_user ORDER BY age")
        assert result.fetchall() == [(2, 25), (4, 28), (1, 30), (3, 35)]
        assert result.merger_kind == "order-by-stream"

    def test_cross_shard_aggregation(self, seeded_engine):
        result = seeded_engine.execute("SELECT COUNT(*), SUM(age), AVG(age) FROM t_user")
        assert result.fetchall() == [(4, 118, 29.5)]

    def test_cross_shard_group_by(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT uid, COUNT(*) AS c, SUM(amount) FROM t_order GROUP BY uid"
        )
        assert sorted(result.fetchall()) == [(1, 2, 7.0), (2, 1, 7.5), (3, 1, 3.0)]

    def test_derived_columns_hidden_from_output(self, seeded_engine):
        result = seeded_engine.execute("SELECT name FROM t_user ORDER BY age DESC")
        assert result.columns == ["name"]
        assert result.fetchall() == [("carol",), ("alice",), ("dave",), ("bob",)]

    def test_cross_shard_pagination(self, seeded_engine):
        result = seeded_engine.execute("SELECT uid FROM t_user ORDER BY uid LIMIT 2 OFFSET 1")
        assert result.fetchall() == [(2,), (3,)]

    def test_binding_join(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid "
            "ORDER BY o.amount DESC"
        )
        assert result.fetchall() == [("bob", 7.5), ("alice", 5.0), ("carol", 3.0), ("alice", 2.0)]
        assert result.route_type == "standard"

    def test_distinct_across_shards(self, seeded_engine):
        seeded_engine.execute("INSERT INTO t_user (uid, name, age) VALUES (5, 'eve', 25)")
        result = seeded_engine.execute("SELECT DISTINCT age FROM t_user ORDER BY age")
        assert result.fetchall() == [(25,), (28,), (30,), (35,)]

    def test_avg_correct_with_uneven_shards(self, seeded_engine):
        # shard ds0 has ages {25, 28}; ds1 {30, 35}: global avg = 29.5
        result = seeded_engine.execute("SELECT AVG(age) FROM t_user")
        assert result.fetchall() == [(29.5,)]

    def test_empty_result(self, seeded_engine):
        result = seeded_engine.execute("SELECT * FROM t_user WHERE uid = 404")
        assert result.fetchall() == []


class TestWrites:
    def test_update_routes_narrowly(self, seeded_engine):
        result = seeded_engine.execute("UPDATE t_user SET age = 26 WHERE uid = 2")
        assert result.update_count == 1
        assert result.unit_count == 1

    def test_cross_shard_update(self, seeded_engine):
        result = seeded_engine.execute("UPDATE t_user SET age = age + 1")
        assert result.update_count == 4
        assert result.unit_count == 2

    def test_delete(self, seeded_engine):
        result = seeded_engine.execute("DELETE FROM t_order WHERE uid = 1")
        assert result.update_count == 2

    def test_broadcast_dml_on_dict_table(self, seeded_engine, fleet):
        result = seeded_engine.execute("INSERT INTO t_dict (k, v) VALUES ('x', 'y')")
        for ds in fleet.values():
            assert ds.execute("SELECT COUNT(*) FROM t_dict") == [(1,)]

    def test_ddl_fans_out(self, seeded_engine, fleet):
        seeded_engine.execute("TRUNCATE TABLE t_user")
        assert fleet["ds0"].execute("SELECT COUNT(*) FROM t_user_h0") == [(0,)]
        assert fleet["ds1"].execute("SELECT COUNT(*) FROM t_user_h1") == [(0,)]


class TestFeatureHooks:
    def test_feature_sees_all_stages(self, seeded_engine):
        events = []

        class Spy(Feature):
            name = "spy"

            def on_context(self, context):
                events.append("context")

            def on_route(self, route_result, context):
                events.append(f"route:{len(route_result.units)}")

            def on_units(self, units, context):
                events.append(f"units:{len(units)}")

            def on_result(self, result, context):
                events.append("result")

        seeded_engine.add_feature(Spy())
        seeded_engine.execute("SELECT * FROM t_user WHERE uid = 1")
        assert events == ["context", "route:1", "units:1", "result"]

    def test_remove_feature(self, seeded_engine):
        class Marker(Feature):
            name = "marker"

        seeded_engine.add_feature(Marker())
        seeded_engine.remove_feature("marker")
        assert all(f.name != "marker" for f in seeded_engine.features)


class TestStatementLifecycle:
    """execute and execute_pipeline share one prepare / finish / fail
    lifecycle (DESIGN.md "Statement lifecycle"): every statement whose
    ``on_context`` loop started ends in exactly one ``on_result`` or one
    ``on_error``, and nothing it held outlives it."""

    def test_failed_half_open_probe_reopens_the_breaker(self, seeded_engine):
        breaker = CircuitBreakerFeature(failure_threshold=5, reset_timeout=0.0)
        seeded_engine.add_feature(breaker)
        breaker.trip()
        # the cooldown (0 s) is over: this statement is admitted as the
        # HALF_OPEN probe and dies in rewrite, before the execute stage
        with pytest.raises(RewriteError):
            seeded_engine.execute("SELECT uid FROM t_user ORDER BY uid LIMIT ?")
        assert breaker.state is CircuitState.OPEN
        # ...so the next healthy statement becomes the probe and closes it
        result = seeded_engine.execute("SELECT name FROM t_user WHERE uid = 3")
        assert result.fetchall() == [("carol",)]
        assert breaker.state is CircuitState.CLOSED

    def test_rejecting_feature_is_not_told_of_its_own_rejection(self, seeded_engine):
        spy = Spy()
        breaker = CircuitBreakerFeature(failure_threshold=5, reset_timeout=60.0)
        seeded_engine.add_feature(spy)
        seeded_engine.add_feature(breaker)
        breaker.trip()
        with pytest.raises(CircuitBreakerOpenError):
            seeded_engine.execute("SELECT name FROM t_user WHERE uid = 3")
        # the spy admitted the statement and is owed its error exit; the
        # breaker rejected it and must not count that as a failure
        assert spy.events == ["context", "error:CircuitBreakerOpenError"]
        assert breaker.breaker.failures == 0

    def test_no_connection_outlives_a_failed_statement(self, seeded_engine, fleet):
        class Boom(Feature):
            name = "boom"
            plan_cache_safe = True

            def on_result(self, result, context):
                raise RuntimeError("boom")

        seeded_engine.add_feature(Boom())
        point = ("SELECT name FROM t_user WHERE uid = ?", (3,))
        fanout = ("SELECT uid FROM t_user ORDER BY uid", ())
        for attempt in (
            lambda: seeded_engine.execute(*point),
            lambda: seeded_engine.execute(*fanout),
            lambda: seeded_engine.execute_pipeline([fanout, point, point]),
            lambda: seeded_engine.execute_pipeline([point, point, fanout]),
        ):
            with pytest.raises(RuntimeError, match="boom"):
                attempt()
            assert [source.pool.in_use for source in fleet.values()] == [0, 0]

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_both_entry_points_are_observed_alike(self, seeded_engine, entry):
        from repro.observability import Observability

        obs = Observability()
        seeded_engine.attach_observability(obs)
        spy = Spy()
        seeded_engine.add_feature(spy)
        pinned = seeded_engine.metadata.current()
        session = current_session()
        session.snapshot = outer = object()
        try:
            rows = run(seeded_engine, entry, "SELECT name FROM t_user WHERE uid = 3").fetchall()
            assert rows == [("carol",)]
            assert spy.events == ["context", "result"]
            assert all(snapshot is pinned for snapshot in spy.snapshots)
            with pytest.raises(TableNotFoundError):
                run(seeded_engine, entry, "SELECT * FROM no_such_table_anywhere")
            assert session.snapshot is outer
        finally:
            session.snapshot = None
        assert spy.events[2:] == ["context", "error:TableNotFoundError"]
        assert obs.registry.get("engine_statement_errors_total").value() == 1
        digests = obs.workload.digest_report()
        assert sum(digest["errors"] for digest in digests) == 1

    def test_plan_hit_needing_federation_at_bind_time(self, fleet, nonbinding_rule):
        """Whether two non-binding tables are co-located depends on the
        bound keys: the hit that is not falls back to federation inside
        the same prepare, so hooks still see the statement once."""
        engine = SQLEngine(fleet, nonbinding_rule, max_connections_per_query=2)
        engine.execute(
            "INSERT INTO t_user (uid, name, age) VALUES (1, 'alice', 30), (3, 'carol', 35)"
        )
        engine.execute(
            "INSERT INTO t_order (oid, uid, amount) VALUES (10, 1, 5.0), (11, 2, 7.5), (13, 1, 2.0)"
        )
        spy = Spy()
        engine.add_feature(spy)
        sql = (
            "SELECT u.name, o.oid FROM t_user u JOIN t_order o ON o.amount < u.age "
            "WHERE u.uid = ? AND o.uid = ? ORDER BY o.oid"
        )
        colocated = engine.execute(sql, (1, 1))
        assert (colocated.route_type, colocated.fetchall()) == (
            "cartesian", [("alice", 10), ("alice", 13)])
        hits = engine.plan_cache.hits
        spy.events.clear()
        apart = engine.execute(sql, (3, 2))
        assert engine.plan_cache.hits == hits + 1
        assert (apart.route_type, apart.fetchall()) == ("federation", [("carol", 11)])
        assert spy.events == ["context", "result"]
        assert not engine.plan_cache.peek(sql).cacheable
        engine.close()


class TestDialects:
    def test_rewritten_sql_respects_target_dialect(self, fleet, paper_rule):
        from repro.sql.dialects import MYSQL

        fleet["ds0"].dialect = MYSQL
        fleet["ds1"].dialect = MYSQL
        engine = SQLEngine(fleet, paper_rule, max_connections_per_query=2)
        result = engine.execute("SELECT * FROM t_user ORDER BY uid LIMIT 10 OFFSET 2")
        # MySQL limit style "LIMIT offset, count" would appear only if the
        # offset survived; pagination revision folds it, so LIMIT 12.
        assert all("LIMIT 12" in sql for sql in result.sqls)
        engine.close()


class TestFederation:
    """Cross-source joins with no co-located shards fall back to the
    federation executor (upstream ShardingSphere 5.x behaviour)."""

    @pytest.fixture
    def split_fleet(self):
        from repro.sharding import make_vertical_sharding
        from repro.storage import DataSource

        sources = {"ds_a": DataSource("ds_a"), "ds_b": DataSource("ds_b")}
        sources["ds_a"].execute("CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
        sources["ds_b"].execute("CREATE TABLE t_order (oid INT PRIMARY KEY, uid INT, amount FLOAT)")
        sources["ds_a"].execute(
            "INSERT INTO t_user (uid, name) VALUES (1, 'ann'), (2, 'bo'), (3, 'che')"
        )
        sources["ds_b"].execute(
            "INSERT INTO t_order (oid, uid, amount) VALUES "
            "(10, 1, 4.0), (11, 2, 6.0), (12, 1, 1.5)"
        )
        rule = make_vertical_sharding({"t_user": "ds_a", "t_order": "ds_b"})
        engine = SQLEngine(sources, rule)
        yield engine
        engine.close()

    def test_cross_source_join(self, split_fleet):
        result = split_fleet.execute(
            "SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid "
            "ORDER BY o.amount DESC"
        )
        assert result.route_type == "federation"
        assert result.fetchall() == [("bo", 6.0), ("ann", 4.0), ("ann", 1.5)]

    def test_cross_source_aggregate_join(self, split_fleet):
        result = split_fleet.execute(
            "SELECT u.name, SUM(o.amount) AS total FROM t_user u "
            "JOIN t_order o ON u.uid = o.uid GROUP BY u.name ORDER BY total DESC"
        )
        assert result.fetchall() == [("bo", 6.0), ("ann", 5.5)]

    def test_predicate_pushdown_limits_fetch(self, split_fleet):
        result = split_fleet.execute(
            "SELECT u.name, o.oid FROM t_user u JOIN t_order o ON u.uid = o.uid "
            "WHERE u.uid = 1 AND o.amount > 2 ORDER BY o.oid"
        )
        assert result.fetchall() == [("ann", 10)]

    def test_left_join_federated(self, split_fleet):
        result = split_fleet.execute(
            "SELECT u.name, o.oid FROM t_user u LEFT JOIN t_order o ON u.uid = o.uid "
            "WHERE o.oid IS NULL"
        )
        assert result.fetchall() == [("che", None)]

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_federated_statement_reports_to_hooks_once(self, split_fleet, entry):
        spy = Spy()
        breaker = CircuitBreakerFeature(failure_threshold=5, reset_timeout=0.0)
        split_fleet.add_feature(spy)
        split_fleet.add_feature(breaker)
        breaker.trip()  # cooldown 0 s: the federated statement is the probe
        result = run(
            split_fleet, entry,
            "SELECT u.name, o.oid FROM t_user u JOIN t_order o ON u.uid = o.uid ORDER BY o.oid",
        )
        assert result.route_type == "federation"
        assert result.fetchall() == [("ann", 10), ("bo", 11), ("ann", 12)]
        assert spy.events == ["context", "result"]
        assert breaker.state is CircuitState.CLOSED

    @pytest.fixture(params=[True, False], ids=["w_in_a_rule", "w_in_no_rule"])
    def w_on_ds0(self, request):
        """``t`` in four MOD shards over ds0 and ds1; ``w`` on ds0 only,
        under a one-node rule or in no rule at all."""
        from repro.sharding import DataNode, ShardingRule, TableRule, build_auto_table_rule
        from repro.storage import DataSource

        sources = {name: DataSource(name) for name in ("ds0", "ds1")}
        t = build_auto_table_rule("t", list(sources), sharding_column="id",
                                  algorithm_type="MOD", properties={"sharding-count": 4})
        for node in t.data_nodes:
            sources[node.data_source].execute(
                f"CREATE TABLE {node.table} (id INT PRIMARY KEY, v INT)")
        sources["ds0"].execute("CREATE TABLE w (v INT PRIMARY KEY, name VARCHAR(8))")
        sources["ds0"].execute("INSERT INTO w (v, name) VALUES (10, 'ten'), (20, 'twenty')")
        rules = [t] + ([TableRule("w", [DataNode("ds0", "w")])] if request.param else [])
        engine = SQLEngine(sources, ShardingRule(rules, default_data_source="ds0"))
        engine.execute("INSERT INTO t (id, v) VALUES (1, 10), (2, 20)")
        yield engine
        engine.close()

    def test_a_join_with_a_table_on_one_source_federates(self, w_on_ds0):
        result = w_on_ds0.execute(
            "SELECT t.id, w.name FROM t JOIN w ON t.v = w.v ORDER BY t.id")
        assert result.route_type == "federation"
        assert result.fetchall() == [(1, "ten"), (2, "twenty")]

    def test_a_plan_hit_off_the_table_s_source_federates(self, w_on_ds0):
        """id 2 lives on ds0 beside ``w`` and compiles the plan; id 1 lives
        on ds1 and is a hit of that plan."""
        sql = "SELECT t.id, w.name FROM t JOIN w ON t.v = w.v WHERE t.id = ?"
        assert w_on_ds0.execute(sql, (2,)).fetchall() == [(2, "twenty")]
        result = w_on_ds0.execute(sql, (1,))
        assert result.route_type == "federation"
        assert result.fetchall() == [(1, "ten")]
