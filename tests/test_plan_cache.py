"""Prepared-statement plan cache: compilation, hits, invalidation, DistSQL.

The cache compiles one immutable plan per SQL text; hits skip
parse/context/route/rewrite. These tests pin down the cacheability
rules, the counter accounting, every invalidation trigger and the
feature interaction contract (``plan_cache_safe``).
"""

import pytest

from repro.adaptors import PreparedStatement, ShardingDataSource, ShardingRuntime
from repro.engine import CompiledPlan, Feature, ParamRef, PlanCache, SQLEngine, compile_plan
from repro.exceptions import SQLParseError
from repro.features import (
    EncryptColumn,
    EncryptFeature,
    EncryptRule,
    ReadWriteGroup,
    ReadWriteSplittingFeature,
    XorStreamEncryptor,
)
from repro.observability import Observability
from repro.sharding import ShardingRule
from repro.sql import parse
from repro.storage import DataSource
from repro.storage.plans import StoragePlanCache


def _compile(sql: str, rule) -> CompiledPlan:
    return compile_plan(sql, parse(sql), rule)


# ---------------------------------------------------------------------------
# Compilation / cacheability rules
# ---------------------------------------------------------------------------


class TestCompile:
    def test_point_select_compiles(self, paper_rule):
        plan = _compile("SELECT name FROM t_user WHERE uid = ?", paper_rule)
        assert plan.cacheable
        assert plan.param_count == 1
        assert plan.single_table == "t_user"
        assert plan.fingerprint
        template = plan.condition_template["t_user"]["uid"]
        assert template.values == [ParamRef(0)]

    def test_a_table_in_no_rule_takes_no_fast_route(self, paper_rule):
        """It lives on the default source only, so the router must see
        where the sharded table's units land."""
        plan = _compile(
            "SELECT u.name, x.v FROM t_user u JOIN t_extra x ON u.uid = x.uid "
            "WHERE u.uid = ?", paper_rule)
        assert plan.cacheable and plan.single_table is None
        plan = _compile(
            "SELECT u.name, d.v FROM t_user u JOIN t_dict d ON u.name = d.k "
            "WHERE u.uid = ?", paper_rule)
        assert plan.single_table == "t_user"  # a broadcast table is everywhere

    def test_insert_bypasses(self, paper_rule):
        plan = _compile("INSERT INTO t_user (uid, name, age) VALUES (?, ?, ?)", paper_rule)
        assert not plan.cacheable
        assert "INSERT" in plan.reason

    def test_ddl_bypasses(self, paper_rule):
        plan = _compile("CREATE TABLE t_new (id INT PRIMARY KEY)", paper_rule)
        assert not plan.cacheable
        assert "DDL" in plan.reason

    def test_limit_placeholder_bypasses(self, paper_rule):
        plan = _compile("SELECT * FROM t_user ORDER BY uid LIMIT ?", paper_rule)
        assert not plan.cacheable
        assert "LIMIT" in plan.reason

    def test_literal_limit_compiles(self, paper_rule):
        plan = _compile("SELECT * FROM t_user ORDER BY uid LIMIT 5", paper_rule)
        assert plan.cacheable

    def test_intersected_sharding_conditions_bypass(self, paper_rule):
        plan = _compile(
            "SELECT * FROM t_user WHERE uid = ? AND uid = ?", paper_rule
        )
        assert not plan.cacheable
        assert "intersected" in plan.reason

    def test_bind_conditions_substitutes_params(self, paper_rule):
        plan = _compile("SELECT name FROM t_user WHERE uid = ?", paper_rule)
        bound = plan.bind_conditions((7,))
        assert bound["t_user"]["uid"].values == [7]
        # the template itself must stay parameterized
        assert plan.condition_template["t_user"]["uid"].values == [ParamRef(0)]


# ---------------------------------------------------------------------------
# Hit/miss accounting and correctness on the hot path
# ---------------------------------------------------------------------------


class TestHitPath:
    def test_miss_then_hit(self, seeded_engine):
        # fresh cache: the fixture's seeding INSERTs already count misses
        seeded_engine.plan_cache = cache = PlanCache()
        sql = "SELECT name FROM t_user WHERE uid = ?"
        assert seeded_engine.execute(sql, (1,)).fetchall() == [("alice",)]
        assert (cache.misses, cache.hits) == (1, 0)
        assert seeded_engine.execute(sql, (2,)).fetchall() == [("bob",)]
        assert (cache.misses, cache.hits) == (1, 1)
        assert cache.peek(sql).hits == 1

    def test_hit_results_match_slow_path(self, seeded_engine):
        sql = "SELECT name FROM t_user WHERE uid IN (?, ?) ORDER BY uid"
        first = seeded_engine.execute(sql, (1, 2)).fetchall()
        second = seeded_engine.execute(sql, (1, 2)).fetchall()
        third = seeded_engine.execute(sql, (3, 4)).fetchall()
        assert first == second == [("alice",), ("bob",)]
        assert third == [("carol",), ("dave",)]
        assert seeded_engine.plan_cache.hits == 2

    def test_range_select_hits(self, seeded_engine):
        sql = "SELECT COUNT(*) FROM t_user WHERE uid BETWEEN ? AND ?"
        assert seeded_engine.execute(sql, (1, 4)).fetchall() == [(4,)]
        assert seeded_engine.execute(sql, (1, 2)).fetchall() == [(2,)]
        assert seeded_engine.plan_cache.hits == 1

    def test_update_on_hit_path(self, seeded_engine):
        sql = "UPDATE t_user SET age = ? WHERE uid = ?"
        seeded_engine.execute(sql, (40, 1))
        result = seeded_engine.execute(sql, (41, 2))
        assert result.update_count == 1
        assert seeded_engine.plan_cache.hits == 1
        rows = seeded_engine.execute(
            "SELECT age FROM t_user WHERE uid IN (?, ?) ORDER BY uid", (1, 2)
        ).fetchall()
        assert rows == [(40,), (41,)]

    def test_underfilled_params_bypass(self, seeded_engine):
        sql = "SELECT name FROM t_user WHERE uid = ?"
        seeded_engine.execute(sql, (1,))
        seeded_engine.execute(sql + " AND age > 0", (1,))  # different text
        before = seeded_engine.plan_cache.hits
        # a statement whose plan wants 1 param executed with 0 params
        with pytest.raises(Exception):
            seeded_engine.execute(sql, ())
        assert seeded_engine.plan_cache.hits == before
        assert seeded_engine.plan_cache.bypasses >= 1

    def test_insert_is_negative_cached(self, seeded_engine):
        seeded_engine.plan_cache = PlanCache()
        sql = "INSERT INTO t_user (uid, name, age) VALUES (?, ?, ?)"
        seeded_engine.execute(sql, (5, 'eve', 22))
        seeded_engine.execute(sql, (6, 'frank', 23))
        plan = seeded_engine.plan_cache.peek(sql)
        assert plan is not None and not plan.cacheable
        assert seeded_engine.plan_cache.bypasses == 1  # second execution
        # key generation still works through the slow path
        assert seeded_engine.execute(
            "SELECT name FROM t_user WHERE uid = ?", (6,)
        ).fetchall() == [("frank",)]

    def test_hint_values_skip_cache(self, seeded_engine):
        sql = "SELECT name FROM t_user WHERE uid = ?"
        seeded_engine.execute(sql, (1,))
        counters = (seeded_engine.plan_cache.hits, seeded_engine.plan_cache.misses)
        seeded_engine.execute(sql, (1,), hint_values=[1])
        assert (seeded_engine.plan_cache.hits,
                seeded_engine.plan_cache.misses) == counters

    def test_preparsed_statement_skips_cache(self, seeded_engine):
        seeded_engine.plan_cache = PlanCache()
        statement = parse("SELECT name FROM t_user WHERE uid = 1")
        assert seeded_engine.execute(statement).fetchall() == [("alice",)]
        assert len(seeded_engine.plan_cache) == 0

    def test_plan_ast_stays_immutable_across_hits(self, seeded_engine):
        sql = "SELECT name, age FROM t_user WHERE uid = ? ORDER BY age"
        for uid in (1, 2, 3, 4, 1, 2):
            seeded_engine.execute(sql, (uid,)).fetchall()
        plan = seeded_engine.plan_cache.peek(sql)
        assert plan.verify_immutable()
        assert plan.template_count >= 1

    def test_lru_eviction(self, seeded_engine):
        seeded_engine.plan_cache = PlanCache(capacity=2)
        cache = seeded_engine.plan_cache
        # four shapes, not four literals: literals of one shape share a plan
        for shape in ("uid = 1", "uid > 1", "uid < 1", "uid <> 1"):
            seeded_engine.execute(f"SELECT name FROM t_user WHERE {shape}")
        assert len(cache) == 2
        assert cache.evictions == 2
        assert [row[0] for row in cache.snapshot_rows()] == [
            "SELECT name FROM t_user WHERE uid <> ?", "SELECT name FROM t_user WHERE uid < ?"]


# ---------------------------------------------------------------------------
# Statement identity: literal SQL runs as its prepared shape
# ---------------------------------------------------------------------------


class _ContextSpy(Feature):
    """Records what the engine hands to features."""

    name = "spy"
    plan_cache_safe = True

    def __init__(self):
        self.seen = []

    def on_context(self, context):
        self.seen.append((context.sql, context.params))


class TestStatementIdentity:
    SHAPE = "SELECT name FROM t_user WHERE uid = ?"

    def test_literals_of_one_shape_share_a_plan(self, seeded_engine, pipeline_calls):
        seeded_engine.plan_cache = cache = PlanCache()
        parses = pipeline_calls("parse")
        names = []
        for uid in (1, 2, 3, 4):
            result = seeded_engine.execute(f"SELECT name FROM t_user WHERE uid = {uid}")
            names.append(result.fetchall())
            # one statement, one counted lookup: the raw-text probe is no miss
            assert cache.hits + cache.misses + cache.bypasses == uid
            assert result.sqls == [f"SELECT name FROM t_user_h{uid % 2} WHERE uid = ?"]
            assert result.units[0].params == (uid,)
        assert names == [[("alice",)], [("bob",)], [("carol",)], [("dave",)]]
        assert (cache.misses, cache.hits, len(cache)) == (1, 3, 1)
        assert parses == [self.SHAPE]
        assert cache.peek(self.SHAPE).hits == 3
        # a hand-written prepared statement of the same text is the same plan
        assert seeded_engine.execute(self.SHAPE, (2,)).fetchall() == [("bob",)]
        assert (cache.hits, len(cache)) == (4, 1)

    def test_storage_plans_are_shared_too(self, seeded_engine):
        plans = seeded_engine.data_sources["ds1"].database.plan_cache
        for uid in (1, 3):  # compile on first sight, then warm the node's template
            seeded_engine.execute(f"SELECT name FROM t_user WHERE uid = {uid}").fetchall()
        before = plans.stats()
        seeded_engine.execute("SELECT name FROM t_user WHERE uid = 1").fetchall()
        seeded_engine.execute("SELECT name FROM t_user WHERE uid = 3").fetchall()
        after = plans.stats()
        assert after["hits"] - before["hits"] == 2
        assert (after["misses"], after["bypasses"]) == (before["misses"], before["bypasses"])

    def test_prepared_text_never_meets_the_normaliser(self, seeded_engine, pipeline_calls):
        seeded_engine.execute(self.SHAPE, (1,))
        seeded_engine.execute("INSERT INTO t_user (uid, name, age) VALUES (?, ?, ?)", (7, "g", 1))
        scans = pipeline_calls("normalize")
        seeded_engine.execute(self.SHAPE, (2,))
        seeded_engine.execute("INSERT INTO t_user (uid, name, age) VALUES (?, ?, ?)", (8, "h", 2))
        seeded_engine.execute_pipeline([(self.SHAPE, (1,)), (self.SHAPE, (2,))])
        assert scans == []

    def test_caller_params_and_literals_mix(self, seeded_engine):
        seeded_engine.plan_cache = cache = PlanCache()
        sql = "SELECT name FROM t_user WHERE uid IN (?, {0}) AND age > {1} AND age < ? ORDER BY uid"
        assert seeded_engine.execute(sql.format(2, 26), (1, 99)).fetchall() == [("alice",)]
        assert seeded_engine.execute(sql.format(3, 20), (2, 30)).fetchall() == [("bob",)]
        assert seeded_engine.execute(sql.format(4, 20), (3, 99)).fetchall() == [("carol",), ("dave",)]
        assert (cache.misses, cache.hits, len(cache)) == (1, 2, 1)

    def test_short_and_excess_binds_run_as_sent(self, seeded_engine):
        seeded_engine.plan_cache = cache = PlanCache()
        sql = "SELECT name FROM t_user WHERE uid = ? AND age > 20"
        assert seeded_engine.execute(sql, (1, "extra")).fetchall() == [("alice",)]
        assert cache.peek(sql) is not None and len(cache) == 1  # keyed by the text sent
        with pytest.raises(Exception):
            seeded_engine.execute(sql, ())

    def test_context_gets_the_shape_clients_keep_their_text(self, seeded_engine):
        spy = _ContextSpy()
        seeded_engine.add_feature(spy)
        obs = Observability()
        obs.tracer.enabled = True
        obs.slow_log.threshold = 0.0
        seeded_engine.attach_observability(obs)
        raw = "SELECT name FROM t_user WHERE uid = 3"
        for _ in range(2):  # slow path, then plan hit
            assert seeded_engine.execute(raw).fetchall() == [("carol",)]
        assert spy.seen == [(self.SHAPE, (3,))] * 2
        assert [t.name for t in obs.tracer.recent()] == [raw, raw]
        assert {entry.sql for entry in obs.slow_log.entries()} == {raw}
        digest, text = obs.workload.digest_of(raw)
        assert text == self.SHAPE
        assert [d["digest"] for d in obs.workload.digest_report()] == [digest]

    def test_session_shows_the_client_text(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.execute("SELECT name FROM t_user WHERE uid = 2").fetchall()
        assert conn.session.last_sql == "SELECT name FROM t_user WHERE uid = 2"

    def test_unsafe_shape_runs_as_sent(self, seeded_engine):
        seeded_engine.plan_cache = cache = PlanCache()
        # the literal in the select list is compared: the scanner extracts
        # it, the AST check refuses the shape (see DESIGN.md)
        sql = "SELECT name, age = {0} FROM t_user WHERE uid = {1}"
        first = seeded_engine.execute(sql.format(30, 1))
        assert first.fetchall() == [("alice", True)]
        assert first.sqls == ["SELECT name, age = 30 FROM t_user_h1 WHERE uid = 1"]
        second = seeded_engine.execute(sql.format(30, 2))
        assert second.fetchall() == [("bob", False)]
        assert second.units[0].params == ()
        marker = cache.peek(sql.format(31, 3))
        assert marker.sql == "SELECT name, age = ? FROM t_user WHERE uid = ?"
        # a plan all the same, for whoever prepares that text by hand
        assert marker.cacheable and not marker.literal_safe
        assert (cache.misses, cache.bypasses, cache.hits, len(cache)) == (1, 1, 0, 1)
        assert seeded_engine.execute(marker.sql, (25, 2)).fetchall() == [("bob", True)]
        assert cache.hits == 1

    def test_uncacheable_shape_still_saves_the_parse(self, seeded_engine, pipeline_calls):
        seeded_engine.plan_cache = cache = PlanCache()
        parses = pipeline_calls("parse")
        sql = "SELECT name FROM t_user WHERE uid >= {0} AND uid <= {1} ORDER BY uid"
        assert seeded_engine.execute(sql.format(1, 2)).fetchall() == [("alice",), ("bob",)]
        assert seeded_engine.execute(sql.format(3, 3)).fetchall() == [("carol",)]
        assert seeded_engine.execute(sql.format(4, 1)).fetchall() == []
        marker = cache.peek(sql.format(9, 9))
        assert "intersected" in marker.reason and marker.literal_safe
        assert (cache.misses, cache.bypasses, len(cache)) == (1, 2, 1)
        assert len(parses) == 1

    def test_shape_demoted_to_federation_keeps_serving_literals(self, fleet, nonbinding_rule):
        engine = SQLEngine(fleet, nonbinding_rule, max_connections_per_query=2)
        try:
            engine.execute(
                "INSERT INTO t_user (uid, name, age) VALUES (1, 'alice', 30), (3, 'carol', 35)")
            engine.execute(
                "INSERT INTO t_order (oid, uid, amount) VALUES (10, 1, 5.0), (11, 2, 7.5), (13, 1, 2.0)")
            engine.plan_cache = cache = PlanCache()
            parsed = len(engine._parse_cache)
            sql = ("SELECT u.name, o.oid FROM t_user u JOIN t_order o ON o.amount < u.age "
                   "WHERE u.uid = {0} AND o.uid = {1} ORDER BY o.oid")
            expected = [("cartesian", [("alice", 10), ("alice", 13)]),
                        ("cartesian", [("alice", 10), ("alice", 13)]),  # plan hit
                        ("federation", [("carol", 11)]),  # a hit that cannot co-locate
                        ("cartesian", [("alice", 10), ("alice", 13)])]  # the marker's slow path
            for (uid, order_uid), outcome in zip([(1, 1), (1, 1), (3, 2), (1, 1)], expected):
                result = engine.execute(sql.format(uid, order_uid))
                assert (result.route_type, result.fetchall()) == outcome
            marker = cache.peek(sql.format(5, 5))
            assert "federation" in marker.reason and marker.takes_literals(2)
            assert (cache.misses, cache.hits, cache.bypasses, len(cache)) == (1, 2, 1, 1)
            assert len(engine._parse_cache) == parsed + 1
        finally:
            engine.close()

    def test_parse_error_reports_the_client_text(self, seeded_engine):
        # two extracted literals of different widths before the error
        raw = "SELECT name FROM t_user WHERE uid = 1000000 AND name = 'x' AND age = = 3"
        with pytest.raises(SQLParseError) as direct:
            parse(raw)
        for _ in range(2):
            with pytest.raises(SQLParseError) as through:
                seeded_engine.execute(raw)
            assert str(through.value) == str(direct.value)
            assert through.value.position == direct.value.position == raw.index("= 3")
        with pytest.raises(SQLParseError) as piped:
            seeded_engine.execute_pipeline([(raw, ())])
        assert piped.value.position == direct.value.position

    def test_unsupported_sql_reports_the_client_text(self, seeded_engine):
        raw = "SELECT name FROM t_user WHERE uid = 12345 AND EXISTS (SELECT 1)"
        with pytest.raises(SQLParseError) as direct:
            parse(raw)
        with pytest.raises(SQLParseError) as through:
            seeded_engine.execute(raw)
        assert type(through.value) is type(direct.value)
        assert (str(through.value), through.value.position) == (
            str(direct.value), direct.value.position)

    def test_off_switches_turn_it_off_with_the_plan_cache(self, seeded_engine, pipeline_calls):
        scans = pipeline_calls("normalize")
        raw = "SELECT name FROM t_user WHERE uid = 1"
        literal_unit = ["SELECT name FROM t_user_h1 WHERE uid = 1"]
        seeded_engine.plan_cache.enabled = False
        assert seeded_engine.execute(raw).sqls == literal_unit
        seeded_engine.plan_cache.enabled = True
        assert seeded_engine.execute(raw, hint_values=[1]).sqls == literal_unit
        assert seeded_engine.execute(parse(raw)).sqls == literal_unit
        rule = EncryptRule()
        rule.add("t_dict", EncryptColumn("v", "v_cipher", XorStreamEncryptor("k")))
        seeded_engine.add_feature(EncryptFeature(rule))
        assert seeded_engine.execute(raw).sqls == literal_unit
        assert scans == []

    def test_diagnostics_find_the_plan_of_a_literal_text(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        for uid in (1, 2, 1):
            conn.execute(f"SELECT name FROM t_user WHERE uid = {uid}").fetchall()
        literal = conn.prepare("SELECT name FROM t_user WHERE uid = 77")
        assert literal.plan() is conn.prepare(self.SHAPE).plan()
        assert literal.plan().hits == 2
        rows = {row[0]: row for row in conn.execute("SHOW PLAN CACHE").fetchall()}
        assert rows[self.SHAPE][1] == 2 and rows[self.SHAPE][3] == "cached"
        assert not any("uid = 1" in sql or "uid = 2" in sql for sql in rows)

    def test_error_and_trace_digests_share_the_memo(self, seeded_engine):
        obs = Observability()
        seeded_engine.attach_observability(obs)
        for uid in range(50):
            with pytest.raises(Exception):
                seeded_engine.execute(f"SELECT name FROM t_nope WHERE uid = {uid}")
        (entry,) = obs.workload.digest_report()
        assert entry["sql"] == "SELECT name FROM t_nope WHERE uid = ?" and entry["errors"] == 50
        assert len(obs.workload._digest_cache) == 1


# ---------------------------------------------------------------------------
# Invalidation triggers
# ---------------------------------------------------------------------------


class TestInvalidation:
    def test_ddl_invalidates(self, seeded_engine):
        sql = "SELECT name FROM t_user WHERE uid = ?"
        seeded_engine.execute(sql, (1,))
        assert seeded_engine.plan_cache.peek(sql) is not None
        seeded_engine.execute("CREATE TABLE t_dict2 (k VARCHAR(8), v VARCHAR(8))")
        assert seeded_engine.plan_cache.peek(sql) is None
        assert seeded_engine.plan_cache.invalidations == 1
        assert seeded_engine.plan_cache.last_invalidation == "DDL"

    def test_feature_add_remove_invalidates(self, seeded_engine):
        sql = "SELECT name FROM t_user WHERE uid = ?"
        seeded_engine.execute(sql, (1,))
        group = ReadWriteGroup("ds0", primary="ds0", replicas=[])
        feature = ReadWriteSplittingFeature([group])
        seeded_engine.add_feature(feature)
        assert seeded_engine.plan_cache.peek(sql) is None
        seeded_engine.execute(sql, (1,))
        seeded_engine.remove_feature(feature.name)
        assert seeded_engine.plan_cache.peek(sql) is None
        assert seeded_engine.plan_cache.invalidations == 2

    def test_unsafe_feature_disables_caching(self, seeded_engine):
        rule = EncryptRule()
        rule.add("t_dict", EncryptColumn("v", "v_cipher", XorStreamEncryptor("k")))
        feature = EncryptFeature(rule)
        assert feature.plan_cache_safe is False
        seeded_engine.add_feature(feature)
        sql = "SELECT name FROM t_user WHERE uid = ?"
        seeded_engine.execute(sql, (1,))
        seeded_engine.execute(sql, (1,))
        assert len(seeded_engine.plan_cache) == 0
        assert seeded_engine.plan_cache.hits == 0
        # removing the unsafe feature re-enables caching
        seeded_engine.remove_feature(feature.name)
        seeded_engine.execute(sql, (1,))
        seeded_engine.execute(sql, (2,))
        assert seeded_engine.plan_cache.hits == 1

    def test_safe_feature_still_redirects_on_hits(self):
        sources = {name: DataSource(name) for name in ("primary", "replica0")}
        for ds in sources.values():
            ds.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            ds.execute("INSERT INTO t (id, v) VALUES (1, 10)")
        group = ReadWriteGroup("primary", primary="primary", replicas=["replica0"])
        feature = ReadWriteSplittingFeature([group])
        from repro.engine import SQLEngine

        engine = SQLEngine(sources, ShardingRule(default_data_source="primary"),
                           features=[feature])
        try:
            for _ in range(3):
                engine.execute("SELECT v FROM t WHERE id = ?", (1,)).fetchall()
            assert engine.plan_cache.hits == 2  # caching stayed on
            assert feature.reads_routed == 3  # every hit still redirected
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# DistSQL + runtime integration
# ---------------------------------------------------------------------------


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
        conn.execute(
            "INSERT INTO t_user (uid, name) VALUES (1, 'alice'), (2, 'bob')"
        )
    yield rt
    rt.close()


class TestDistSQL:
    def test_show_plan_cache(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.execute("SELECT name FROM t_user WHERE uid = ?", (1,))
        conn.execute("SELECT name FROM t_user WHERE uid = ?", (2,))
        result = conn.execute("SHOW PLAN CACHE")
        assert result.columns == ["sql", "hits", "templates", "state"]
        rows = result.fetchall()
        cached = {row[0]: row for row in rows}
        entry = cached["SELECT name FROM t_user WHERE uid = ?"]
        assert entry[1] == 1 and entry[3] == "cached"
        assert "hit rate" in result.message

    def test_clear_plan_cache(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.execute("SELECT name FROM t_user WHERE uid = ?", (1,))
        assert len(runtime.engine.plan_cache) > 0
        result = conn.execute("CLEAR PLAN CACHE")
        assert "cleared" in result.message
        assert len(runtime.engine.plan_cache) == 0

    def test_rule_change_invalidates(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        sql = "SELECT name FROM t_user WHERE uid = ?"
        conn.execute(sql, (1,))
        assert runtime.engine.plan_cache.peek(sql) is not None
        conn.execute(
            "CREATE SHARDING TABLE RULE t_order (RESOURCES(ds0, ds1), "
            "SHARDING_COLUMN=oid, TYPE=mod, PROPERTIES('sharding-count'=2))"
        )
        assert runtime.engine.plan_cache.peek(sql) is None

    def test_register_resource_invalidates(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        sql = "SELECT name FROM t_user WHERE uid = ?"
        conn.execute(sql, (1,))
        conn.execute("REGISTER RESOURCE ds9")
        assert runtime.engine.plan_cache.peek(sql) is None

    def test_set_variable_toggles_cache(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        # fresh cache: the fixture's setup statements already count misses
        runtime.engine.plan_cache = cache = PlanCache()
        sql = "SELECT name FROM t_user WHERE uid = ?"
        conn.execute("SET VARIABLE plan_cache = off")
        assert cache.enabled is False
        conn.execute(sql, (1,))
        conn.execute(sql, (2,))
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)
        conn.execute("SET VARIABLE plan_cache = on")
        conn.execute(sql, (1,))
        conn.execute(sql, (2,))
        assert (cache.hits, cache.misses) == (1, 1)

    def test_trace_shows_plan_cache_hit_span(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.execute("SELECT name FROM t_user WHERE uid = 1")
        result = conn.execute("TRACE SELECT name FROM t_user WHERE uid = 1")
        labels = [str(row[0]) for row in result.fetchall()]
        assert any("plan_cache_hit" in label for label in labels)
        for skipped in ("parse", "route", "rewrite"):
            assert not any(label.endswith(skipped) for label in labels)

    def test_metrics_registry_exposes_plan_cache(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.execute("SELECT name FROM t_user WHERE uid = ?", (1,))
        conn.execute("SELECT name FROM t_user WHERE uid = ?", (2,))
        families = {
            name: samples
            for name, _kind, _help, samples in runtime.observability.registry.collect()
        }
        events = {
            labels["event"]: value
            for labels, value in families["engine_plan_cache_events_total"]
        }
        assert events["hit"] >= 1.0 and events["miss"] >= 1.0
        ((_, size),) = families["engine_plan_cache_size"]
        assert size >= 1.0


class TestStoragePlanCacheMetrics:
    def test_events_and_size_families(self):
        source = DataSource("ds9")
        source.database.plan_cache = StoragePlanCache(capacity=1)
        observability = Observability()
        observability.register_storage_plan_cache("ds9", source.database.plan_cache)
        source.execute("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(16))")  # bypass
        sql = "SELECT b FROM t WHERE a = 1"
        source.execute(sql)  # miss
        source.execute(sql)  # hit
        source.execute("CREATE INDEX idx_b ON t (b)")  # bypass
        source.execute(sql)  # invalidation (stale schema version), then a miss
        source.execute("SELECT a FROM t WHERE b = 'x'")  # miss, evicting the first plan
        families = {
            name: (kind, samples)
            for name, kind, _help, samples in observability.registry.collect()
        }
        assert families["storage_plan_cache_events_total"] == ("counter", [
            ({"source": "ds9", "event": "hit"}, 1.0),
            ({"source": "ds9", "event": "miss"}, 3.0),
            ({"source": "ds9", "event": "bypass"}, 2.0),
            ({"source": "ds9", "event": "invalidation"}, 1.0),
            ({"source": "ds9", "event": "eviction"}, 1.0),
        ])
        assert families["storage_plan_cache_size"] == ("gauge", [({"source": "ds9"}, 1.0)])


class TestPreparedStatement:
    def test_prepare_execute_and_plan(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        stmt = conn.prepare("SELECT name FROM t_user WHERE uid = ?")
        assert isinstance(stmt, PreparedStatement)
        assert stmt.execute((1,)).fetchall() == [("alice",)]
        assert stmt.execute((2,)).fetchall() == [("bob",)]
        plan = stmt.plan()
        assert plan is not None and plan.cacheable
        assert plan.hits == 1
        assert "t_user" in repr(stmt)


# ---------------------------------------------------------------------------
# A plan hit cuts the units the slow path cuts
# ---------------------------------------------------------------------------

UNIT_SHAPES = [
    ("SELECT name FROM t_user WHERE uid = ?", (3,)),
    ("SELECT uid, age + ? FROM t_user WHERE uid IN (?, ?) ORDER BY uid", (100, 1, 2)),
    ("SELECT age, COUNT(*) AS n, AVG(age) FROM t_user WHERE uid > ? GROUP BY age", (0,)),
    ("SELECT age, AVG(uid) FROM t_user WHERE uid = ? GROUP BY age", (2,)),
    ("SELECT AVG(amount), SUM(amount) FROM t_order WHERE amount > ?", (1.0,)),
    ("SELECT uid, name FROM t_user WHERE age > ? ORDER BY uid LIMIT 2 OFFSET 1", (20,)),
    ("SELECT DISTINCT uid FROM t_order WHERE amount > ? ORDER BY uid", (1.0,)),
    ("SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid "
     "WHERE o.amount > ? ORDER BY o.oid LIMIT 3", (1.0,)),
    ("SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid "
     "WHERE u.uid = ? ORDER BY o.oid", (1,)),
]


@pytest.mark.parametrize("sql, params", UNIT_SHAPES)
def test_a_plan_hit_cuts_the_units_the_slow_path_cuts(seeded_engine, sql, params):
    """One shape and one unit cut on both paths: the same per-unit SQL
    text, the same per-unit parameters and the same rows, on one node and
    on several."""
    seeded_engine.execute(sql, params)  # compiles the plan
    hits = seeded_engine.plan_cache.hits
    hit = seeded_engine.execute(sql, params)
    assert seeded_engine.plan_cache.hits == hits + 1
    seeded_engine.plan_cache.enabled = False
    slow = seeded_engine.execute(sql, params)
    assert hit.sqls == slow.sqls
    assert [unit.params for unit in hit.units] == [unit.params for unit in slow.units]
    assert (hit.merger_kind, hit.fetchall()) == (slow.merger_kind, slow.fetchall())
