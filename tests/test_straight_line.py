"""A plan-hot statement is a straight line.

On a plan-cache hit a fan-out costs one unit-memo probe plus one
``ExecutionUnit`` per routed node (``CompiledPlan.build_units``); each
unit's template statement carries the storage plan it last ran with, bound
to one ``Database`` and its schema epoch; and with no resilience policy and
no trace a read enters storage straight through ``Connection.execute``.
These tests hold the three layers to what they must not change: results,
invalidation by DDL, redirects by features, and retry semantics.
"""

import os
import sys
import threading

import pytest

import repro
from repro.engine import SQLEngine
from repro.engine.pipeline import Feature
from repro.engine.resilience import ResiliencePolicy
from repro.exceptions import ExecutionError
from repro.features import ReadWriteGroup, ReadWriteSplittingFeature, ShadowFeature, ShadowRule
from repro.session import current_session
from repro.sharding import ShardingRule, build_auto_table_rule
from repro.storage import DataSource, FaultInjector
from repro.storage.faults import FaultKind

from .oracle import OracleConnection

SOURCES = 4
SHARDS = 16
NAMES = [f"ds{i}" for i in range(SOURCES)]
SCHEMA = "(id INT PRIMARY KEY, v INT, is_shadow INT)"

#: every variant of a shard's row: what the primary, the shadow database and
#: each of three replicas hold for shard ``i``
ROW = {
    "": lambda i: (i, i * 10, 0),
    "_shadow": lambda i: (i, -i, 1),
    "_r0": lambda i: (i, i * 10 + 1, 0),
    "_r1": lambda i: (i, i * 10 + 2, 0),
    "_r2": lambda i: (i, i * 10 + 3, 0),
}


def make_fleet(*suffixes):
    """16 shards of ``t_big`` over four primaries, plus one copy of every
    shard in a data source per suffix (``ds0_shadow``, ``ds0_r0``, ...),
    each holding its own version of the row."""
    table_rule = build_auto_table_rule(
        "t_big", NAMES, sharding_column="id", algorithm_type="MOD",
        properties={"sharding-count": SHARDS})
    sources = {}
    for suffix in ("",) + suffixes:
        for name in NAMES:
            sources[name + suffix] = DataSource(name + suffix)
        for index, node in enumerate(table_rule.data_nodes):
            source = sources[node.data_source + suffix]
            source.execute(f"CREATE TABLE {node.table} {SCHEMA}")
            source.execute(f"INSERT INTO {node.table} (id, v, is_shadow) VALUES {ROW[suffix](index)}")
    return sources, table_rule


def make_engine(sources, table_rule, features=(), resilience=None):
    return SQLEngine(sources, ShardingRule([table_rule], default_data_source="ds0"),
                     features=features, max_connections_per_query=SHARDS // SOURCES,
                     resilience=resilience)


def rows_of(suffix, keep=lambda row: True):
    return sorted(row[:2] for i in range(SHARDS) if keep(row := ROW[suffix](i)))


def run(engine, sql, params=()):
    return sorted(engine.execute(sql, params).fetchall())


@pytest.fixture
def fleet():
    sources, table_rule = make_fleet()
    engine = make_engine(sources, table_rule)
    yield sources, table_rule, engine
    engine.close()


def count_calls(fn):
    """Python calls into ``src/repro`` made by ``fn()``."""
    root = os.path.dirname(repro.__file__) + os.sep
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls[0] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls[0]


class TestHotFanOut:
    def test_a_unit_costs_at_most_22_calls(self, fleet):
        """A literal broadcast read over 16 shards, plan-hot: the whole
        statement, merge and release included, within 22 calls a unit (26
        when a unit's result was a cursor around a chain of generators, 52
        when every unit went through the retry wrapper, a per-unit template
        key and an LRU probe by SQL text)."""
        sources, table_rule, engine = fleet
        for bound in (1000, 1001):  # compile, then hit
            assert run(engine, f"SELECT id, v FROM t_big WHERE v > {bound}") == []
        got = []
        calls = count_calls(lambda: got.extend(
            engine.execute("SELECT id, v FROM t_big WHERE v > 5").fetchall()))
        assert sorted(got) == rows_of("", lambda row: row[1] > 5)
        assert calls <= 22 * SHARDS, calls / SHARDS

    def test_route_to_units_memo_is_bounded_by_shards_not_keys(self, fleet):
        sources, table_rule, engine = fleet
        sql = "SELECT v FROM t_big WHERE id = ?"
        assert run(engine, sql, (3,)) == [(30,)]
        plan = engine.plan_cache.peek(sql)
        rule = engine.metadata.current().rule
        dialect_of = engine.metadata.current().dialect_of
        for key in range(20_000):
            params = (key,)
            routed = plan.route_bound(plan.bind_conditions(params), rule, None)
            units, _ = plan.build_units(routed, params, dialect_of)
            assert [unit.data_source for unit in units] == [routed.units[0].data_source]
        assert len(plan._unit_memo) <= SHARDS
        assert plan.template_count <= SHARDS
        assert run(engine, sql, (19_999,)) == []
        assert run(engine, sql, (15,)) == [(150,)]

    def test_a_route_hook_that_drops_a_unit_keeps_every_unit_on_its_table(self):
        """A feature's ``on_route`` may change the routed units after
        ``route_bound``: the units then do not take templates from the
        memo, whose node set they no longer are."""

        class DropFirstShard(Feature):
            plan_cache_safe = True
            armed = False

            def on_route(self, route_result, context):
                if self.armed:
                    del route_result.units[0]

        sources, table_rule = make_fleet()
        hook = DropFirstShard()
        engine = make_engine(sources, table_rule, features=[hook])
        sql = "SELECT id, v FROM t_big WHERE v >= ?"
        try:
            for armed in (False, True, False, True):
                hook.armed = armed
                assert run(engine, sql, (0,)) == rows_of("", lambda row: not armed or row[0] != 0)
            assert engine.plan_cache.stats()["hits"] >= 3
        finally:
            engine.close()

    def test_units_and_route_units_are_fresh_per_statement(self, fleet):
        sources, table_rule, engine = fleet
        run(engine, "SELECT id FROM t_big WHERE v > ?", (0,))  # compile
        first = engine.execute("SELECT id FROM t_big WHERE v > ?", (0,))
        first.fetchall()
        second = engine.execute("SELECT id FROM t_big WHERE v > ?", (0,))
        second.fetchall()
        assert len(first.units) == len(second.units) == SHARDS
        for a, b in zip(first.units, second.units):
            assert a is not b and a.unit is not b.unit
            assert a.statement is b.statement  # the shared template


class TestBoundStoragePlan:
    SQL = "SELECT id, v FROM t_big WHERE v >= ?"

    def test_ddl_on_one_shard_invalidates_its_bound_plan(self, fleet):
        sources, table_rule, engine = fleet
        assert run(engine, self.SQL, (0,)) == rows_of("")
        assert run(engine, self.SQL, (0,)) == rows_of("")  # bound now
        node = table_rule.data_nodes[5]
        source = sources[node.data_source]
        database = source.database
        epoch, misses = database.schema_epoch, database.plan_cache.stats()["misses"]
        # behind the middleware's back: its plan cache still holds the
        # templates; only the storage epoch can tell the plan is stale
        source.execute(f"DROP TABLE {node.table}")
        source.execute(f"CREATE TABLE {node.table} (v INT, is_shadow INT, id INT PRIMARY KEY)")
        source.execute(f"INSERT INTO {node.table} (v, is_shadow, id) VALUES (777, 0, 5)")
        assert database.schema_epoch > epoch
        expected = sorted(
            row
            for other in table_rule.data_nodes
            for row in OracleConnection(sources[other.data_source]).execute(
                f"SELECT id, v FROM {other.table} WHERE v >= ?", (0,)).fetchall())
        assert (5, 777) in expected
        assert run(engine, self.SQL, (0,)) == expected
        assert database.plan_cache.stats()["misses"] > misses

    def test_a_shadow_redirect_never_runs_the_production_plan(self):
        sources, table_rule = make_fleet("_shadow")
        shadow = ShadowFeature(ShadowRule(mapping={n: n + "_shadow" for n in NAMES}))
        engine = make_engine(sources, table_rule, features=[shadow])
        sql = "SELECT id, v FROM t_big WHERE is_shadow = ?"
        try:
            for _ in range(2):
                assert run(engine, sql, (0,)) == rows_of("")
                assert run(engine, sql, (1,)) == rows_of("_shadow")
                # the next statement is not redirected by the last one
                assert run(engine, sql, (0,)) == rows_of("")
            assert shadow.shadow_routed == 2 * SHARDS
            assert engine.plan_cache.stats()["hits"] >= 5
        finally:
            engine.close()

    def test_a_shadow_redirect_does_not_leak_into_the_next_literal_statement(self):
        sources, table_rule = make_fleet("_shadow")
        shadow = ShadowFeature(ShadowRule(mapping={n: n + "_shadow" for n in NAMES}))
        engine = make_engine(sources, table_rule, features=[shadow])
        try:
            assert run(engine, "SELECT id, v FROM t_big WHERE is_shadow = 1") == rows_of("_shadow")
            assert run(engine, "SELECT id, v FROM t_big WHERE is_shadow = 0") == rows_of("")
            assert run(engine, "SELECT id, v FROM t_big WHERE id = 4 AND is_shadow = 1") == [(4, -4)]
            assert run(engine, "SELECT id, v FROM t_big WHERE id = 4 AND is_shadow = 0") == [(4, 40)]
        finally:
            engine.close()

    def test_replicas_in_turn_each_run_their_own_database(self):
        """Round robin over three replicas moves every shard's unit to the
        next replica on each statement: one template, three databases."""
        sources, table_rule = make_fleet("_r0", "_r1", "_r2")
        replicas = ("_r0", "_r1", "_r2")
        rwsplit = ReadWriteSplittingFeature(
            [ReadWriteGroup(n, primary=n, replicas=[n + r for r in replicas]) for n in NAMES])
        engine = make_engine(sources, table_rule, features=[rwsplit])
        sql = "SELECT id, v FROM t_big WHERE v > ?"
        ran_on = {}
        try:
            for _ in range(6):
                result = engine.execute(sql, (-1,))
                expected = []
                for unit in result.units:
                    shard = int(unit.unit.table_map["t_big"].rsplit("_", 1)[1])
                    suffix = unit.data_source[len("dsN"):]
                    ran_on.setdefault(shard, set()).add(suffix)
                    expected.append(ROW[suffix](shard)[:2])
                assert sorted(result.fetchall()) == sorted(expected)
            assert all(seen == set(replicas) for seen in ran_on.values())
            with current_session().pin():
                assert run(engine, sql, (-1,)) == rows_of("")
        finally:
            engine.close()


class TestIssueFaults:
    SQL = "SELECT id, v FROM t_big WHERE v > ?"

    def test_a_fault_without_a_policy_is_one_failed_attempt(self, fleet):
        sources, table_rule, engine = fleet
        run(engine, self.SQL, (-1,))
        sources["ds2"].database.fail_next("statement")
        with pytest.raises(ExecutionError, match="injected failure on statement"):
            engine.execute(self.SQL, (-1,))
        metrics = engine.executor.metrics
        assert (metrics.failed_units, metrics.retries) == (1, 0)
        assert run(engine, self.SQL, (-1,)) == rows_of("")
        assert all(source.pool.in_use == 0 for source in sources.values())

    def test_a_non_retryable_fault_is_not_retried_under_a_policy(self):
        sources, table_rule = make_fleet()
        engine = make_engine(sources, table_rule,
                             resilience=ResiliencePolicy(max_retries=2, seed=7))
        try:
            sources["ds2"].database.fail_next("statement")
            with pytest.raises(ExecutionError, match="injected failure on statement"):
                engine.execute(self.SQL, (-1,))
            assert engine.executor.metrics.retries == 0
            assert run(engine, self.SQL, (-1,)) == rows_of("")
        finally:
            engine.close()

    def test_a_transient_fault_is_retried_under_a_policy(self):
        sources, table_rule = make_fleet()
        engine = make_engine(sources, table_rule,
                             resilience=ResiliencePolicy(max_retries=2, seed=7))
        injector = FaultInjector(seed=3)
        for source in sources.values():
            source.set_fault_injector(injector)
        try:
            run(engine, self.SQL, (-1,))
            injector.fail_once("ds1", "statement", FaultKind.TRANSIENT)
            assert run(engine, self.SQL, (-1,)) == rows_of("")
            assert engine.executor.metrics.retries == 1
        finally:
            engine.close()


@pytest.mark.concurrency
def test_one_plan_under_two_sessions_a_shadow_redirect_and_ddl():
    """Two sessions run one compiled plan, one of them shadow-redirected,
    while DDL bumps one shard's schema epoch again and again: every result
    is its own side's, and no thread fails."""
    sources, table_rule = make_fleet("_shadow")
    shadow = ShadowFeature(ShadowRule(mapping={n: n + "_shadow" for n in NAMES}))
    engine = make_engine(sources, table_rule, features=[shadow])
    sql = "SELECT id, v FROM t_big WHERE is_shadow = ?"
    expected = {0: rows_of(""), 1: rows_of("_shadow")}
    node = table_rule.data_nodes[9]
    stop = threading.Event()
    errors = []

    def session(flag):
        try:
            while not stop.is_set():
                got = run(engine, sql, (flag,))
                if got != expected[flag]:
                    errors.append((flag, got))
                    return
        except BaseException as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=session, args=(flag,)) for flag in (0, 1)]
    for thread in threads:
        thread.start()
    try:
        for n in range(30):
            for suffix in ("", "_shadow"):
                sources[node.data_source + suffix].execute(
                    f"CREATE INDEX idx_v{n} ON {node.table} (v)")
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        engine.close()
    assert errors == []
    assert sources[node.data_source].database.schema_epoch >= 30
