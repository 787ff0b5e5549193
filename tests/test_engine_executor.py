"""Tests for the automatic execution engine (connection modes, θ rule)."""

import threading

import pytest

from repro.engine import ConnectionMode, ExecutionEngine, build_context, rewrite, route
from repro.sql import parse
from repro.storage import DataSource


def units_for(sql, rule, params=()):
    context = build_context(parse(sql), sql, params, rule)
    route_result = route(context, rule)
    return rewrite(context, route_result).execution_units


@pytest.fixture
def wide_fleet():
    """One data source with 10 shard tables of t_big (forces fan-out)."""
    ds = DataSource("ds0", pool_size=16)
    for i in range(10):
        ds.execute(f"CREATE TABLE t_big_{i} (id INT PRIMARY KEY, v INT)")
        ds.execute(f"INSERT INTO t_big_{i} (id, v) VALUES ({i}, {i * 10})")
    return {"ds0": ds}


@pytest.fixture
def wide_rule():
    from repro.sharding import ShardingRule, build_auto_table_rule

    rule = build_auto_table_rule(
        "t_big", ["ds0"], sharding_column="id", algorithm_type="MOD",
        properties={"sharding-count": 10},
    )
    return ShardingRule([rule], default_data_source="ds0")


class TestModeSelection:
    def test_theta_greater_one_forces_connection_strictly(self, wide_fleet, wide_rule):
        engine = ExecutionEngine(wide_fleet, max_connections_per_query=2)
        units = units_for("SELECT * FROM t_big", wide_rule)
        assert len(units) == 10
        result = engine.execute(units, is_query=True)
        assert result.modes["ds0"] is ConnectionMode.CONNECTION_STRICTLY
        rows = [row for shard in result.results for row in shard]
        assert len(rows) == 10
        engine.close()

    def test_theta_one_uses_memory_strictly(self, wide_fleet, wide_rule):
        engine = ExecutionEngine(wide_fleet, max_connections_per_query=10)
        units = units_for("SELECT * FROM t_big", wide_rule)
        result = engine.execute(units, is_query=True)
        assert result.modes["ds0"] is ConnectionMode.MEMORY_STRICTLY
        rows = [row for shard in result.results for row in shard]
        assert len(rows) == 10
        engine.close()

    def test_single_unit_memory_strictly(self, wide_fleet, wide_rule):
        engine = ExecutionEngine(wide_fleet, max_connections_per_query=1)
        units = units_for("SELECT * FROM t_big WHERE id = 3", wide_rule)
        result = engine.execute(units, is_query=True)
        assert result.modes["ds0"] is ConnectionMode.MEMORY_STRICTLY
        engine.close()

    def test_metrics_count_modes(self, wide_fleet, wide_rule):
        engine = ExecutionEngine(wide_fleet, max_connections_per_query=1)
        engine.execute(units_for("SELECT * FROM t_big", wide_rule), is_query=True)
        engine.execute(units_for("SELECT * FROM t_big WHERE id = 1", wide_rule), is_query=True)
        snap = engine.metrics.snapshot()
        assert snap["connection_strictly"] == 1
        assert snap["memory_strictly"] == 1
        assert snap["statements"] == 11
        engine.close()


class TestConnectionHandling:
    def test_memory_strictly_releases_after_consumption(self, wide_fleet, wide_rule):
        """The ten memory-strictly connections are back when ``execute``
        returns; the lazy cursors are read afterwards without them."""
        ds = wide_fleet["ds0"]
        engine = ExecutionEngine(wide_fleet, max_connections_per_query=10)
        units = units_for("SELECT * FROM t_big", wide_rule)
        result = engine.execute(units, is_query=True)
        assert ds.pool.in_use == 0
        assert sum(1 for shard in result.results for _ in shard) == 10
        engine.close()

    def test_connection_strictly_releases_immediately(self, wide_fleet, wide_rule):
        ds = wide_fleet["ds0"]
        engine = ExecutionEngine(wide_fleet, max_connections_per_query=2)
        result = engine.execute(units_for("SELECT * FROM t_big", wide_rule), is_query=True)
        assert ds.pool.in_use == 0
        engine.close()

    def test_dml_counts_and_releases(self, wide_fleet, wide_rule):
        engine = ExecutionEngine(wide_fleet, max_connections_per_query=4)
        units = units_for(
            "INSERT INTO t_big (id, v) VALUES (100, 1), (101, 1), (102, 1)", wide_rule
        )
        result = engine.execute(units, is_query=False)
        assert result.update_count == 3
        assert wide_fleet["ds0"].pool.in_use == 0
        engine.close()

    def test_pinned_connection_used_for_transactions(self, wide_fleet, wide_rule):
        ds = wide_fleet["ds0"]
        engine = ExecutionEngine(wide_fleet, max_connections_per_query=10)
        pinned = ds.connect()
        pinned.begin()
        units = units_for("INSERT INTO t_big (id, v) VALUES (200, 1)", wide_rule)
        engine.execute(units, is_query=False, held_connections={"ds0": pinned})
        # nothing visible yet from another connection... rollback and check
        pinned.rollback()
        ds.release(pinned)
        assert ds.execute("SELECT COUNT(*) FROM t_big_0 WHERE id = 200") == [(0,)]
        engine.close()

    def test_error_propagates_and_releases(self, wide_fleet, wide_rule):
        engine = ExecutionEngine(wide_fleet, max_connections_per_query=10)
        wide_fleet["ds0"].database.fail_next("statement", times=10)
        with pytest.raises(Exception):
            engine.execute(units_for("SELECT * FROM t_big", wide_rule), is_query=True)
        assert wide_fleet["ds0"].pool.in_use == 0
        engine.close()


class TestParallelism:
    def test_memory_strictly_overlaps_latency(self, fake):
        """10 routed SQLs at 2ms each: issued together, the statement waits
        until the last of 10 windows on four I/O channels ends (3 rounds);
        one connection runs them one after the other — ten windows end to
        end on one lane, still awaited with one sleep."""
        from repro.sharding import ShardingRule, build_auto_table_rule
        from repro.storage import LatencyModel

        latency = LatencyModel(base=2e-3, index_io=0, row_cost=0, commit_io=0)
        ds = DataSource("ds0", latency=latency, pool_size=16)
        for i in range(10):
            ds.execute(f"CREATE TABLE t_big_{i} (id INT PRIMARY KEY, v INT)")
        rule = ShardingRule(
            [build_auto_table_rule("t_big", ["ds0"], sharding_column="id",
                                   algorithm_type="MOD", properties={"sharding-count": 10})],
            default_data_source="ds0",
        )
        units = units_for("SELECT * FROM t_big", rule)

        parallel_engine = ExecutionEngine({"ds0": ds}, max_connections_per_query=10)
        fake.sleeps.clear()
        parallel_engine.execute(units, is_query=True)
        assert fake.slept == pytest.approx(3 * 2e-3)
        parallel_engine.close()

        serial_engine = ExecutionEngine({"ds0": ds}, max_connections_per_query=1)
        fake.sleeps.clear()
        serial_engine.execute(units, is_query=True)
        assert fake.sleeps == [pytest.approx(10 * 2e-3)]
        serial_engine.close()

    def test_atomic_acquisition_avoids_deadlock(self):
        """Two concurrent queries each needing 2 of 2 pool connections must
        both complete (no partial-acquisition deadlock)."""
        ds = DataSource("ds0", pool_size=2)
        for i in range(2):
            ds.execute(f"CREATE TABLE t2_{i} (id INT PRIMARY KEY)")
        from repro.sharding import ShardingRule, build_auto_table_rule

        rule = ShardingRule(
            [build_auto_table_rule("t2", ["ds0"], sharding_column="id",
                                   algorithm_type="MOD", properties={"sharding-count": 2})],
            default_data_source="ds0",
        )
        engine = ExecutionEngine({"ds0": ds}, max_connections_per_query=2)
        units = units_for("SELECT * FROM t2", rule)
        errors = []

        def worker():
            try:
                for _ in range(20):
                    engine.execute(units, is_query=True)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert not any(t.is_alive() for t in threads)
        engine.close()
