"""Vectorized batch execution, fused pipelining and work-stealing fan-out.

Three suites attacking the execute stage from different angles:

- differential: every statement runs on twin data sources — compiled
  plans over 256-row chunks, and the reference interpreter in
  ``tests/oracle`` — and must agree; one fixed 800-row dataset carries the
  statement table across the chunk seams at 256 and 512.
- pipelining: ``execute_pipeline`` at the storage, engine and adaptor
  layers keeps serial-equivalent semantics (mid-batch errors, rollback)
  while coalescing write-I/O per written table.
- fan-out: the work-stealing scheduler completes skewed routes with
  steals observed, shuts down cleanly, and honours statement deadlines
  while waiting on an exhausted pool.
"""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import ExecutionEngine
from repro.engine.resilience import ResiliencePolicy
from repro.exceptions import (
    DeadlineExceededError,
    ExecutionError,
    UnsupportedSQLError,
)
from repro.sharding import ShardingRule, build_auto_table_rule
from repro.sql import parse
from repro.storage import DataSource, LatencyModel
from repro.storage.plans import BATCH_ROWS

from .test_storage_plans import (
    DIFF_SETTINGS,
    assert_twins_agree,
    assert_unordered_limit_agrees,
    limit_s,
    make_twins,
    order_s,
    rows_s,
    run_pair,
    select_items_s,
    where_s,
)

# ---------------------------------------------------------------------------
# Differential: batched chunks == oracle
# ---------------------------------------------------------------------------


class TestDifferentialBatchRows:
    @DIFF_SETTINGS
    @given(rows=rows_s, items=select_items_s, where=where_s, order=order_s, limit=limit_s)
    def test_select_matches_row_path_and_interpreter(self, rows, items, where, order, limit):
        twins = make_twins(rows)
        cond, params = where
        if limit and not order:
            assert_unordered_limit_agrees(
                twins, f"SELECT {items} FROM t {cond}".strip(), limit, params)
        else:
            sql = f"SELECT {items} FROM t {cond} {order} {limit}".strip()
            assert_twins_agree(twins, sql, params)

    @DIFF_SETTINGS
    @given(rows=rows_s, where=where_s)
    def test_aggregates_and_joins_match(self, rows, where):
        twins = make_twins(rows)
        cond, params = where
        assert_twins_agree(
            twins,
            "SELECT grp, COUNT(*) AS c, SUM(val) AS s, AVG(val) AS av "
            f"FROM t {cond} GROUP BY grp ORDER BY grp",
            params,
        )
        assert_twins_agree(
            twins,
            "SELECT t.id, u.uid, u.tag FROM t JOIN u ON t.grp = u.grp "
            "ORDER BY t.id, u.uid",
        )

    @DIFF_SETTINGS
    @given(
        rows=rows_s,
        where=where_s,
        setter=st.sampled_from(
            [
                ("SET val = val + 1", ()),
                ("SET flag = 1 - flag", ()),
                ("SET val = ?, name = ?", (9.5, "bound")),
            ]
        ),
    )
    def test_update_delete_match(self, rows, where, setter):
        twins = make_twins(rows)
        assignment, set_params = setter
        cond, where_params = where
        outs = run_pair(twins, f"UPDATE t {assignment} {cond}".strip(),
                        tuple(set_params) + tuple(where_params))
        assert outs[0][1] == outs[1][1]
        outs = run_pair(twins, f"DELETE FROM t {cond}".strip(), where_params)
        assert outs[0][1] == outs[1][1]
        state = run_pair(twins, "SELECT * FROM t ORDER BY id")
        assert state[0] == state[1]

    @DIFF_SETTINGS
    @given(rows=rows_s)
    def test_executemany_insert_matches(self, rows):
        """Multi-row INSERT through one batched compiled-plan invocation."""
        twins = make_twins(rows)  # loads ``rows`` with one executemany
        state = run_pair(twins, "SELECT * FROM t ORDER BY id")
        assert state[0] == state[1]
        assert state[0][0] == sorted(rows)


# A fixed dataset wide enough that every pipeline stage sees three chunks:
# ids 0..799 with NULLs in every nullable column and repeated group keys.
SEAM_ROWS = [
    (i, None if i % 11 == 0 else i % 7, None if i % 13 == 0 else (i * 37 % 101) - 50.0,
     None if i % 17 == 0 else ("ann", "bo", "che", "dee")[i % 4], i % 2)
    for i in range(800)
]

SEAM_SELECTS = [
    "SELECT id, val FROM t ORDER BY val DESC, id LIMIT 10 OFFSET 250",
    "SELECT id FROM t WHERE flag = 1 ORDER BY name, id LIMIT 300 OFFSET 200",
    "SELECT * FROM t WHERE id BETWEEN 100 AND 650 ORDER BY id DESC LIMIT 520",
    "SELECT id, name FROM t ORDER BY id LIMIT 5 OFFSET 510",  # index order, no sort stage
    "SELECT DISTINCT grp, flag FROM t ORDER BY grp, flag",
    "SELECT DISTINCT name FROM t WHERE id > 255 ORDER BY name",
    "SELECT grp, COUNT(*) AS c, SUM(val) AS s, MIN(val) AS mn, MAX(name) AS mx "
    "FROM t GROUP BY grp HAVING COUNT(*) > 90 ORDER BY grp",
    "SELECT flag, AVG(val) AS av FROM t WHERE id >= 256 GROUP BY flag "
    "HAVING AVG(val) IS NOT NULL ORDER BY flag",
    "SELECT t.id, u.uid, u.tag FROM t JOIN u ON t.grp = u.grp ORDER BY t.id, u.uid",
    "SELECT t.id, u.uid FROM t LEFT JOIN u ON t.grp = u.grp AND u.uid > 1 "
    "ORDER BY t.id, u.uid",
    "SELECT u.grp, COUNT(*) AS c FROM t JOIN u ON t.grp < u.grp "
    "GROUP BY u.grp ORDER BY u.grp",
]

SEAM_WRITES = [
    ("UPDATE t SET val = val + 1, flag = 1 - flag WHERE id BETWEEN 200 AND 600", ()),
    ("UPDATE t SET name = ? WHERE id >= ? AND grp IS NOT NULL", ("seam", 255)),
    ("DELETE FROM t WHERE val < ?", (0,)),
    ("DELETE FROM t WHERE id > 50 AND id < 790", ()),
]


class TestChunkSeams:
    @pytest.fixture(scope="class")
    def seam_twins(self):
        assert len(SEAM_ROWS) > 2 * BATCH_ROWS
        return make_twins(SEAM_ROWS)

    @pytest.mark.parametrize("sql", SEAM_SELECTS)
    def test_select_across_seams(self, seam_twins, sql):
        assert_twins_agree(seam_twins, sql)

    def test_writes_by_range_across_seams(self):
        twins = make_twins(SEAM_ROWS)
        for sql, params in SEAM_WRITES:
            outs = run_pair(twins, sql, params)
            assert outs[0][1] == outs[1][1] > BATCH_ROWS, sql
            state = run_pair(twins, "SELECT * FROM t ORDER BY id")
            assert state[0] == state[1], sql


# ---------------------------------------------------------------------------
# Fused pipelining: storage layer
# ---------------------------------------------------------------------------


WRITE_IO = 0.02


@pytest.fixture
def slow_write_source():
    ds = DataSource("slow", latency=LatencyModel(write_io=WRITE_IO))
    ds.execute("CREATE TABLE acc (id INT PRIMARY KEY, bal INT)")
    ds.execute("INSERT INTO acc (id, bal) VALUES (1, 100), (2, 100), (3, 100), (4, 100)")
    return ds


class TestStoragePipeline:
    def test_per_statement_results(self, slow_write_source):
        conn = slow_write_source.connect()
        results = conn.execute_pipeline([
            ("UPDATE acc SET bal = bal - 10 WHERE id = 1", ()),
            ("SELECT bal FROM acc WHERE id = 1", ()),
            ("UPDATE acc SET bal = bal + 10 WHERE id = 2", ()),
        ])
        assert results[0].rowcount == 1
        assert list(results[1].rows) == [(90,)]
        assert results[2].rowcount == 1

    def test_write_io_coalesced_per_table(self, slow_write_source):
        """Four same-table writes pay the write-I/O slice once, not four
        times — the group-commit analog."""
        conn = slow_write_source.connect()
        writes = [(f"UPDATE acc SET bal = bal + 1 WHERE id = {i}", ()) for i in (1, 2, 3, 4)]
        start = time.monotonic()
        conn.execute_pipeline(writes)
        pipelined = time.monotonic() - start
        start = time.monotonic()
        for sql, params in writes:
            conn.execute(sql, params)
        serial = time.monotonic() - start
        assert serial >= 4 * WRITE_IO
        assert pipelined < 3 * WRITE_IO  # 1 coalesced slice + slack, not 4

    def test_mid_batch_error_keeps_earlier_effects(self, slow_write_source):
        """Serial equivalence: a failing statement propagates after the
        effects (and costs) of earlier statements have landed."""
        conn = slow_write_source.connect()
        with pytest.raises(Exception):
            conn.execute_pipeline([
                ("UPDATE acc SET bal = 0 WHERE id = 1", ()),
                ("UPDATE no_such_table SET x = 1", ()),
                ("UPDATE acc SET bal = 0 WHERE id = 2", ()),
            ])
        rows = conn.execute("SELECT id, bal FROM acc ORDER BY id", ()).fetchall()
        assert rows[0] == (1, 0)      # first statement applied
        assert rows[1] == (2, 100)    # statement after the error never ran

    def test_transaction_control_inside_batch(self, slow_write_source):
        conn = slow_write_source.connect()
        conn.execute_pipeline([
            ("BEGIN", ()),
            ("UPDATE acc SET bal = 55 WHERE id = 3", ()),
            ("ROLLBACK", ()),
        ])
        rows = conn.execute("SELECT bal FROM acc WHERE id = 3", ()).fetchall()
        assert rows == [(100,)]


# ---------------------------------------------------------------------------
# Fused pipelining: engine + adaptor layers
# ---------------------------------------------------------------------------


@pytest.fixture
def jdbc_connection(fleet, paper_rule):
    from repro.adaptors import ShardingDataSource, ShardingRuntime

    runtime = ShardingRuntime(fleet, paper_rule, max_connections_per_query=2)
    conn = ShardingDataSource(runtime).get_connection()
    conn.execute(
        "INSERT INTO t_user (uid, name, age) VALUES (1, 'alice', 30), (2, 'bob', 25)"
    )
    yield conn
    conn.close()
    runtime.close()


class TestEnginePipeline:
    def test_batch_results_in_order(self, jdbc_connection):
        results = jdbc_connection.execute_pipeline([
            ("UPDATE t_user SET age = 31 WHERE uid = 1", ()),
            ("SELECT name, age FROM t_user WHERE uid = 1", ()),
            ("INSERT INTO t_order (oid, uid, amount) VALUES (?, ?, ?)", (10, 1, 5.0)),
            ("SELECT amount FROM t_order WHERE uid = 1", ()),
        ])
        assert results[0].rowcount == 1
        assert results[1].fetchall() == [("alice", 31)]
        assert results[2].rowcount == 1
        assert results[3].fetchall() == [(5.0,)]

    def test_multi_unit_statement_splits_batch(self, jdbc_connection):
        """A broadcast read inside the batch flushes and fans out, then
        pipelining resumes; results stay positional."""
        results = jdbc_connection.execute_pipeline([
            ("UPDATE t_user SET age = 40 WHERE uid = 1", ()),
            ("SELECT COUNT(*) FROM t_user", ()),
            ("SELECT age FROM t_user WHERE uid = 1", ()),
        ])
        assert results[0].rowcount == 1
        assert results[1].fetchall() == [(2,)]
        assert results[2].fetchall() == [(40,)]

    def test_transaction_rollback_undoes_pipelined_writes(self, jdbc_connection):
        jdbc_connection.begin()
        results = jdbc_connection.execute_pipeline([
            ("UPDATE t_user SET age = 99 WHERE uid = 1", ()),
            ("SELECT age FROM t_user WHERE uid = 1", ()),
        ])
        assert results[1].fetchall() == [(99,)]  # reads its own write
        jdbc_connection.rollback()
        rows = jdbc_connection.execute("SELECT age FROM t_user WHERE uid = 1").fetchall()
        assert rows == [(30,)]

    def test_control_statements_rejected(self, jdbc_connection):
        for sql in ("BEGIN", "COMMIT", "SET sql_show = true", "SHOW TABLES"):
            with pytest.raises(UnsupportedSQLError):
                jdbc_connection.execute_pipeline([(sql, ())])

    def test_hints_apply_to_pipelined_statements(self, fleet):
        """Under ``conn.hint(1)`` a hint-sharded table reads one shard
        through either entry point (the pipeline used to read both)."""
        from repro.adaptors import ShardingDataSource, ShardingRuntime
        from repro.sharding import (
            DataNode, HintShardingStrategy, ShardingRule, TableRule, create_algorithm)

        rule = ShardingRule([TableRule(
            "t_user",
            [DataNode("ds0", "t_user_h0"), DataNode("ds1", "t_user_h1")],
            database_strategy=HintShardingStrategy(
                create_algorithm("MOD", {"sharding-count": 2})),
        )])
        fleet["ds0"].execute("INSERT INTO t_user_h0 (uid, name, age) VALUES (2, 'bob', 25)")
        fleet["ds1"].execute("INSERT INTO t_user_h1 (uid, name, age) VALUES (1, 'alice', 30)")
        runtime = ShardingRuntime(fleet, rule)
        conn = ShardingDataSource(runtime).get_connection()
        sql = "SELECT name FROM t_user ORDER BY name"
        with conn.hint(1):
            single = conn.execute(sql)
            (piped,) = conn.execute_pipeline([(sql, ())])
        for result in (single, piped):
            assert result.fetchall() == [("alice",)]
            assert result.diagnostics.unit_count == 1
            assert result.diagnostics.route_type == "standard"
        (unhinted,) = conn.execute_pipeline([(sql, ())])
        assert unhinted.fetchall() == [("alice",), ("bob",)]
        conn.close()
        runtime.close()

    def test_pipeline_metrics_counted(self, jdbc_connection):
        engine = jdbc_connection.runtime.engine
        before = engine.executor.metrics.snapshot()
        jdbc_connection.execute_pipeline([
            ("UPDATE t_user SET age = 26 WHERE uid = 2", ()),
            ("SELECT age FROM t_user WHERE uid = 2", ()),
        ])
        after = engine.executor.metrics.snapshot()
        assert after["pipeline_batches"] == before["pipeline_batches"] + 1
        assert after["pipelined_statements"] == before["pipelined_statements"] + 2


# ---------------------------------------------------------------------------
# Work-stealing fan-out
# ---------------------------------------------------------------------------


SHARDS = 24


@pytest.fixture
def skewed_fleet():
    """One source holding every shard: all fan-out tasks seed onto one
    worker deque (source affinity), so idle workers must steal."""
    ds = DataSource("ds0", pool_size=SHARDS + 4)
    for i in range(SHARDS):
        ds.execute(f"CREATE TABLE t_big_{i} (id INT PRIMARY KEY, v INT)")
        ds.execute(f"INSERT INTO t_big_{i} (id, v) VALUES ({i}, {i * 10})")
    rule = build_auto_table_rule(
        "t_big", ["ds0"], sharding_column="id", algorithm_type="MOD",
        properties={"sharding-count": SHARDS},
    )
    return {"ds0": ds}, ShardingRule([rule], default_data_source="ds0")


def broadcast_units(rule, sql):
    from repro.engine import build_context, rewrite, route

    context = build_context(parse(sql), sql, (), rule)
    return rewrite(context, route(context, rule)).execution_units


class TestWorkStealing:
    def test_skewed_route_steals_and_completes(self, skewed_fleet):
        """Stealing serves the units that block while they wait — here the
        24 single-shard UPDATEs of a broadcast write, each holding its
        connection through a priced write and commit."""
        sources, rule = skewed_fleet
        sources["ds0"].database.latency = LatencyModel(write_io=2e-4, commit_io=2e-4)
        engine = ExecutionEngine(sources, max_connections_per_query=SHARDS)
        units = broadcast_units(rule, "UPDATE t_big SET v = v + 1")
        assert len(units) == SHARDS
        result = engine.execute(units, is_query=False)
        assert result.update_count == SHARDS
        snap = engine.metrics.snapshot()
        assert snap["queued_tasks"] == SHARDS
        assert snap["steals"] > 0
        assert snap["stolen_tasks"] > 0
        assert sources["ds0"].pool.in_use == 0
        engine.close()

    def test_read_fanout_queues_nothing_and_starts_no_thread(self, skewed_fleet):
        """The mirror: the same 24 shards *read* are issued by the caller and
        awaited together — no task, no steal, no pool thread."""
        sources, rule = skewed_fleet
        sources["ds0"].database.latency = LatencyModel()
        engine = ExecutionEngine(sources, max_connections_per_query=SHARDS)
        units = broadcast_units(rule, "SELECT * FROM t_big")
        assert len(units) == SHARDS
        result = engine.execute(units, is_query=True)
        rows = sorted(row for shard in result.results for row in shard)
        assert rows == [(i, i * 10) for i in range(SHARDS)]
        snap = engine.metrics.snapshot()
        assert (snap["queued_tasks"], snap["steals"], snap["stolen_tasks"]) == (0, 0, 0)
        assert not engine._pool._threads
        assert snap["memory_strictly"] == 1 and snap["statements"] == SHARDS
        result.release()
        assert sources["ds0"].pool.in_use == 0
        engine.close()

    def test_row_results_preserve_unit_order(self, skewed_fleet):
        """Connection-strictly fan-out (θ > 1) under stealing still
        reports every shard exactly once."""
        sources, rule = skewed_fleet
        engine = ExecutionEngine(sources, max_connections_per_query=4)
        units = broadcast_units(rule, "SELECT * FROM t_big")
        result = engine.execute(units, is_query=True)
        rows = sorted(row for shard in result.results for row in shard)
        assert rows == [(i, i * 10) for i in range(SHARDS)]
        engine.close()


class TestCloseSemantics:
    def test_close_is_idempotent(self, skewed_fleet):
        sources, _rule = skewed_fleet
        engine = ExecutionEngine(sources)
        engine.close()
        engine.close()  # second close is a no-op, not an error

    def test_execute_rejected_after_close(self, skewed_fleet):
        sources, rule = skewed_fleet
        engine = ExecutionEngine(sources, max_connections_per_query=SHARDS)
        units = broadcast_units(rule, "SELECT * FROM t_big")
        engine.close()
        with pytest.raises(ExecutionError, match="closed"):
            engine.execute(units, is_query=True)
        with pytest.raises(ExecutionError, match="closed"):
            engine.execute_pipeline("ds0", [(parse("SELECT 1"), (), True)])

    def test_acquire_batch_capped_by_statement_deadline(self, skewed_fleet):
        """An exhausted pool fails a deadlined statement promptly with
        DeadlineExceededError, not after the 10 s acquire default."""
        sources, rule = skewed_fleet
        ds = DataSource("tiny", pool_size=1)
        ds.execute("CREATE TABLE t_big_0 (id INT PRIMARY KEY, v INT)")
        engine = ExecutionEngine(
            {"ds0": ds},
            resilience=ResiliencePolicy(statement_timeout=0.2, max_retries=0),
        )
        hog = ds.pool.acquire()  # exhaust the pool
        units = broadcast_units(
            ShardingRule([build_auto_table_rule(
                "t_big", ["ds0"], sharding_column="id", algorithm_type="MOD",
                properties={"sharding-count": 1},
            )], default_data_source="ds0"),
            "SELECT * FROM t_big",
        )
        start = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            engine.execute(units, is_query=True)
        assert time.monotonic() - start < 5.0
        ds.pool.release(hog)
        engine.close()
