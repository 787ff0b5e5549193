"""Integration tests for the embedded storage engine via connections."""

import threading

import pytest

from repro.exceptions import (
    ConnectionClosedError,
    ConnectionPoolExhaustedError,
    DuplicateKeyError,
    ExecutionError,
    TableAlreadyExistsError,
    TableNotFoundError,
    TransactionError,
)
from repro.storage import DataSource


@pytest.fixture
def ds():
    source = DataSource("ds_test")
    conn = source.connect()
    conn.execute("CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(64), age INT)")
    conn.execute(
        "INSERT INTO t_user (uid, name, age) VALUES "
        "(1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35), (4, 'dave', 25)"
    )
    source.release(conn)
    return source


class TestSelect:
    def test_point_select_uses_pk(self, ds):
        rows = ds.execute("SELECT name FROM t_user WHERE uid = 2")
        assert rows == [("bob",)]

    def test_in_select(self, ds):
        rows = ds.execute("SELECT uid FROM t_user WHERE uid IN (1, 3) ORDER BY uid")
        assert rows == [(1,), (3,)]

    def test_between_select(self, ds):
        rows = ds.execute("SELECT uid FROM t_user WHERE uid BETWEEN 2 AND 3 ORDER BY uid")
        assert rows == [(2,), (3,)]

    def test_range_comparison(self, ds):
        rows = ds.execute("SELECT uid FROM t_user WHERE uid > 2 ORDER BY uid")
        assert rows == [(3,), (4,)]

    def test_non_indexed_filter_scans(self, ds):
        rows = ds.execute("SELECT name FROM t_user WHERE age = 25 ORDER BY name")
        assert rows == [("bob",), ("dave",)]

    def test_order_by_desc(self, ds):
        rows = ds.execute("SELECT uid FROM t_user ORDER BY age DESC, uid")
        assert rows == [(3,), (1,), (2,), (4,)]

    def test_limit_offset(self, ds):
        rows = ds.execute("SELECT uid FROM t_user ORDER BY uid LIMIT 2 OFFSET 1")
        assert rows == [(2,), (3,)]

    def test_projection_expression(self, ds):
        rows = ds.execute("SELECT age * 2 FROM t_user WHERE uid = 1")
        assert rows == [(60,)]

    def test_alias_in_order_by(self, ds):
        rows = ds.execute("SELECT age AS a FROM t_user ORDER BY a LIMIT 1")
        assert rows == [(25,)]

    def test_like(self, ds):
        rows = ds.execute("SELECT name FROM t_user WHERE name LIKE '%a%' ORDER BY name")
        assert rows == [("alice",), ("carol",), ("dave",)]

    def test_distinct(self, ds):
        rows = ds.execute("SELECT DISTINCT age FROM t_user ORDER BY age")
        assert rows == [(25,), (30,), (35,)]

    def test_distinct_is_over_the_output_row(self, ds):
        # bob and dave are both 25: the joined rows differ, the output does not
        ds.execute("CREATE TABLE ages (age INT PRIMARY KEY, label VARCHAR(8))")
        ds.execute("INSERT INTO ages (age, label) VALUES (25, 'young'), (30, 'mid')")
        rows = ds.execute(
            "SELECT DISTINCT a.* FROM t_user u JOIN ages a ON u.age = a.age ORDER BY a.age")
        assert rows == [(25, "young"), (30, "mid")]

    def test_select_star_column_order(self, ds):
        conn = ds.connect()
        cur = conn.execute("SELECT * FROM t_user WHERE uid = 1")
        assert cur.columns == ["uid", "name", "age"]
        ds.release(conn)

    def test_count_star(self, ds):
        assert ds.execute("SELECT COUNT(*) FROM t_user") == [(4,)]

    def test_aggregates(self, ds):
        rows = ds.execute("SELECT MIN(age), MAX(age), SUM(age), AVG(age) FROM t_user")
        assert rows == [(25, 35, 115, 28.75)]

    def test_aggregate_empty_input(self, ds):
        rows = ds.execute("SELECT COUNT(*), SUM(age) FROM t_user WHERE uid = 999")
        assert rows == [(0, None)]

    def test_group_by(self, ds):
        rows = ds.execute(
            "SELECT age, COUNT(*) FROM t_user GROUP BY age ORDER BY age"
        )
        assert rows == [(25, 2), (30, 1), (35, 1)]

    def test_group_by_having(self, ds):
        rows = ds.execute(
            "SELECT age, COUNT(*) FROM t_user GROUP BY age HAVING COUNT(*) > 1"
        )
        assert rows == [(25, 2)]

    def test_placeholders(self, ds):
        conn = ds.connect()
        cur = conn.execute("SELECT name FROM t_user WHERE uid = ?", (3,))
        assert cur.fetchall() == [("carol",)]
        ds.release(conn)

    def test_null_semantics_where(self, ds):
        conn = ds.connect()
        conn.execute("INSERT INTO t_user (uid, name, age) VALUES (9, 'nil', NULL)")
        # NULL never matches comparisons...
        assert conn.execute("SELECT uid FROM t_user WHERE age <> 25 ORDER BY uid").fetchall() == [(1,), (3,)]
        # ...but IS NULL finds it.
        assert conn.execute("SELECT uid FROM t_user WHERE age IS NULL").fetchall() == [(9,)]
        ds.release(conn)


class TestJoins:
    @pytest.fixture
    def ds2(self, ds):
        conn = ds.connect()
        conn.execute("CREATE TABLE t_order (oid INT PRIMARY KEY, uid INT, amount FLOAT)")
        conn.execute(
            "INSERT INTO t_order (oid, uid, amount) VALUES "
            "(10, 1, 5.0), (11, 1, 7.5), (12, 2, 3.0), (13, 99, 1.0)"
        )
        ds.release(conn)
        return ds

    def test_inner_join(self, ds2):
        rows = ds2.execute(
            "SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid "
            "ORDER BY o.amount"
        )
        assert rows == [("bob", 3.0), ("alice", 5.0), ("alice", 7.5)]

    def test_left_join_produces_nulls(self, ds2):
        rows = ds2.execute(
            "SELECT u.name, o.oid FROM t_user u LEFT JOIN t_order o ON u.uid = o.uid "
            "WHERE o.oid IS NULL ORDER BY u.name"
        )
        assert rows == [("carol", None), ("dave", None)]

    def test_join_with_group_by(self, ds2):
        rows = ds2.execute(
            "SELECT u.name, SUM(o.amount) FROM t_user u JOIN t_order o ON u.uid = o.uid "
            "GROUP BY u.name ORDER BY u.name"
        )
        assert rows == [("alice", 12.5), ("bob", 3.0)]

    def test_cross_join_count(self, ds2):
        rows = ds2.execute("SELECT COUNT(*) FROM t_user CROSS JOIN t_order")
        assert rows == [(16,)]

    def test_join_filter_on_left_table(self, ds2):
        rows = ds2.execute(
            "SELECT o.oid FROM t_user u JOIN t_order o ON u.uid = o.uid "
            "WHERE u.uid = 1 ORDER BY o.oid"
        )
        assert rows == [(10,), (11,)]


class TestDML:
    def test_insert_rowcount(self, ds):
        conn = ds.connect()
        cur = conn.execute("INSERT INTO t_user (uid, name, age) VALUES (5, 'eve', 20), (6, 'frank', 21)")
        assert cur.rowcount == 2
        ds.release(conn)

    def test_duplicate_pk_rejected(self, ds):
        conn = ds.connect()
        with pytest.raises(DuplicateKeyError):
            conn.execute("INSERT INTO t_user (uid, name, age) VALUES (1, 'dup', 1)")
        # Table unchanged after the failed autocommit statement.
        assert conn.execute("SELECT COUNT(*) FROM t_user").fetchall() == [(4,)]
        ds.release(conn)

    def test_update_with_expression(self, ds):
        conn = ds.connect()
        cur = conn.execute("UPDATE t_user SET age = age + 1 WHERE age = 25")
        assert cur.rowcount == 2
        assert conn.execute("SELECT COUNT(*) FROM t_user WHERE age = 26").fetchall() == [(2,)]
        ds.release(conn)

    def test_update_pk_reindexes(self, ds):
        conn = ds.connect()
        conn.execute("UPDATE t_user SET uid = 100 WHERE uid = 1")
        assert conn.execute("SELECT name FROM t_user WHERE uid = 100").fetchall() == [("alice",)]
        assert conn.execute("SELECT COUNT(*) FROM t_user WHERE uid = 1").fetchall() == [(0,)]
        ds.release(conn)

    def test_delete(self, ds):
        conn = ds.connect()
        cur = conn.execute("DELETE FROM t_user WHERE age = 25")
        assert cur.rowcount == 2
        assert conn.execute("SELECT COUNT(*) FROM t_user").fetchall() == [(2,)]
        ds.release(conn)

    def test_auto_increment(self, ds):
        conn = ds.connect()
        conn.execute("CREATE TABLE seq_t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)")
        conn.execute("INSERT INTO seq_t (v) VALUES (10)")
        conn.execute("INSERT INTO seq_t (v) VALUES (20)")
        rows = conn.execute("SELECT id, v FROM seq_t ORDER BY id").fetchall()
        assert rows == [(1, 10), (2, 20)]
        ds.release(conn)

    def test_truncate(self, ds):
        conn = ds.connect()
        cur = conn.execute("TRUNCATE TABLE t_user")
        assert cur.rowcount == 4
        assert conn.execute("SELECT COUNT(*) FROM t_user").fetchall() == [(0,)]
        ds.release(conn)


class TestDDL:
    def test_create_duplicate_rejected(self, ds):
        conn = ds.connect()
        with pytest.raises(TableAlreadyExistsError):
            conn.execute("CREATE TABLE t_user (x INT)")
        conn.execute("CREATE TABLE IF NOT EXISTS t_user (x INT)")  # tolerated
        ds.release(conn)

    def test_drop_missing_table(self, ds):
        conn = ds.connect()
        with pytest.raises(TableNotFoundError):
            conn.execute("DROP TABLE nope")
        conn.execute("DROP TABLE IF EXISTS nope")
        ds.release(conn)

    def test_secondary_index_supports_lookup(self, ds):
        conn = ds.connect()
        conn.execute("CREATE INDEX idx_age ON t_user (age)")
        table = ds.database.table("t_user")
        assert "age" in table.indexed_columns()
        assert conn.execute("SELECT COUNT(*) FROM t_user WHERE age = 25").fetchall() == [(2,)]
        ds.release(conn)


class TestTransactions:
    def test_commit_persists(self, ds):
        conn = ds.connect()
        conn.begin()
        conn.execute("UPDATE t_user SET age = 99 WHERE uid = 1")
        conn.commit()
        assert ds.execute("SELECT age FROM t_user WHERE uid = 1") == [(99,)]
        ds.release(conn)

    def test_rollback_restores_all_mutation_kinds(self, ds):
        conn = ds.connect()
        conn.begin()
        conn.execute("INSERT INTO t_user (uid, name, age) VALUES (7, 'gus', 40)")
        conn.execute("UPDATE t_user SET age = 0 WHERE uid = 1")
        conn.execute("DELETE FROM t_user WHERE uid = 2")
        conn.rollback()
        rows = dict(
            (uid, age) for uid, age in ds.execute("SELECT uid, age FROM t_user")
        )
        assert rows == {1: 30, 2: 25, 3: 35, 4: 25}
        ds.release(conn)

    def test_nested_begin_rejected(self, ds):
        conn = ds.connect()
        conn.begin()
        with pytest.raises(TransactionError):
            conn.begin()
        conn.rollback()
        ds.release(conn)

    def test_close_rolls_back_open_transaction(self, ds):
        conn = ds.connect_raw()
        conn.begin()
        conn.execute("DELETE FROM t_user")
        conn.close()
        assert ds.execute("SELECT COUNT(*) FROM t_user") == [(4,)]

    def test_closed_connection_rejects_work(self, ds):
        conn = ds.connect_raw()
        conn.close()
        with pytest.raises(ConnectionClosedError):
            conn.execute("SELECT 1")

    def test_sql_level_transaction_control(self, ds):
        conn = ds.connect()
        conn.execute("BEGIN")
        conn.execute("DELETE FROM t_user WHERE uid = 1")
        conn.execute("ROLLBACK")
        assert ds.execute("SELECT COUNT(*) FROM t_user") == [(4,)]
        ds.release(conn)


class TestXA:
    def test_prepare_then_commit(self, ds):
        conn = ds.connect()
        conn.begin()
        conn.execute("UPDATE t_user SET age = 77 WHERE uid = 3")
        conn.xa_prepare("xid-a")
        assert ds.database.prepared_xids() == ["xid-a"]
        conn.xa_commit("xid-a")
        assert ds.database.prepared_xids() == []
        assert ds.execute("SELECT age FROM t_user WHERE uid = 3") == [(77,)]
        ds.release(conn)

    def test_prepare_then_rollback(self, ds):
        conn = ds.connect()
        conn.begin()
        conn.execute("UPDATE t_user SET age = 77 WHERE uid = 3")
        conn.xa_prepare("xid-b")
        conn.xa_rollback("xid-b")
        assert ds.execute("SELECT age FROM t_user WHERE uid = 3") == [(35,)]
        ds.release(conn)

    def test_prepared_survives_connection_close(self, ds):
        conn = ds.connect_raw()
        conn.begin()
        conn.execute("UPDATE t_user SET age = 55 WHERE uid = 4")
        conn.xa_prepare("xid-c")
        conn.close()
        # Another connection (a recovering coordinator) completes the xid.
        other = ds.connect()
        other.xa_commit("xid-c")
        assert ds.execute("SELECT age FROM t_user WHERE uid = 4") == [(55,)]
        ds.release(other)

    def test_commit_unknown_xid_is_idempotent(self, ds):
        conn = ds.connect()
        conn.xa_commit("never-seen")  # no error
        ds.release(conn)

    def test_injected_prepare_failure(self, ds):
        conn = ds.connect()
        conn.begin()
        conn.execute("UPDATE t_user SET age = 11 WHERE uid = 1")
        ds.database.fail_next("prepare")
        with pytest.raises(ExecutionError):
            conn.xa_prepare("xid-fail")
        conn.rollback()
        assert ds.execute("SELECT age FROM t_user WHERE uid = 1") == [(30,)]
        ds.release(conn)


class TestPool:
    def test_acquire_release_cycle(self, ds):
        first = ds.connect()
        ds.release(first)
        second = ds.connect()
        assert second is first  # reused
        ds.release(second)

    def test_exhaustion_times_out(self):
        source = DataSource("tiny", pool_size=1)
        held = source.connect()
        with pytest.raises(ConnectionPoolExhaustedError):
            source.pool.acquire(timeout=0.05)
        source.release(held)

    def test_try_acquire_many_all_or_nothing(self):
        source = DataSource("many", pool_size=3)
        batch = source.pool.try_acquire_many(3)
        assert batch is not None and len(batch) == 3
        assert source.pool.try_acquire_many(1) is None
        source.pool.release_many(batch)
        assert source.pool.in_use == 0

    def test_release_rolls_back(self, ds):
        conn = ds.connect()
        conn.begin()
        conn.execute("DELETE FROM t_user")
        ds.release(conn)
        assert ds.execute("SELECT COUNT(*) FROM t_user") == [(4,)]

    def test_waiters_wake_on_release(self):
        source = DataSource("wake", pool_size=1)
        held = source.connect()
        got = []

        def waiter():
            conn = source.pool.acquire(timeout=2.0)
            got.append(conn)
            source.release(conn)

        thread = threading.Thread(target=waiter)
        thread.start()
        source.release(held)
        thread.join(timeout=2.0)
        assert got


class TestUnsupportedShapes:
    def test_right_join_rejected_with_guidance(self, ds):
        from repro.exceptions import UnsupportedSQLError

        conn = ds.connect()
        conn.execute("CREATE TABLE t_r (uid INT PRIMARY KEY)")
        with pytest.raises(UnsupportedSQLError, match="LEFT JOIN"):
            conn.execute("SELECT * FROM t_user u RIGHT JOIN t_r r ON u.uid = r.uid").fetchall()
        ds.release(conn)
