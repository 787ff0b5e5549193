"""One storage execution path: compiled plans are total over DQL/DML.

- validity is decided when a statement is compiled, from the statement and
  the schema only — never from how many rows a table happens to hold;
- a rejected INSERT leaves the table exactly as it found it;
- nothing but DDL / TRUNCATE bypasses the plan compiler, and ``src/repro``
  holds no second executor, no switch between executors and no import of
  the test oracle.
"""

import re
from pathlib import Path

import pytest

from repro.adaptors import ShardingDataSource, ShardingRuntime
from repro.baselines import make_grid_sharding, make_sources
from repro.engine import SQLEngine
from repro.exceptions import (
    ColumnNotFoundError,
    ExecutionError,
    ShardingSphereError,
    TableNotFoundError,
    UnsupportedSQLError,
)
from repro.sharding import make_vertical_sharding
from repro.sql import parse
from repro.storage import DataSource

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: (statement, parameters, what the storage engine raises for it)
INVALID = [
    ("SELECT nope FROM e", (), ColumnNotFoundError),
    ("SELECT id FROM e WHERE nope = 1", (), ColumnNotFoundError),
    ("SELECT id FROM e ORDER BY nope", (), ColumnNotFoundError),
    ("UPDATE e SET v = nope + 1", (), ColumnNotFoundError),
    ("UPDATE e SET nope = 1", (), ColumnNotFoundError),
    ("SELECT FOO(id) FROM e", (), ExecutionError),
    ("SELECT MEDIAN(v) FROM e", (), ExecutionError),  # not one of the five aggregates
    ("SELECT e.id FROM e RIGHT JOIN f ON e.id = f.id", (), UnsupportedSQLError),
    ("SELECT id FROM ghost", (), TableNotFoundError),
    ("INSERT INTO e (id, v) VALUES (90, 1), (91)", (), ExecutionError),
    ("SELECT id FROM e WHERE v = ? AND v < ?", (1,), ExecutionError),
    ("INSERT INTO e (id, v) VALUES (?, ?)", (90,), ExecutionError),
    ("UPDATE e SET v = ? WHERE v = ?", (1,), ExecutionError),
    ("DELETE FROM e WHERE v = ? OR v = ?", (1,), ExecutionError),
]
SCHEMA = ("CREATE TABLE e (id INT PRIMARY KEY, v INT)",
          "CREATE TABLE f (id INT PRIMARY KEY, w INT)")


def outcome(conn, sql, params):
    """The class ``sql`` raises (while executing or fetching), or None."""
    try:
        result = conn.execute(sql, params)
        if sql.startswith("SELECT"):
            result.fetchall()
    except ShardingSphereError as exc:
        return type(exc)
    return None


class TestValidityDoesNotDependOnData:
    @pytest.mark.parametrize("sql, params, expected", INVALID)
    def test_same_error_on_an_empty_and_a_populated_table(self, sql, params, expected):
        for rows in ([], [(i, i) for i in range(5)]):
            ds = DataSource("validity")
            for ddl in SCHEMA:
                ds.execute(ddl)
            conn = ds.connect()
            conn.cursor().executemany("INSERT INTO e (id, v) VALUES (?, ?)", rows)
            assert outcome(conn, sql, params) is expected, (sql, len(rows))
            assert conn.execute("SELECT * FROM e ORDER BY id").fetchall() == rows

    def test_fan_out_raises_the_same_class_however_the_shards_are_filled(self):
        """2 x 2 grid; every shard empty, one populated, all populated."""
        seen = []
        for ids in ([], [4], range(8)):
            sources = make_sources(["ds0", "ds1"])
            rule = make_grid_sharding([("e", "id"), ("f", "id")], list(sources), 2,
                                      binding_groups=[["e", "f"]])
            with ShardingDataSource(ShardingRuntime(
                    sources, rule, max_connections_per_query=2)) as data_source:
                conn = data_source.get_connection()
                for ddl in SCHEMA:
                    conn.execute(ddl)
                for i in ids:
                    conn.execute(f"INSERT INTO e (id, v) VALUES ({i}, {i})")
                populated = sum(
                    1 for source in sources.values()
                    for name in source.database.table_names()
                    if name.startswith("e_") and source.database.table(name).row_count
                )
                assert populated == min(len(ids), 4)
                seen.append([outcome(conn, sql, params) for sql, params, _ in INVALID])
        assert None not in seen[0]
        assert seen[0] == seen[1] == seen[2]
        # binds are checked by the rewriter before any shard is asked; the
        # rest surface the storage engine's own class
        for (sql, params, expected), raised in zip(INVALID, seen[0]):
            if not params:
                assert raised is expected, sql


class TestRejectedInsertIsAtomic:
    """A multi-row INSERT the engine rejects — too few binds, or a value
    count mismatch in its *second* row — inserts nothing, even inside an
    explicit transaction that then commits."""

    SHORT = ("INSERT INTO e (id, v) VALUES (?, ?), (?, ?)", (1, 10, 2))
    MISMATCH = ("INSERT INTO e (id, v) VALUES (3, 30), (4)", ())

    @pytest.fixture
    def conn(self):
        ds = DataSource("atomic")
        ds.execute(SCHEMA[0])
        ds.execute("INSERT INTO e (id, v) VALUES (0, 0)")
        return ds.connect()

    @staticmethod
    def committed(conn):
        conn.commit()
        return conn.execute("SELECT * FROM e ORDER BY id").fetchall()

    @pytest.mark.parametrize("sql, params", [SHORT, MISMATCH])
    def test_through_execute(self, conn, sql, params):
        conn.begin()
        with pytest.raises(ExecutionError):
            conn.execute(sql, params)
        assert self.committed(conn) == [(0, 0)]

    def test_through_executemany(self, conn):
        conn.begin()
        with pytest.raises(ExecutionError, match="placeholder #3"):
            # the third binding is short: the first two must not land
            conn.cursor().executemany(self.SHORT[0], [(1, 10, 2, 20), (5, 50, 6, 60), (7, 70, 8)])
        with pytest.raises(ExecutionError, match="count mismatch"):
            conn.cursor().executemany(self.MISMATCH[0], [(), ()])
        assert self.committed(conn) == [(0, 0)]

    @pytest.mark.parametrize("sql, params", [SHORT, MISMATCH])
    def test_through_execute_pipeline(self, conn, sql, params):
        conn.begin()
        with pytest.raises(ExecutionError):
            conn.execute_pipeline([
                ("INSERT INTO e (id, v) VALUES (?, ?)", (9, 90)),
                (sql, params),
                ("INSERT INTO e (id, v) VALUES (?, ?)", (10, 100)),
            ])
        # earlier statements of the pipeline stand, the rejected one left
        # nothing, later ones never ran
        assert self.committed(conn) == [(0, 0), (9, 90)]


class TestOnlyDdlBypassesThePlanCompiler:
    def test_bypasses_equal_ddl_count_after_a_mixed_script(self):
        sources = {"ds_a": DataSource("ds_a"), "ds_b": DataSource("ds_b")}
        ddl = {name: 0 for name in sources}

        def run_ddl(name, sql):
            sources[name].execute(sql)
            ddl[name] += 1

        run_ddl("ds_a", "CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(32))")
        run_ddl("ds_b", "CREATE TABLE t_order (oid INT PRIMARY KEY, uid INT, amount FLOAT)")
        run_ddl("ds_b", "CREATE INDEX idx_uid ON t_order (uid)")
        run_ddl("ds_b", "CREATE TABLE scratch (a INT PRIMARY KEY)")

        conn = sources["ds_a"].connect()
        conn.cursor().executemany("INSERT INTO t_user (uid, name) VALUES (?, ?)",
                                  [(1, "ann"), (2, "bo"), (3, "che")])          # keyed DML
        conn.execute("INSERT INTO t_user (uid, name) VALUES (4, 'dee')")       # literal INSERT
        conn.execute(parse("UPDATE t_user SET name = 'Dee' WHERE uid = 4"))    # unkeyed DML
        assert conn.execute(parse("SELECT COUNT(*) FROM t_user")).fetchall() == [(4,)]  # unkeyed DQL
        assert conn.execute("SELECT 1").fetchall() == [(1,)]                   # no FROM
        conn.cursor().executemany("UPDATE t_user SET name = ? WHERE uid = ?",
                                  [("Ann", 1), ("Bo", 2)])
        other = sources["ds_b"].connect()
        other.execute_pipeline([
            ("INSERT INTO t_order (oid, uid, amount) VALUES (?, ?, ?)", (10, 1, 4.0)),
            ("INSERT INTO t_order (oid, uid, amount) VALUES (?, ?, ?)", (11, 2, 6.0)),
            ("DELETE FROM t_order WHERE oid = ?", (99,)),
            ("SELECT amount FROM t_order WHERE uid = 1", ()),
        ])
        other.execute("INSERT INTO scratch (a) VALUES (1)")
        run_ddl("ds_b", "TRUNCATE TABLE scratch")
        run_ddl("ds_b", "DROP TABLE scratch")

        engine = SQLEngine(sources, make_vertical_sharding(
            {"t_user": "ds_a", "t_order": "ds_b"}))
        try:
            result = engine.execute(
                "SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid "
                "ORDER BY o.amount")
            assert result.route_type == "federation"
            assert result.fetchall() == [("Ann", 4.0), ("Bo", 6.0)]
        finally:
            engine.close()

        for name, source in sources.items():
            stats = source.database.plan_cache.stats()
            assert stats["bypasses"] == ddl[name], (name, stats)
            assert stats["hits"] + stats["misses"] > 0

    def test_src_holds_one_executor_and_no_switch(self):
        gone = re.compile(
            r"CannotCompile|plan_cache\.enabled|batch_rows|_Negative\b|_Seen\b"
            r"|def evaluate\b|def _execute_select\b"
            r"|\bfind_equal\b|\bfind_by_equalities\b|\bfind_range\b|\brange_indexed_columns\b")
        imports_tests = re.compile(r"^\s*(from|import)\s+(tests|oracle)\b|storage_interpreter")
        for path in SRC.rglob("*.py"):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                where = f"{path.relative_to(SRC)}:{number}: {line.strip()}"
                assert not imports_tests.search(line), where
                if path.parent.name == "storage":
                    assert not gone.search(line), where
        plans = (SRC / "storage" / "plans.py").read_text()
        assert '"off"' not in plans
