"""Every row lives where its key routes: a NULL sharding value and an
UPDATE that assigns a sharding column.

``col = NULL`` matches no row, so a read, UPDATE or DELETE with a NULL
precise sharding value routes to one node and finds nothing; no sharding
algorithm ever sees the NULL. An INSERT of a NULL sharding value has no
data node and is refused. An UPDATE whose SET assigns a sharding column is
refused unless the new value routes to the node the row is on. Each
statement runs twice: the first execution compiles (or bypasses) a plan,
the second runs from the plan cache when it may.
"""

import pytest

from paper.topology import make_grid_sharding
from repro.engine import SQLEngine
from repro.exceptions import RouteError, ShardingSphereError
from repro.storage import DataSource


@pytest.fixture
def engine():
    """``t`` over 2 sources x 2 tables, hash layout: id k lives at
    ``ds{k % 2}.t_{(k // 2) % 2}``, so 0 and 4 share a node and 1001 is
    elsewhere."""
    sources = {name: DataSource(name) for name in ("ds0", "ds1")}
    for source in sources.values():
        for j in range(2):
            source.execute(f"CREATE TABLE t_{j} (id INT PRIMARY KEY, v INT)")
    engine = SQLEngine(sources, make_grid_sharding([("t", "id")], list(sources), 2))
    for key in range(4):
        engine.execute("INSERT INTO t (id, v) VALUES (?, ?)", (key, key * 10))
    yield engine
    engine.close()


def rows(engine):
    return sorted(engine.execute("SELECT id, v FROM t").fetchall())


def twice(engine, sql, params=()):
    return [engine.execute(sql, params) for _ in range(2)]


@pytest.mark.parametrize("sql, params", [
    ("SELECT id, v FROM t WHERE id = NULL", ()),
    ("SELECT id, v FROM t WHERE id = ?", (None,)),
])
def test_a_null_key_read_matches_no_row(engine, sql, params):
    for result in twice(engine, sql, params):
        assert result.fetchall() == []
        assert len(result.units) == 1


def test_a_null_key_in_an_in_list_matches_no_row(engine):
    for result in twice(engine, "SELECT id FROM t WHERE id IN (?, ?)", (None, 2)):
        assert result.fetchall() == [(2,)]


@pytest.mark.parametrize("sql, params", [
    ("UPDATE t SET v = 1 WHERE id = ?", (None,)),
    ("DELETE FROM t WHERE id = ?", (None,)),
])
def test_a_null_key_write_matches_no_row(engine, sql, params):
    for result in twice(engine, sql, params):
        assert result.update_count == 0
    assert rows(engine) == [(0, 0), (1, 10), (2, 20), (3, 30)]


@pytest.mark.parametrize("sql, params", [
    ("INSERT INTO t (id, v) VALUES (NULL, 1)", ()),
    ("INSERT INTO t (id, v) VALUES (?, 1)", (None,)),
    ("INSERT INTO t (id, v) VALUES (?, 1), (?, 2)", (9, None)),
])
def test_a_null_key_insert_is_refused(engine, sql, params):
    for _ in range(2):
        with pytest.raises(RouteError, match="NULL in sharding column 'id'"):
            engine.execute(sql, params)
    assert rows(engine) == [(0, 0), (1, 10), (2, 20), (3, 30)]


def test_a_null_key_never_reaches_an_algorithm(engine):
    table_rule = engine.metadata.current().rule.table_rule("t")
    for strategy in (table_rule.database_strategy, table_rule.table_strategy):
        real = strategy.algorithm.do_sharding

        def checked(targets, value, real=real):
            assert value is not None
            return real(targets, value)

        strategy.algorithm.do_sharding = checked
    twice(engine, "SELECT v FROM t WHERE id = ?", (None,))
    twice(engine, "DELETE FROM t WHERE id IN (NULL, 5)")
    with pytest.raises(ShardingSphereError):
        engine.execute("INSERT INTO t (id, v) VALUES (NULL, 1)")


@pytest.mark.parametrize("sql, params", [
    ("UPDATE t SET id = 1001 WHERE id = 0", ()),
    ("UPDATE t SET id = ? WHERE id = ?", (1001, 0)),
    ("UPDATE t SET v = 7, id = ? WHERE id = ?", (1001, 0)),
    ("UPDATE t SET id = ? WHERE id = ?", (None, 0)),
    ("UPDATE t SET id = id + 1 WHERE id = 0", ()),
    ("UPDATE t SET id = 4 WHERE v = 0", ()),
])
def test_a_key_update_that_could_move_the_row_is_refused(engine, sql, params):
    for _ in range(2):
        with pytest.raises(RouteError, match=r"assigns sharding column\(s\) \['id'\]"):
            engine.execute(sql, params)
    assert rows(engine) == [(0, 0), (1, 10), (2, 20), (3, 30)]
    assert engine.execute("SELECT v FROM t WHERE id = 1001").fetchall() == []


def test_a_key_update_that_stays_on_its_node_runs(engine):
    assert [r.update_count for r in twice(engine, "UPDATE t SET id = 0 WHERE id = 0")] == [1, 1]
    assert engine.execute("UPDATE t SET id = ?, v = ? WHERE id = ?", (4, 40, 0)).update_count == 1
    assert rows(engine) == [(1, 10), (2, 20), (3, 30), (4, 40)]
    assert engine.execute("SELECT v FROM t WHERE id = 4").fetchall() == [(40,)]


def test_a_key_update_bypasses_the_plan_cache(engine):
    sql = "UPDATE t SET id = ? WHERE id = ?"
    with pytest.raises(RouteError):
        engine.execute(sql, (1001, 0))
    plan = engine.plan_cache.peek(sql)
    assert not plan.cacheable and plan.reason == "UPDATE assigns a sharding column"
