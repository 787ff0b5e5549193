"""A query's connections go back when the statement ends, not when its rows
are drained: a result the client drops unfetched, or fetches only in part,
holds no pooled connection."""

import gc

import pytest

from repro.adaptors import ShardingDataSource, ShardingRuntime

FANOUT = "SELECT v FROM t ORDER BY v"


@pytest.fixture
def conn():
    # four shards over two sources, at most 8 connections per source and
    # query: both sources run their two units memory-strictly
    runtime = ShardingRuntime(max_connections_per_query=8)
    connection = ShardingDataSource(runtime).get_connection()
    connection.execute("REGISTER RESOURCE ds0, ds1")
    connection.execute(
        "CREATE SHARDING TABLE RULE t (RESOURCES(ds0, ds1), "
        "SHARDING_COLUMN=id, TYPE=mod, PROPERTIES('sharding-count'=4))"
    )
    connection.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    connection.execute(
        "INSERT INTO t (id, v) VALUES " + ", ".join(f"({i}, {i * 10})" for i in range(8)))
    yield connection
    connection.close()
    runtime.close()


def in_use(conn):
    return [source.pool.in_use for source in conn.runtime.data_sources.values()]


def test_the_fixture_fans_out_memory_strictly(conn):
    result = conn.execute(FANOUT)
    modes = {mode.value for mode in result.diagnostics.modes.values()}
    assert result.diagnostics.unit_count == 4 and modes == {"memory_strictly"}
    assert result.fetchall() == [(i * 10,) for i in range(8)]


@pytest.mark.parametrize("drop", [
    lambda conn: conn.execute(FANOUT),
    lambda conn: conn.prepare(FANOUT).execute(),
], ids=["execute", "prepared"])
def test_an_unfetched_result_holds_no_connection(conn, drop):
    for _ in range(4):
        drop(conn)
        gc.collect()
        assert in_use(conn) == [0, 0]


def test_a_partly_fetched_result_holds_no_connection(conn):
    result = conn.execute(FANOUT)
    assert result.fetchone() == (0,)
    assert in_use(conn) == [0, 0]
    assert result.fetchmany(2) == [(10,), (20,)]
    del result
    gc.collect()
    assert in_use(conn) == [0, 0]


def test_an_error_while_the_rows_are_read_is_a_statement_error(conn):
    """A unit's rows are computed when the merge first reads it; what that
    raises leaves ``execute`` through the error exit and is counted there."""
    conn.execute("CREATE TABLE u (id INT PRIMARY KEY, s VARCHAR(8))")
    conn.execute("INSERT INTO u (id, s) VALUES (1, 'x'), (2, '3')")
    errors = conn.runtime.observability.registry.get("engine_statement_errors_total")
    with pytest.raises(ValueError, match="invalid literal"):
        conn.execute("SELECT CAST(s AS INT) FROM u ORDER BY id")
    assert errors.samples() == [({}, 1.0)]
    assert in_use(conn) == [0, 0]
