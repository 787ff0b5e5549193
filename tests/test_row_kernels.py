"""The row path as batch kernels: compiled ≡ oracle on both sides of every
selection, the re-check of lazily read rows, and the call count per statement.

A compiled SELECT reads its rows as one list at the first fetch and runs
its WHERE and aggregates over it once (a LIMIT that can stop early reads
``BATCH_ROWS`` at a time). An integer range conjunct (``intcol <op> const`` or
``intcol [NOT] BETWEEN const AND const``) is one comprehension when its
bounds are exactly ``int`` at run time and the conjunct's closure otherwise;
an aggregate over a plain integer column reads the tuple slot directly and
sums with ``sum()``, any other folds left like the oracle. Each side is held
equal to the reference interpreter in ``tests/oracle`` here, across the
chunk seams, on INT columns holding NULLs and on FLOAT and CHAR columns.
"""

import heapq
import math
import operator
import os
import sys
import threading
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paper.topology import make_grid_sharding, make_sources
from repro import storage
from repro.adaptors import ShardingDataSource, ShardingRuntime
from repro.engine.merger import AggregateSpec, MaterializedResult, MergeSpec, merge
from repro.sql import parse
from repro.storage import DataSource, LatencyModel
from repro.storage.expression import OrderToken
from repro.storage.plans import BATCH_ROWS, execute_statement
from repro.storage.table import Table

from .oracle import OracleConnection
from .test_storage_plans import DIFF_SETTINGS

SCHEMA = "CREATE TABLE r (id INT PRIMARY KEY, k INT, b BIGINT, f FLOAT, c CHAR(8))"
INDEX = "CREATE INDEX idx_k ON r (k)"
INSERT = "INSERT INTO r (id, k, b, f, c) VALUES (?, ?, ?, ?, ?)"

#: 600 rows: three chunks; NULLs in every column but the key; ``c`` holds
#: numeric and non-numeric strings, so cross-type comparison is exercised
ROWS = [
    (i,
     None if i % 9 == 0 else (i * 37) % 61 - 20,
     None if i % 10 == 0 else (i * 7919) % 1000 - 500 + 2**40,
     None if i % 7 == 0 else ((i * 13) % 41 - 20) / 4,
     None if i % 5 == 0 else (str((i * 7) % 30) if i % 3 else f"x{i % 4}"))
    for i in range(600)
]


def make_twins(rows=ROWS):
    """The same rows twice: compiled plans on the first data source, the
    reference interpreter on the second."""
    twins = []
    for tag in ("compiled", "oracle"):
        ds = DataSource(f"kernels_{tag}")
        ds.execute(SCHEMA)
        ds.execute(INDEX)
        conn = ds.connect() if tag == "compiled" else OracleConnection(ds)
        if tag == "compiled":
            conn.cursor().executemany(INSERT, rows)
        else:
            conn.executemany(INSERT, rows)
        twins.append(conn)
    return twins


def both(twins, sql, params=()):
    """``(compiled rows, oracle rows)``; the compiled side runs twice
    (compile, then cached plan) and must repeat itself."""
    compiled, oracle = twins
    first = compiled.execute(sql, params).fetchall()
    assert compiled.execute(sql, params).fetchall() == first, sql
    return first, oracle.execute(sql, params).fetchall()


@pytest.fixture(scope="module")
def twins():
    assert len(ROWS) > 2 * BATCH_ROWS
    return make_twins()


# ---------------------------------------------------------------------------
# WHERE: kernel conjuncts and the closure path beside them
# ---------------------------------------------------------------------------

#: kernel conjuncts: an integer-family column, bounds exactly int
KERNEL_CONDITIONS = [
    ("k BETWEEN ? AND ?", (3, 17)),
    ("k BETWEEN 3 AND 17", ()),
    ("k BETWEEN -5 AND 5", ()),
    ("k BETWEEN ? AND ?", (17, 3)),  # empty range
    ("k = ?", (5,)),
    ("k <> ?", (5,)),
    ("k != 5", ()),
    ("k < ?", (0,)),
    ("k > -3", ()),
    ("k <= ?", (-12,)),
    ("k >= ?", (30,)),
    ("5 < k", ()),  # reversed operands
    ("? >= k", (2,)),
    ("-4 = k", ()),
    ("b BETWEEN ? AND ?", (2**40 - 100, 2**40 + 100)),
    ("id BETWEEN 250 AND 520", ()),  # across both chunk seams
    ("k NOT BETWEEN ? AND ?", (3, 17)),
    ("k NOT BETWEEN -20 AND 40", ()),
    ("k >= ? AND k <= ?", (-2, 9)),  # two kernel stages
    ("k BETWEEN ? AND ? AND f > ?", (0, 30, 0.5)),  # kernel, then a closure
    ("f > ? AND k < ? AND c IS NOT NULL", (-1.0, 10)),  # closure, kernel, closure
    ("c IS NOT NULL AND k > ? AND id < ? AND f IS NULL", (0, 500)),
]

#: the same shapes on the closure path: bounds that are not exactly int,
#: and columns that are not integer-family
CLOSURE_CONDITIONS = [
    ("k < ?", (4.5,)),
    ("k BETWEEN ? AND ?", (2.5, 9.5)),
    ("k = ?", (5.0,)),
    ("k = ?", (True,)),
    ("k > ?", (False,)),
    ("k BETWEEN ? AND ?", (False, 3)),
    ("k < ?", (None,)),
    ("k <> NULL", ()),
    ("k BETWEEN ? AND ?", (None, 5)),
    ("k BETWEEN ? AND ?", (5, None)),
    ("k NOT BETWEEN ? AND ?", (3.5, 9)),
    ("k NOT BETWEEN ? AND ?", (None, 4)),
    ("? < k", (2.25,)),
    ("k > -3.5", ()),
    # a str bound: compared numerically when it parses, as text otherwise
    # (on ``b``, which has no index: a str bound against a numeric index
    # picks the wrong range before any re-check runs — a separate defect)
    ("b > ?", ("1099511627700",)),
    ("b BETWEEN ? AND ?", ("1099511627500", 2**40)),
    ("b <> ?", ("abc",)),
    ("f BETWEEN ? AND ?", (-2, 2)),
    ("f > ?", (0,)),
    ("f = ?", (1,)),
    ("c < ?", (5,)),
    ("c BETWEEN ? AND ?", (3, 12)),
    ("c = ?", (7,)),
    ("c > ?", ("x1",)),
]


@pytest.mark.parametrize("cond, params", KERNEL_CONDITIONS + CLOSURE_CONDITIONS)
def test_where_rows_match_the_oracle(twins, cond, params):
    compiled, oracle = both(twins, f"SELECT id, k, f, c FROM r WHERE {cond} ORDER BY id", params)
    assert compiled == oracle, cond


@pytest.mark.parametrize("cond, params", KERNEL_CONDITIONS + CLOSURE_CONDITIONS)
def test_where_aggregates_match_the_oracle(twins, cond, params):
    sql = (f"SELECT COUNT(*), COUNT(k), SUM(k), AVG(k), MIN(k), MAX(k), SUM(f), MIN(c) "
           f"FROM r WHERE {cond}")
    compiled, oracle = both(twins, sql, params)
    assert compiled == oracle, cond


@pytest.mark.parametrize("sql", [
    "SELECT * FROM r WHERE id > 200",
    "SELECT r.* FROM r WHERE k < 0 ORDER BY id",
    "SELECT c FROM r WHERE k BETWEEN 0 AND 9",
    "SELECT k, k, id FROM r WHERE f IS NULL",
    "SELECT k AS kk, r.id FROM r WHERE id < 300 ORDER BY kk, id",
    "SELECT id, k + 0, c FROM r WHERE id >= 256",
    "SELECT a.*, b.k FROM r a JOIN r b ON a.id = b.k WHERE a.id < 60 ORDER BY a.id, b.id",
    "SELECT b.c, a.id FROM r a LEFT JOIN r b ON a.k = b.id WHERE a.id < 40 ORDER BY a.id",
])
def test_projection_matches_the_oracle(twins, sql):
    """A select list of stored columns (a LEFT JOIN's NULL-extended side
    included) is read by one ``itemgetter`` per row; anything else by
    the items' closures."""
    compiled, oracle = both(twins, sql)
    if "ORDER BY" in sql:
        assert compiled == oracle, sql
    else:
        assert Counter(compiled) == Counter(oracle), sql


@pytest.mark.parametrize("cond, params", [
    ("k BETWEEN ? AND ?", (3, 17)),
    ("k NOT BETWEEN ? AND ?", (-10, 30)),
    ("k < ? AND f > ?", (0, 0.0)),
    ("k BETWEEN ? AND ?", (2.5, 9.5)),
    ("k <> ?", (None,)),
])
def test_update_and_delete_select_the_same_rows(cond, params):
    twins = make_twins()
    compiled, oracle = twins
    for sql in (f"UPDATE r SET f = 99.5 WHERE {cond}", f"DELETE FROM r WHERE {cond}"):
        assert compiled.execute(sql, params).rowcount == oracle.execute(sql, params).rowcount
        state = both(twins, "SELECT * FROM r ORDER BY id")
        assert state[0] == state[1], sql


bound_s = st.one_of(
    st.integers(-25, 45),
    st.floats(-25, 45, allow_nan=False),
    st.booleans(),
    st.none(),
)


@DIFF_SETTINGS
@given(op=st.sampled_from(["=", "<>", "<", ">", "<=", ">="]), bound=bound_s,
       low=bound_s, high=bound_s, mirrored=st.booleans(), negated=st.booleans())
def test_generated_bounds_match_the_oracle(twins, op, bound, low, high, mirrored, negated):
    comparison = f"? {op} k" if mirrored else f"k {op} ?"
    between = f"k {'NOT ' if negated else ''}BETWEEN ? AND ?"
    for cond, params in ((comparison, (bound,)), (between, (low, high)),
                         (f"{between} AND {comparison}", (low, high, bound))):
        compiled, oracle = both(twins, f"SELECT id FROM r WHERE {cond}", params)
        assert Counter(compiled) == Counter(oracle), (cond, params)
        compiled, oracle = both(twins, f"SELECT COUNT(*), SUM(k) FROM r WHERE {cond}", params)
        assert compiled == oracle, (cond, params)


# ---------------------------------------------------------------------------
# Aggregates across the chunk seam, with and without GROUP BY
# ---------------------------------------------------------------------------

AGGREGATES = [
    "SELECT COUNT(*), COUNT(k), COUNT(DISTINCT k), SUM(k), AVG(k), MIN(k), MAX(k) FROM r",
    "SELECT SUM(DISTINCT k), AVG(DISTINCT k), COUNT(b), SUM(b), MIN(b), MAX(b) FROM r",
    "SELECT COUNT(f), COUNT(DISTINCT f), SUM(f), AVG(f), MIN(f), MAX(f) FROM r",
    "SELECT SUM(DISTINCT f), AVG(DISTINCT f) FROM r WHERE id > 200",
    "SELECT COUNT(c), COUNT(DISTINCT c), MIN(c), MAX(c) FROM r",
    "SELECT SUM(k + 1), MAX(k * f), MIN(k - 100), AVG(k * 2) FROM r",
    "SELECT COUNT(*), SUM(k), MIN(f) FROM r WHERE id >= 250 AND id < 270",
    "SELECT COUNT(*), SUM(k), MAX(c) FROM r WHERE k > 1000",  # no row at all
    "SELECT k, COUNT(*) AS n, SUM(f) AS s, MIN(c) AS mn, MAX(c) AS mx "
    "FROM r GROUP BY k ORDER BY k",
    "SELECT c, COUNT(*) AS n, SUM(k) AS s, AVG(k) AS av, COUNT(DISTINCT k) AS dk, "
    "MIN(k) AS mn, MAX(f) AS mx FROM r GROUP BY c ORDER BY c",
    "SELECT k, SUM(DISTINCT f) AS s FROM r WHERE k BETWEEN 0 AND 9 GROUP BY k "
    "HAVING COUNT(*) > 5 ORDER BY k",
    "SELECT COUNT(*) AS n, SUM(k) AS s FROM r GROUP BY c ORDER BY n, s",
]


@pytest.mark.parametrize("sql", AGGREGATES)
def test_aggregates_match_the_oracle(twins, sql):
    compiled, oracle = both(twins, sql)
    assert compiled == oracle, sql


def test_float_sum_is_folded_left_bit_for_bit():
    """Added left to right, as the oracle does, these 768 values sum to 1.0
    (each 1.0 next to a 1e16 is rounded away); a compensated ``sum()`` —
    Python 3.12's — returns the exact 384.0. The plan must agree with the
    oracle to the bit, across the seams, with and without GROUP BY."""
    values = [(1e16, 1.0, -1e16, 1.0)[i % 4] for i in range(3 * BATCH_ROWS)]
    rows = [(i, i % 3, None, v, None) for i, v in enumerate(values)]
    compiled, oracle = make_twins(rows)
    expected = reduce(operator.add, values)
    for sql in ("SELECT SUM(f), AVG(f) FROM r", "SELECT SUM(f) FROM r WHERE id >= 0",
                "SELECT k, SUM(f), AVG(f) FROM r GROUP BY k ORDER BY k"):
        got = compiled.execute(sql).fetchall()
        want = oracle.execute(sql).fetchall()
        assert [[float(v).hex() for v in row] for row in got] == \
            [[float(v).hex() for v in row] for row in want], sql
    assert compiled.execute("SELECT SUM(f) FROM r").fetchall() == [(expected,)]


# ---------------------------------------------------------------------------
# ORDER BY: one key rule, mixed directions, in storage and in the merger;
# the merger's float SUM and AVG fold left, as storage's do
# ---------------------------------------------------------------------------

ORDERS = [
    "ORDER BY k, id",
    "ORDER BY k DESC, id DESC",
    "ORDER BY k DESC, f, id",
    "ORDER BY c, k DESC, id",
    "ORDER BY f DESC, c DESC, id",
    "ORDER BY k * 2 DESC, id",
]


@pytest.mark.parametrize("order", ORDERS)
def test_storage_sort_matches_the_oracle(twins, order):
    compiled, oracle = both(twins, f"SELECT id, k, f, c FROM r WHERE id > 100 {order}")
    assert compiled == oracle, order


@pytest.fixture(scope="module")
def sharded():
    """The rows on a 2 x 2 grid (sharded by id) and on one oracle node."""
    sources = make_sources(["ds0", "ds1"])
    rule = make_grid_sharding([("r", "id")], list(sources), 2)
    data_source = ShardingDataSource(ShardingRuntime(sources, rule, max_connections_per_query=4))
    conn = data_source.get_connection()
    conn.execute(SCHEMA)
    conn.execute(INDEX)
    for row in ROWS:
        conn.execute(INSERT, row)
    single = DataSource("kernels_single")
    single.execute(SCHEMA)
    oracle = OracleConnection(single)
    oracle.executemany(INSERT, ROWS)
    yield conn, oracle
    conn.close()
    data_source.close()


@pytest.mark.parametrize("sql", [
    f"SELECT id, k, f, c FROM r {order}" for order in ORDERS
] + [
    "SELECT id, k FROM r WHERE k BETWEEN -5 AND 5 ORDER BY k DESC, id LIMIT 17",
    "SELECT k, COUNT(*) AS n FROM r GROUP BY k ORDER BY k DESC",
    "SELECT c, MAX(k) AS mx FROM r GROUP BY c ORDER BY c DESC",
])
def test_merged_order_matches_a_single_node(sharded, sql):
    conn, oracle = sharded
    assert conn.execute(sql).fetchall() == oracle.execute(sql).fetchall(), sql


def _token_merge(shards, order_keys):
    """The merger's former rule: one ``OrderToken`` per key per row."""
    return list(heapq.merge(*shards, key=lambda row: tuple(
        OrderToken(row[i], desc) for i, desc in order_keys)))


@DIFF_SETTINGS
@given(
    shards=st.lists(st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 3)),
                                       st.sampled_from(["a", "b", None])),
                             max_size=8), min_size=2, max_size=4),
    order_keys=st.sampled_from([
        [(0, False)], [(0, True)], [(0, False), (1, False)], [(0, True), (1, True)],
        [(0, True), (1, False)], [(1, False), (0, True)],
    ]),
)
def test_heap_merge_keeps_the_tie_order_across_shards(shards, order_keys):
    """Rows carry (shard, position) so a different tie order shows."""
    tagged = []
    for s, rows in enumerate(shards):
        rows = [(a, b, s, p) for p, (a, b) in enumerate(rows)]
        rows.sort(key=lambda row: tuple(OrderToken(row[i], desc) for i, desc in order_keys))
        tagged.append(rows)
    results = [MaterializedResult(["a", "b", "s", "p"], rows) for rows in tagged]
    spec = MergeSpec(is_query=True, order_keys=list(order_keys))
    assert merge(spec, results).fetchall() == _token_merge(tagged, order_keys)


#: shard partial sums that a left fold adds to 1.0 (each 1.0 next to a 1e16
#: is rounded away) and a compensated ``sum()`` — Python 3.12's — to 8.0
FLOAT_PARTIALS = [1e16, 1.0, -1e16, 1.0] * 4


@pytest.mark.parametrize("grouped", [None, "stream", "memory"])
def test_merged_float_sum_and_avg_fold_left_bit_for_bit(grouped):
    """The merger folds shard partials by storage's aggregate rule: SUM
    and AVG across shards are ``reduce(operator.add, ...)`` over the
    partial sums (over the summed partial counts for AVG), to the bit,
    with and without GROUP BY."""
    columns = ["g", "s", "a", "c", "t"]  # key, SUM, AVG, AVG's count and sum
    results = [MaterializedResult(columns, [("k", total, total / 3, 3, total)])
               for total in FLOAT_PARTIALS]
    spec = MergeSpec(
        is_query=True, output_width=3,
        aggregates=[AggregateSpec("SUM", 1), AggregateSpec("AVG", 2, count_index=3, sum_index=4)],
        has_group_by=grouped is not None, group_keys=[0] if grouped else [],
        order_keys=[(0, False)] if grouped else [], group_equals_order=grouped == "stream")
    total = reduce(operator.add, FLOAT_PARTIALS)
    assert total != math.fsum(FLOAT_PARTIALS)  # a compensated sum would show
    merged = merge(spec, results)
    assert merged.merger_kind == {None: "aggregation", "stream": "group-by-stream",
                                  "memory": "group-by-memory"}[grouped]
    (_, merged_sum, merged_avg), = merged.fetchall()
    assert merged_sum.hex() == total.hex()
    assert merged_avg.hex() == (total / (3 * len(FLOAT_PARTIALS))).hex()


# ---------------------------------------------------------------------------
# The re-check stays: rows are read lazily, after the index slice
# ---------------------------------------------------------------------------


def _lazy_source():
    ds = DataSource("lazy")
    ds.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT)")
    ds.execute("CREATE INDEX idx_k ON t (k)")
    ds.connect().cursor().executemany(
        "INSERT INTO t (id, k) VALUES (?, ?)", [(i, i) for i in range(30)])
    return ds


LAZY = [("SELECT id, k FROM t WHERE k BETWEEN 10 AND 20", ()),
        ("SELECT id, k FROM t WHERE k BETWEEN ? AND ?", (10, 20))]
LAZY_AGG = [("SELECT COUNT(*), SUM(k) FROM t WHERE k BETWEEN 10 AND 20", ()),
            ("SELECT COUNT(*), SUM(k) FROM t WHERE k >= ? AND k <= ?", (10, 20))]


def _issue_all(reader):
    return ([reader.cursor().execute(sql, params) for sql, params in LAZY],
            [reader.cursor().execute(sql, params) for sql, params in LAZY_AGG])


def _assert_moved_row_absent(row_cursors, agg_cursors):
    for cursor in row_cursors:
        assert sorted(cursor.fetchall()) == [(i, i) for i in range(10, 21) if i not in (12, 15)]
    for cursor in agg_cursors:
        assert cursor.fetchall() == [(9, 165 - 15 - 12)]


def _move_and_delete(writer):
    writer.execute("UPDATE t SET k = 99 WHERE id = 15")
    writer.execute("DELETE FROM t WHERE id = 12")


def test_a_row_moved_out_of_range_after_issue_is_not_returned():
    """The index slice holds ids 10..20; before the result is drained id 15
    moves to k = 99 and id 12 is deleted. Without the re-check the drain
    would return (15, 99) and COUNT/SUM (10, 237)."""
    ds = _lazy_source()
    row_cursors, agg_cursors = _issue_all(ds.connect())
    _move_and_delete(ds.connect())
    _assert_moved_row_absent(row_cursors, agg_cursors)


@pytest.mark.concurrency
def test_writer_threads_never_leak_a_row_past_the_recheck():
    """The same with the writer on a thread of its own; then writer threads
    moving rows 10..20 out of range and back while reads are issued and
    drained: whatever the interleaving, no returned row and no aggregate
    counts a row whose k is outside 10..20."""
    ds = _lazy_source()
    row_cursors, agg_cursors = _issue_all(ds.connect())
    writer = threading.Thread(target=lambda: _move_and_delete(ds.connect()))
    writer.start()
    writer.join(timeout=10)
    assert not writer.is_alive()
    _assert_moved_row_absent(row_cursors, agg_cursors)

    ds = _lazy_source()
    stop = threading.Event()
    failures = []

    def churn(offset):
        try:
            conn = ds.connect()
            while not stop.is_set():
                row_id = 10 + offset % 11
                conn.execute("UPDATE t SET k = 99 WHERE id = ?", (row_id,))
                conn.execute("UPDATE t SET k = ? WHERE id = ?", (row_id, row_id))
                offset += 3
        except Exception as exc:  # pragma: no cover - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    writers = [threading.Thread(target=churn, args=(n,)) for n in range(3)]
    try:
        for thread in writers:
            thread.start()
        reader = ds.connect()
        for _ in range(200):
            rows = reader.execute(*LAZY[1]).fetchall()
            assert all(10 <= k <= 20 for _id, k in rows), rows
            ((count, total),) = reader.execute(*LAZY_AGG[1]).fetchall()
            assert count <= 11 and (total is None if count == 0
                                    else 10 * count <= total <= 20 * count)
    finally:
        stop.set()
        for thread in writers:
            thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writers)
    assert not failures


# ---------------------------------------------------------------------------
# Cost per statement, not per row; a LIMIT stops reading
# ---------------------------------------------------------------------------


def _storage_calls(fn):
    """Python calls into ``repro.storage`` made by ``fn()``."""
    root = os.path.dirname(storage.__file__) + os.sep
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_calls_grow_per_chunk_not_per_row():
    """A SELECT's rows are one list through list stages: 2,000 rows cost
    storage no more calls than 200."""
    ds = DataSource("calls")
    ds.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT)")
    ds.execute("CREATE INDEX idx_k ON t (k)")
    ds.connect().cursor().executemany(
        "INSERT INTO t (id, k) VALUES (?, ?)", [(i, i) for i in range(2200)])
    conn = ds.connect()
    sql = "SELECT COUNT(*), SUM(k) FROM t WHERE k BETWEEN ? AND ?"

    def run(high):
        return lambda: conn.execute(sql, (0, high - 1)).fetchall()

    run(200)()  # compile
    small, large = _storage_calls(run(200)), _storage_calls(run(2000))
    assert large <= small, (small, large)
    assert conn.execute(sql, (0, 1999)).fetchall() == [(2000, sum(range(2000)))]


def test_a_limit_reads_one_step_when_it_can_stop(monkeypatch):
    """A LIMIT over rows that need no sort, aggregate or DISTINCT reads
    ``BATCH_ROWS`` rows at a time and stops once offset + count rows have
    passed the filter; without the LIMIT every row is read."""
    read = []
    value_tuples = Table.value_tuples
    monkeypatch.setattr(Table, "value_tuples",
                        lambda table, ids: read.append(len(ids)) or value_tuples(table, ids))
    ds = DataSource("limited")
    ds.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    ds.connect().cursor().executemany(
        "INSERT INTO t (id, v) VALUES (?, ?)", [(i, i % 7) for i in range(2000)])
    conn = ds.connect()
    assert len(conn.execute("SELECT id FROM t WHERE v > 0 LIMIT 3").fetchall()) == 3
    assert sum(read) <= BATCH_ROWS
    read.clear()
    assert len(conn.execute("SELECT id FROM t WHERE v > 0").fetchall()) == 2000 - 286
    assert sum(read) == 2000


# ---------------------------------------------------------------------------
# A NULL bound selects nothing, reads nothing and is priced as such
# ---------------------------------------------------------------------------

NULL_BOUNDS = [
    ("k = ?", (None,)),
    ("k = NULL", ()),
    ("k < ?", (None,)),
    ("k <= ?", (None,)),
    ("k > ?", (None,)),
    ("k >= NULL", ()),
    ("? > k", (None,)),
    ("k BETWEEN ? AND ?", (None, 12)),
    ("k BETWEEN ? AND ?", (12, None)),
    ("k BETWEEN NULL AND NULL", ()),
    ("k IN (?)", (None,)),
    ("k IN (NULL, NULL)", ()),
    ("id = ?", (None,)),
    ("id IN (?, ?)", (None, None)),
]


@pytest.fixture(scope="module")
def null_source():
    ds = DataSource("nulls", latency=LatencyModel())
    ds.execute("CREATE TABLE n (id INT PRIMARY KEY, k INT)")
    ds.execute("CREATE INDEX idx_k ON n (k)")
    ds.connect().cursor().executemany(
        "INSERT INTO n (id, k) VALUES (?, ?)",
        [(i, None if i % 4 == 0 else i % 25) for i in range(1000)])
    return ds


@pytest.mark.parametrize("cond, params", NULL_BOUNDS)
def test_a_null_bound_reads_and_prices_no_row(null_source, cond, params):
    database = null_source.database
    sql = f"SELECT id FROM n WHERE {cond}"
    result = execute_statement(database, parse(sql), params)
    assert list(result.rows) == OracleConnection(null_source).execute(sql, params).fetchall() == []
    rows = database.table("n").row_count
    assert result.cost == database.latency.statement_cost(rows, 0, True)


def test_null_items_of_an_in_list_contribute_nothing(null_source):
    database = null_source.database
    sql = "SELECT id FROM n WHERE k IN (?, ?, ?)"
    params = (None, 3, None)
    result = execute_statement(database, parse(sql), params)
    rows = sorted(result.rows)
    assert rows == sorted(OracleConnection(null_source).execute(sql, params).fetchall())
    assert len(rows) == 30  # i % 25 == 3, less every fourth (NULL)
    table_rows = database.table("n").row_count
    assert result.cost == database.latency.statement_cost(table_rows, len(rows), True)
