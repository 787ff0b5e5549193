"""Compiled storage plans: differential, invalidation and hot-path tests.

The differential suite runs every statement against *twin* data sources —
one through ``Connection.execute`` (compiled closure pipelines, the only
executor in ``src/``), one through the reference interpreter in
``tests/oracle`` — and asserts identical results. Each statement is
executed twice on both twins so the compiled side exercises both the
compile (miss) and the cached (hit) path.
"""

import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import SQLEngine
from repro.engine.federation import _RowBudget
from repro.exceptions import UnsupportedSQLError
from repro.sharding import make_vertical_sharding
from repro.sql import ast, parse
from repro.storage import DataSource

from .oracle import OracleConnection

SCHEMA_T = (
    "CREATE TABLE t (id INT PRIMARY KEY, grp INT, val FLOAT, name VARCHAR(32), flag INT)"
)
SCHEMA_U = "CREATE TABLE u (uid INT PRIMARY KEY, grp INT, tag VARCHAR(16))"
U_ROWS = [(1, 0, "x"), (2, 1, "y"), (3, 1, "z"), (4, 3, "w"), (5, None, "q")]

DIFF_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_twins(rows):
    """Two identical data sources: the first runs compiled plans, the
    second is read and written through the oracle only."""
    twins = []
    for tag in ("compiled", "oracle"):
        ds = DataSource(f"twin_{tag}")
        ds.execute(SCHEMA_T)
        ds.execute("CREATE INDEX idx_grp ON t (grp)")
        ds.execute("CREATE INDEX idx_val ON t (val)")
        ds.execute(SCHEMA_U)
        conn = ds.connect().cursor() if tag == "compiled" else OracleConnection(ds)
        conn.executemany(
            "INSERT INTO t (id, grp, val, name, flag) VALUES (?, ?, ?, ?, ?)", rows
        )
        conn.executemany("INSERT INTO u (uid, grp, tag) VALUES (?, ?, ?)", U_ROWS)
        twins.append((ds, ds.connect() if tag == "compiled" else conn))
    return twins


def run_pair(twins, sql, params=()):
    """Execute on both twins; return [(rows, rowcount), (rows, rowcount)]."""
    outs = []
    for _ds, conn in twins:
        cur = conn.execute(sql, params)
        outs.append((cur.fetchall(), cur.rowcount))
    return outs


def assert_same_result(sql, compiled, reference):
    """Same rowcount; the same rows in the same order under a (total)
    ORDER BY, else the same multiset — without one the row order is the
    access path's choice (index order vs the oracle's heap scan)."""
    assert compiled[1] == reference[1], sql
    if "ORDER BY" in sql:
        assert compiled[0] == reference[0], sql
    else:
        assert Counter(compiled[0]) == Counter(reference[0]), sql


def assert_twins_agree(twins, sql, params=()):
    """Run twice on both twins (compile, then hit) and compare everything."""
    first = run_pair(twins, sql, params)
    second = run_pair(twins, sql, params)
    assert_same_result(sql, *first)
    assert_same_result(sql, *second)
    assert first[0] == second[0], sql  # SELECTs must be repeatable


def assert_unordered_limit_agrees(twins, sql, limit, params=()):
    """``LIMIT`` without ``ORDER BY`` keeps whichever rows the access path
    yields first: the compiled side must return the right *number* of rows,
    all drawn from what the oracle returns for the unlimited statement."""
    (compiled_ds, compiled), (_ds, reference) = twins
    everything = Counter(reference.execute(sql, params).fetchall())
    words = limit.split()  # LIMIT n [OFFSET m]
    count, offset = int(words[1]), int(words[3]) if len(words) > 2 else 0
    for _ in range(2):  # compile, then hit
        got = compiled.execute(f"{sql} {limit}", params).fetchall()
        assert len(got) == max(0, min(count, sum(everything.values()) - offset)), sql
        assert Counter(got) <= everything, sql


def table_contents(twins):
    return run_pair(twins, "SELECT * FROM t ORDER BY id")


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

grp_s = st.one_of(st.none(), st.integers(0, 5))
val_s = st.one_of(st.none(), st.floats(-50, 50, allow_nan=False, width=32))
name_s = st.one_of(st.none(), st.sampled_from(["ann", "bo", "che", "dee", "Ann", "a%b"]))
flag_s = st.integers(0, 1)

rows_s = st.lists(st.tuples(grp_s, val_s, name_s, flag_s), max_size=25).map(
    lambda raw: [(i, g, v, n, f) for i, (g, v, n, f) in enumerate(raw)]
)

#: bounds of an integer range conjunct: exactly int runs the batch kernel,
#: anything else the conjunct's closure
int_bound_s = st.one_of(
    st.integers(-2, 7),
    st.floats(-2, 7, allow_nan=False, width=32),
    st.booleans(),
    st.none(),
)
comparison_s = st.sampled_from(["=", "<>", "<", ">", "<=", ">="])
#: string bounds for numeric columns: numeric text, and text that is not a number
str_bound_s = st.sampled_from(["1", "3", "0.5", "12", "-1", "x"])

where_s = st.one_of(
    st.just(("", ())),
    st.builds(lambda k: (f"WHERE id = {k}", ()), st.integers(0, 30)),
    st.builds(lambda k: ("WHERE id = ?", (k,)), st.integers(0, 30)),
    st.builds(
        lambda a, b: (f"WHERE id BETWEEN {min(a, b)} AND {max(a, b)}", ()),
        st.integers(0, 30),
        st.integers(0, 30),
    ),
    st.builds(lambda g: (f"WHERE grp = {g}", ()), st.integers(0, 5)),
    st.builds(lambda g: ("WHERE grp < ?", (g,)), st.integers(0, 5)),
    st.builds(lambda v: (f"WHERE val >= {v}", ()), st.integers(-40, 40)),
    st.just(("WHERE name IS NULL", ())),
    st.just(("WHERE name IS NOT NULL AND grp IS NOT NULL", ())),
    st.just(("WHERE name LIKE 'a%'", ())),
    st.builds(
        lambda g, f: (f"WHERE grp = {g} AND flag = {f}", ()),
        st.integers(0, 5),
        flag_s,
    ),
    st.builds(
        lambda g, f: (f"WHERE grp = {g} OR flag = {f}", ()),
        st.integers(0, 5),
        flag_s,
    ),
    st.builds(
        lambda ks: ("WHERE id IN (%s)" % ", ".join(map(str, ks)), ()),
        st.lists(st.integers(0, 30), min_size=1, max_size=5),
    ),
    st.just(("WHERE NOT (flag = 1)", ())),
    st.builds(lambda v: (f"WHERE val * 2 > {v}", ()), st.integers(-40, 40)),
    st.builds(lambda a, b: ("WHERE grp BETWEEN ? AND ?", (a, b)), int_bound_s, int_bound_s),
    st.builds(lambda a, b: ("WHERE grp NOT BETWEEN ? AND ? AND flag = 1", (a, b)),
              int_bound_s, int_bound_s),
    st.builds(lambda op, b: (f"WHERE ? {op} grp", (b,)), comparison_s, int_bound_s),
    st.builds(lambda op, b: (f"WHERE name IS NOT NULL AND grp {op} ?", (b,)),
              comparison_s, int_bound_s),
    st.builds(lambda g: (f"WHERE grp > {g} AND val IS NOT NULL", ()), st.integers(-3, 5)),
    # str bounds: on ``flag`` (no index), and on the indexed ``grp``, ``val``
    # and ``id``, where an index path must not answer for them
    st.builds(lambda column, op, b: (f"WHERE {column} {op} ?", (b,)),
              st.sampled_from(["flag", "grp", "val", "id"]), comparison_s, str_bound_s),
    st.builds(lambda column, op, b: (f"WHERE {column} {op} '{b}'", ()),
              st.sampled_from(["grp", "id"]), comparison_s, str_bound_s),
    st.builds(lambda a, b: ("WHERE grp BETWEEN ? AND ?", (a, b)),
              st.one_of(str_bound_s, int_bound_s), st.one_of(str_bound_s, int_bound_s)),
    st.builds(lambda a, b: (f"WHERE id BETWEEN '{a}' AND {b}", ()), str_bound_s,
              st.integers(0, 30)),
    st.builds(lambda ks: ("WHERE id IN (%s)" % ", ".join(ks), ()),
              st.lists(st.one_of(st.integers(0, 30).map(str),
                                 st.integers(0, 30).map("'{}'".format)),
                       min_size=1, max_size=4)),
)

select_items_s = st.sampled_from(
    [
        "*",
        "id, grp, val",
        "id, val * 2 AS dv",
        "id, COALESCE(grp, -1) AS g",
        "name, id",
    ]
)

# Every ORDER BY ends in the unique ``id`` so row order is total and the
# compiled and oracle outputs can be compared exactly.
order_s = st.sampled_from(
    [
        "",
        "ORDER BY id",
        "ORDER BY id DESC",
        "ORDER BY grp, id",
        "ORDER BY val DESC, id",
        "ORDER BY grp DESC, val ASC, id",
        "ORDER BY name, id",
    ]
)

limit_s = st.sampled_from(["", "LIMIT 5", "LIMIT 3 OFFSET 2", "LIMIT 0"])


# ---------------------------------------------------------------------------
# Differential suite (property-based)
# ---------------------------------------------------------------------------


class TestDifferentialSelect:
    @DIFF_SETTINGS
    @given(rows=rows_s, items=select_items_s, where=where_s, order=order_s, limit=limit_s)
    def test_select_matches_interpreter(self, rows, items, where, order, limit):
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
    def test_grouped_aggregates_match_interpreter(self, rows, where):
        twins = make_twins(rows)
        cond, params = where
        sql = (
            "SELECT grp, COUNT(*) AS c, SUM(val) AS s, MIN(val) AS mn, "
            f"MAX(val) AS mx, AVG(val) AS av FROM t {cond} GROUP BY grp ORDER BY grp"
        )
        assert_twins_agree(twins, sql, params)
        having = (
            f"SELECT grp, COUNT(*) AS c FROM t {cond} GROUP BY grp "
            "HAVING COUNT(*) > 1 ORDER BY grp"
        )
        assert_twins_agree(twins, having, params)
        integers = (
            "SELECT flag, COUNT(grp) AS c, SUM(grp) AS s, AVG(grp) AS av, MIN(grp) AS mn, "
            f"MAX(grp) AS mx, COUNT(DISTINCT grp) AS d FROM t {cond} GROUP BY flag ORDER BY flag"
        )
        assert_twins_agree(twins, integers, params)

    @DIFF_SETTINGS
    @given(rows=rows_s, where=where_s)
    def test_global_aggregates_match_interpreter(self, rows, where):
        twins = make_twins(rows)
        cond, params = where
        sql = f"SELECT COUNT(*), COUNT(val), AVG(val), MAX(name) FROM t {cond}"
        assert_twins_agree(twins, sql, params)
        sql = (f"SELECT SUM(grp), AVG(grp), MIN(grp), MAX(grp), SUM(DISTINCT grp), "
               f"COUNT(DISTINCT val), MIN(val) FROM t {cond}")
        assert_twins_agree(twins, sql, params)

    @DIFF_SETTINGS
    @given(rows=rows_s)
    def test_distinct_matches_interpreter(self, rows):
        twins = make_twins(rows)
        assert_twins_agree(twins, "SELECT DISTINCT grp, flag FROM t ORDER BY grp, flag")
        assert_twins_agree(twins, "SELECT DISTINCT grp FROM t WHERE flag = 1 ORDER BY grp")

    @DIFF_SETTINGS
    @given(rows=rows_s)
    def test_joins_match_interpreter(self, rows):
        twins = make_twins(rows)
        for sql in (
            "SELECT t.id, u.uid, u.tag FROM t JOIN u ON t.grp = u.grp "
            "ORDER BY t.id, u.uid",
            "SELECT t.id, u.uid, u.tag FROM t LEFT JOIN u ON t.grp = u.grp "
            "ORDER BY t.id, u.uid",
            "SELECT t.id, u.uid FROM t JOIN u ON t.grp = u.grp AND u.uid > 1 "
            "ORDER BY t.id, u.uid",
            "SELECT t.id, u.uid FROM t JOIN u ON t.grp < u.grp ORDER BY t.id, u.uid",
            "SELECT u.grp, COUNT(*) AS c FROM t JOIN u ON t.grp = u.grp "
            "GROUP BY u.grp ORDER BY u.grp",
        ):
            assert_twins_agree(twins, sql)


class TestDifferentialDML:
    @DIFF_SETTINGS
    @given(
        rows=rows_s,
        where=where_s,
        setter=st.sampled_from(
            [
                ("SET val = val + 1", ()),
                ("SET name = 'zz'", ()),
                ("SET flag = 1 - flag", ()),
                ("SET val = ?, name = ?", (9.5, "bound")),
            ]
        ),
    )
    def test_update_matches_interpreter(self, rows, where, setter):
        twins = make_twins(rows)
        assignment, set_params = setter
        cond, where_params = where
        sql = f"UPDATE t {assignment} {cond}".strip()
        params = tuple(set_params) + tuple(where_params)
        first = run_pair(twins, sql, params)
        second = run_pair(twins, sql, params)
        assert first[0][1] == first[1][1], sql  # rowcounts agree
        assert second[0][1] == second[1][1], sql
        state = table_contents(twins)
        assert state[0] == state[1], sql

    @DIFF_SETTINGS
    @given(rows=rows_s, where=where_s)
    def test_delete_matches_interpreter(self, rows, where):
        twins = make_twins(rows)
        cond, params = where
        sql = f"DELETE FROM t {cond}".strip()
        first = run_pair(twins, sql, params)
        assert first[0][1] == first[1][1], sql
        state = table_contents(twins)
        assert state[0] == state[1], sql


class TestBoundOfTheOtherTypeFamily:
    """A string bound on an indexed numeric column (or a number on an
    indexed text column) reads as the comparison does, not as the index
    orders keys."""

    ROWS = [(i, i % 6, float(i), str(i * 3), i % 2) for i in range(10)]

    @pytest.mark.parametrize("sql, params", [
        ("SELECT id FROM t WHERE grp > '3' ORDER BY id", ()),
        ("SELECT id FROM t WHERE grp = '3' ORDER BY id", ()),
        ("SELECT id FROM t WHERE grp BETWEEN '3' AND 5 ORDER BY id", ()),
        ("SELECT id FROM t WHERE grp BETWEEN ? AND ? ORDER BY grp, id", ("2", 4)),
        ("SELECT id FROM t WHERE id = ?", ("3",)),
        ("SELECT id FROM t WHERE id IN ('2', 4) ORDER BY id", ()),
        ("SELECT id, val FROM t WHERE val >= '4.5' ORDER BY val DESC", ()),
        ("SELECT id FROM t WHERE grp < '3' ORDER BY grp DESC, id", ()),
    ])
    def test_select(self, sql, params):
        twins = make_twins(self.ROWS)
        assert run_pair(twins, sql, params)[0][0] != []
        assert_twins_agree(twins, sql, params)

    def test_number_on_an_indexed_text_column(self):
        twins = make_twins(self.ROWS)
        for ds, _conn in twins:
            ds.execute("CREATE INDEX idx_name ON t (name)")
        assert_twins_agree(twins, "SELECT id FROM t WHERE name = 9")
        assert_twins_agree(twins, "SELECT id FROM t WHERE name > 10 ORDER BY name")

    def test_composite_index(self):
        twins = make_twins(self.ROWS)
        for ds, _conn in twins:
            ds.execute("CREATE INDEX idx_grp_flag ON t (grp, flag)")
        sql = "SELECT id FROM t WHERE grp = ? AND flag = ? ORDER BY id"
        assert run_pair(twins, sql, ("3", 1))[0][0] == [(3,), (9,)]
        assert_twins_agree(twins, sql, ("3", 1))
        assert_twins_agree(twins, sql, (3, "1"))

    def test_update_and_delete(self):
        twins = make_twins(self.ROWS)
        assert run_pair(twins, "UPDATE t SET flag = 7 WHERE grp >= '4'") == [
            ([], 2), ([], 2)]
        assert run_pair(twins, "DELETE FROM t WHERE id = '5'") == [([], 1), ([], 1)]
        state = table_contents(twins)
        assert state[0] == state[1]


class TestOrderPreservingAccess:
    def test_index_order_skips_sort_but_matches_multiset(self):
        rows = [(i, i % 3, float(i), None, 0) for i in range(12)]
        twins = make_twins(rows)
        sql = "SELECT grp, id FROM t ORDER BY grp"
        outs = [run_pair(twins, sql)[i][0] for i in (0, 1)]
        # Tie order within equal grp keys may differ; the multiset and the
        # key sequence must not.
        assert sorted(outs[0]) == sorted(outs[1])
        assert [r[0] for r in outs[0]] == [r[0] for r in outs[1]]
        keys = [r[0] for r in outs[0]]
        assert keys == sorted(keys)

    def test_desc_single_key(self):
        rows = [(i, None, float(i % 4), None, 0) for i in range(10)]
        twins = make_twins(rows)
        sql = "SELECT val, id FROM t WHERE val IS NOT NULL ORDER BY val DESC"
        outs = [run_pair(twins, sql)[i][0] for i in (0, 1)]
        assert sorted(outs[0]) == sorted(outs[1])
        assert [r[0] for r in outs[0]] == [r[0] for r in outs[1]]


# ---------------------------------------------------------------------------
# Cache behaviour: hits, invalidation, no stale plans
# ---------------------------------------------------------------------------


def fresh_source(name="inval"):
    ds = DataSource(name)
    ds.execute("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(16))")
    conn = ds.connect()
    conn.cursor().executemany(
        "INSERT INTO t (a, b) VALUES (?, ?)", [(1, "one"), (2, "two"), (3, "three")]
    )
    # The parameterized load INSERT compiles too (PR 8); zero the counters
    # so the lifecycle assertions below only see their own statements.
    cache = ds.database.plan_cache
    cache.hits = cache.misses = cache.bypasses = 0
    return ds, conn


class TestPlanCacheLifecycle:
    def test_miss_then_hit(self):
        ds, conn = fresh_source()
        cache = ds.database.plan_cache
        sql = "SELECT b FROM t WHERE a = ?"
        assert conn.execute(sql, (1,)).fetchall() == [("one",)]
        assert conn.execute(sql, (2,)).fetchall() == [("two",)]
        assert cache.misses == 1
        assert cache.hits == 1

    def test_create_index_invalidates(self):
        ds, conn = fresh_source()
        cache = ds.database.plan_cache
        sql = "SELECT b FROM t WHERE a = 2"
        conn.execute(sql)
        conn.execute(sql)
        assert cache.hits == 1
        before = cache.invalidations
        conn.execute("CREATE INDEX idx_b ON t (b)")
        assert conn.execute(sql).fetchall() == [("two",)]
        assert cache.invalidations == before + 1

    def test_drop_create_reordered_columns_no_stale_offsets(self):
        ds, conn = fresh_source()
        cache = ds.database.plan_cache
        sql = "SELECT * FROM t WHERE a = 1"
        conn.execute(sql)
        conn.execute(sql)
        assert conn.execute(sql).fetchall() == [(1, "one")]
        # Recreate with the column order flipped: a compiled plan pinned to
        # the old schema would project swapped offsets.
        conn.execute("DROP TABLE t")
        conn.execute("CREATE TABLE t (b VARCHAR(16), a INT PRIMARY KEY)")
        conn.execute("INSERT INTO t (b, a) VALUES ('uno', 1)")
        before = cache.invalidations
        assert conn.execute(sql).fetchall() == [("uno", 1)]
        assert cache.invalidations == before + 1

    def test_truncate_invalidates(self):
        ds, conn = fresh_source()
        cache = ds.database.plan_cache
        sql = "SELECT COUNT(*) FROM t"
        assert conn.execute(sql).fetchall() == [(3,)]
        assert conn.execute(sql).fetchall() == [(3,)]
        before = cache.invalidations
        conn.execute("TRUNCATE TABLE t")
        assert conn.execute(sql).fetchall() == [(0,)]
        assert cache.invalidations == before + 1

    def test_select_without_from_is_a_miss_then_a_hit(self):
        ds, conn = fresh_source()
        cache = ds.database.plan_cache
        assert conn.execute("SELECT 1 + 1").fetchall() == [(2,)]
        assert (cache.misses, cache.hits, cache.bypasses) == (1, 0, 0)
        assert conn.execute("SELECT 1 + 1").fetchall() == [(2,)]
        assert (cache.misses, cache.hits, cache.bypasses) == (1, 1, 0)

    def test_unkeyed_ast_is_compiled_each_time_and_never_stored(self):
        ds, conn = fresh_source()
        cache = ds.database.plan_cache
        size = cache.stats()["size"]
        stmt = parse("SELECT b FROM t WHERE a = 3")  # no storage_plan_key
        for run in (1, 2):
            assert conn.execute(stmt).fetchall() == [("three",)]
            assert (cache.misses, cache.hits, cache.bypasses) == (run, 0, 0)
        assert cache.stats()["size"] == size

    def test_literal_only_insert_texts_do_not_grow_the_cache(self):
        ds, conn = fresh_source()
        cache = ds.database.plan_cache
        size = cache.stats()["size"]
        for a in (10, 11, 12):  # bulk-load text: never the same twice
            conn.execute(f"INSERT INTO t (a, b) VALUES ({a}, 'x'), ({a + 100}, 'y')")
        assert cache.stats()["size"] == size
        assert (cache.misses, cache.hits, cache.bypasses) == (3, 0, 0)
        # the parameterized form is stored and hit
        conn.execute("INSERT INTO t (a, b) VALUES (?, ?)", (20, "z"))
        conn.execute("INSERT INTO t (a, b) VALUES (?, ?)", (21, "z"))
        assert cache.stats()["size"] == size  # compiled by fresh_source's load
        assert cache.hits == 2
        assert conn.execute("SELECT COUNT(*) FROM t").fetchall() == [(11,)]


class TestExecutemany:
    def test_parses_once_and_accumulates_rowcount(self, monkeypatch):
        import repro.storage.connection as conn_mod

        ds = DataSource("many")
        ds.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        conn = ds.connect()
        calls = {"n": 0}
        real_parse = conn_mod.parse

        def counting_parse(sql):
            calls["n"] += 1
            return real_parse(sql)

        monkeypatch.setattr(conn_mod, "parse", counting_parse)
        cur = conn.cursor()
        cur.executemany("INSERT INTO t (a, b) VALUES (?, ?)", [(1, 1), (2, 2), (3, 3)])
        assert calls["n"] == 1
        assert cur.rowcount == 3

        cur = conn.cursor()
        cur.executemany("UPDATE t SET b = b + 1 WHERE a >= ?", [(1,), (3,)])
        assert cur.rowcount == 4  # 3 rows + 1 row, cumulative

    def test_update_compiles_once(self):
        ds = DataSource("many2")
        ds.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        conn = ds.connect()
        conn.cursor().executemany("INSERT INTO t (a, b) VALUES (?, ?)", [(i, 0) for i in range(6)])
        cache = ds.database.plan_cache
        cur = conn.cursor()
        cur.executemany("UPDATE t SET b = ? WHERE a = ?", [(i * 10, i) for i in range(6)])
        assert cur.rowcount == 6
        # one miss for the load INSERT plan + one for the UPDATE plan: the
        # batch looks its plan up once, not once per binding
        assert cache.misses == 2
        assert cache.hits == 0
        assert conn.execute("SELECT b FROM t ORDER BY a").fetchall() == [
            (0,), (10,), (20,), (30,), (40,), (50,)
        ]

    def test_empty_sequence(self):
        ds = DataSource("many3")
        ds.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        cur = ds.connect().cursor()
        cur.executemany("INSERT INTO t (a) VALUES (?)", [])
        assert cur.rowcount == 0
        assert cur.fetchall() == []


# ---------------------------------------------------------------------------
# Hot path: zero AST traversals end to end (acceptance criterion)
# ---------------------------------------------------------------------------


class TestHotPathZeroAST:
    def test_fully_hot_prepared_statement_never_walks_ast(self, seeded_engine, monkeypatch):
        sql = "SELECT name FROM t_user WHERE uid = ?"
        # Warm every layer: engine template cache, route memo, storage plan.
        for _ in range(3):
            assert seeded_engine.execute(sql, (3,)).fetchall() == [("carol",)]

        import repro.storage.plans as storage_plans

        walks = {"n": 0}
        real_walk = ast.Expression.walk

        def counting_walk(self):
            walks["n"] += 1
            return real_walk(self)

        def boom(*args, **kwargs):  # pragma: no cover - only fires on regression
            raise AssertionError("hot path compiled a storage plan")

        monkeypatch.setattr(ast.Expression, "walk", counting_walk)
        monkeypatch.setattr(storage_plans, "compile_storage_plan", boom)

        engine_hits = seeded_engine.plan_cache.hits
        storage_hits = sum(
            ds.database.plan_cache.hits for ds in seeded_engine.data_sources.values()
        )
        result = seeded_engine.execute(sql, (3,))
        assert result.fetchall() == [("carol",)]
        assert walks["n"] == 0
        assert seeded_engine.plan_cache.hits == engine_hits + 1
        assert (
            sum(ds.database.plan_cache.hits for ds in seeded_engine.data_sources.values())
            == storage_hits + 1
        )


# ---------------------------------------------------------------------------
# Federation: parallel materialization under an exact row budget
# ---------------------------------------------------------------------------


class TestFederationBudget:
    def test_row_budget_is_exact_under_threads(self):
        budget = _RowBudget(1000)
        successes = []

        def worker():
            ok = 0
            for _ in range(200):
                try:
                    budget.charge()
                except UnsupportedSQLError:
                    break
                ok += 1
            successes.append(ok)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(successes) == 1000

    @pytest.fixture
    def split_fleet(self):
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

    def test_parallel_federation_results_unchanged(self, split_fleet):
        result = split_fleet.execute(
            "SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid "
            "ORDER BY o.amount DESC"
        )
        assert result.route_type == "federation"
        assert result.fetchall() == [("bo", 6.0), ("ann", 4.0), ("ann", 1.5)]

    def test_budget_enforced_across_parallel_pulls(self, split_fleet, monkeypatch):
        import repro.engine.federation as federation

        # 3 user rows + 3 order rows = 6 materialized rows total.
        monkeypatch.setattr(federation, "MAX_FEDERATION_ROWS", 5)
        with pytest.raises(UnsupportedSQLError, match="materialize more than"):
            split_fleet.execute(
                "SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid"
            )

        monkeypatch.setattr(federation, "MAX_FEDERATION_ROWS", 6)
        result = split_fleet.execute(
            "SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid "
            "ORDER BY o.amount"
        )
        assert result.fetchall() == [("ann", 1.5), ("ann", 4.0), ("bo", 6.0)]
