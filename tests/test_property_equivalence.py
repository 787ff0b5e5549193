"""Property tests: a sharded fleet must behave exactly like one database.

The paper's core promise is transparency — "use sharded databases like one
database". These tests run the same randomized workload against (a) a
single unsharded DataSource and (b) a sharded SQLEngine, and require
identical results for every query shape the engine supports.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paper.topology import make_grid_sharding, make_sources
from repro.engine import SQLEngine
from repro.storage import DataSource

ROW_COUNT = 60


def build_pair(num_sources=2, tables_per_source=3, layout="hash"):
    """(reference single DB, sharded engine) over the same logical table."""
    reference = DataSource("ref")
    reference.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT)")

    sources = make_sources([f"ds{i}" for i in range(num_sources)])
    rule = make_grid_sharding(
        [("t", "id")], list(sources), tables_per_source,
        layout=layout, key_space=10_000,
    )
    engine = SQLEngine(sources, rule, max_connections_per_query=4)
    engine.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT)")
    return reference, engine


def seed(reference, engine, rows):
    values = ", ".join(f"({i}, {g}, {v})" for i, (g, v) in enumerate(rows))
    reference.execute(f"INSERT INTO t (id, grp, val) VALUES {values}")
    engine.execute(f"INSERT INTO t (id, grp, val) VALUES {values}")


def check(rows, statements, compare=None, **layout):
    """Run ``statements`` — literal SQL, in order — against the reference,
    against an engine that runs literals as their prepared shape (the
    second statement of a shape is a plan hit) and against one with
    ``plan_cache.enabled = False`` (no normalisation: every statement takes
    the literal path). Every answer must be the reference's. Returns the
    first engine's plan-cache hits."""
    reference, cached = build_pair(**layout)
    reference_again, plain = build_pair(**layout)
    plain.plan_cache.enabled = False
    untouched = plain.plan_cache.stats()
    seed(reference, cached, rows)
    seed(reference_again, plain, rows)
    try:
        for sql in statements:
            expected = reference.execute(sql)
            assert reference_again.execute(sql) == expected
            for engine in (cached, plain):
                result = engine.execute(sql)
                if not result.is_query:
                    assert result.update_count == expected, (sql, engine.plan_cache.enabled)
                elif compare is not None:
                    compare(result.fetchall(), expected)
                else:
                    assert result.fetchall() == expected, (sql, engine.plan_cache.enabled)
        assert plain.plan_cache.stats() == untouched
        return cached.plan_cache.hits
    finally:
        cached.close()
        plain.close()


rows_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=-50, max_value=50)),
    min_size=ROW_COUNT, max_size=ROW_COUNT,
)
READ_BACK = "SELECT id, grp, val FROM t ORDER BY id"


def same_signs(first, second):
    """`-5` is the shape `-?` and `5` the shape `?`: two draws share a plan
    only when their literals agree in sign."""
    return all(str(a).startswith("-") == str(b).startswith("-") for a, b in zip(first, second))


def twice(*strategies):
    """Two draws for one statement shape: the second run is the plan hit."""
    one = st.tuples(*strategies)
    return st.tuples(one, one)


class TestQueryEquivalence:
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=rows_strategy, ranges=twice(st.integers(0, 59), st.integers(0, 30)))
    def test_range_scan(self, rows, ranges):
        hits = check(rows, [
            f"SELECT id, val FROM t WHERE id BETWEEN {low} AND {low + span} ORDER BY id"
            for low, span in ranges])
        assert hits == 1

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=rows_strategy)
    def test_group_by_aggregates(self, rows):
        def compare(got, expected):
            assert len(got) == len(expected)
            for g_row, e_row in zip(got, expected):
                assert g_row[:5] == e_row[:5]
                assert g_row[5] == pytest.approx(e_row[5])

        sql = (
            "SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val), AVG(val) "
            "FROM t GROUP BY grp ORDER BY grp"
        )
        assert check(rows, [sql, sql], compare) == 1

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=rows_strategy, pages=twice(st.integers(1, 20), st.integers(0, 15), st.integers(-50, 50)))
    def test_pagination(self, rows, pages):
        # LIMIT / OFFSET are plan shape, never extracted: one plan per page size
        check(rows, [f"SELECT id FROM t ORDER BY val, id LIMIT {limit} OFFSET {offset}"
                     for limit, offset, _ in pages])
        hits = check(rows, [
            f"SELECT id FROM t WHERE val >= {floor} ORDER BY val, id LIMIT {limit} OFFSET {offset}"
            for limit, offset, floor in pages])
        assert hits == (pages[0][:2] == pages[1][:2] and same_signs(pages[0][2:], pages[1][2:]))

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=rows_strategy)
    def test_distinct(self, rows):
        sql = "SELECT DISTINCT grp FROM t ORDER BY grp"
        assert check(rows, [sql, sql]) == 1

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=rows_strategy,
           updates=twice(st.integers(0, 59), st.integers(-5, 5), st.integers(0, 9)))
    def test_update_then_read_back(self, rows, updates):
        statements = []
        for key, delta, group in updates:
            statements += [
                f"UPDATE t SET val = val + {delta} WHERE id = {key}",  # delta: arithmetic, stays
                f"UPDATE t SET grp = {group}, val = -val WHERE id = {key}",  # SET right-hand side
                READ_BACK,
            ]
        hits = check(rows, statements)
        assert hits == 2 + (updates[0][1] == updates[1][1])

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=rows_strategy, thresholds=twice(st.integers(-50, 50)))
    def test_delete_predicate(self, rows, thresholds):
        statements = []
        for (threshold,) in thresholds:
            statements += [f"DELETE FROM t WHERE val < {threshold}", "SELECT COUNT(*), SUM(val) FROM t"]
        assert check(rows, statements) == 1 + same_signs(*thresholds)

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=rows_strategy,
           lookups=twice(st.lists(st.integers(0, 59), min_size=1, max_size=6, unique=True)))
    def test_in_lookup_both_layouts(self, rows, lookups):
        # IN lists keep their arity: two lists share a plan only at equal length
        statements = [
            f"SELECT id, grp FROM t WHERE id IN ({', '.join(map(str, ids))}) ORDER BY id"
            for (ids,) in lookups]
        for layout in ("hash", "range"):
            hits = check(rows, statements, layout=layout)
            assert hits == (len(lookups[0][0]) == len(lookups[1][0]))

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=rows_strategy, bounds=twice(
        st.integers(-50, 50), st.floats(-50, 50, allow_nan=False).map(lambda f: round(f, 2))))
    def test_negative_and_float_literals(self, rows, bounds):
        hits = check(rows, [
            f"SELECT id, val FROM t WHERE val = {exact} OR val > {above} OR val <= -49.5 ORDER BY id"
            for exact, above in bounds])
        assert hits == same_signs(*bounds)

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=rows_strategy, counts=twice(st.integers(0, 1), st.integers(0, 5)))
    def test_having_count(self, rows, counts):
        # grouped by the sharding key: HAVING is evaluated per shard, which
        # equals the single-node answer only when no group spans shards
        hits = check(rows, [
            f"SELECT id, COUNT(*) FROM t WHERE grp <= {group} GROUP BY id "
            f"HAVING COUNT(*) > {count} ORDER BY id"
            for count, group in counts])
        assert hits == 1

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=rows_strategy, cases=twice(st.integers(0, 5), st.integers(0, 50)))
    def test_case_when(self, rows, cases):
        hits = check(rows, [
            f"SELECT id FROM t WHERE CASE WHEN grp = {group} THEN val ELSE 0 END > {floor} "
            "ORDER BY id" for group, floor in cases])
        assert hits == 1
        # in the select list the compared literal makes the shape unfit
        # for literals (DESIGN.md "Statement identity"): both run as sent
        hits = check(rows, [
            f"SELECT id, CASE WHEN grp = {group} THEN 'in' ELSE 'out' END AS side FROM t "
            f"WHERE val > {floor} ORDER BY id" for group, floor in cases])
        assert hits == 0

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=rows_strategy, keys=twice(st.integers(0, 59)))
    def test_string_literal_against_int_column(self, rows, keys):
        statements = []
        for (key,) in keys:
            statements += [f"SELECT id, val FROM t WHERE id = '{key}'",
                           f"SELECT id FROM t WHERE val = '{key}' OR id = {key} ORDER BY id"]
        assert check(rows, statements) == 2


class TestPlacementInvariants:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ids=st.lists(st.integers(0, 9999), min_size=1, max_size=40, unique=True),
           layout=st.sampled_from(["hash", "range"]))
    def test_each_row_lands_in_exactly_one_node(self, ids, layout):
        sources = make_sources(["ds0", "ds1", "ds2"])
        rule = make_grid_sharding([("t", "id")], list(sources), 4,
                                  layout=layout, key_space=10_000)
        engine = SQLEngine(sources, rule, max_connections_per_query=4)
        engine.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        values = ", ".join(f"({i}, 1)" for i in ids)
        engine.execute(f"INSERT INTO t (id, v) VALUES {values}")
        total = 0
        for source in sources.values():
            for table in source.database.table_names():
                total += source.database.table(table).row_count
        assert total == len(ids)
        # and every row is individually retrievable by point query
        for i in ids[:5]:
            assert engine.execute(f"SELECT v FROM t WHERE id = {i}").fetchall() == [(1,)]
        engine.close()


class TestGroupedTopN:
    """``ORDER BY <aggregate> LIMIT n`` over groups spread across shards: a
    unit that kept the LIMIT would drop groups on the partial aggregates
    it ranks, and the merge would sum what was left. MOD sharding over four
    sources; group g holds a distinct count of rows and a distinct sum."""

    GROUPS = [0, 1, 2, 3, 4, 4, 3, 2, 1, 4, 3, 2, 4, 3, 4, 2, 1, 0, 4, 3, 4, 1, 2, 3]
    ROWS = [(g, 1 + i % 5) for i, g in enumerate(GROUPS)]
    LAYOUT = dict(num_sources=4, tables_per_source=1)

    def test_top_n_by_sum(self):
        check(self.ROWS, ["SELECT grp, SUM(val) AS s FROM t GROUP BY grp "
                          "ORDER BY s DESC LIMIT 2"] * 2, **self.LAYOUT)

    def test_top_one_by_count(self):
        check(self.ROWS, ["SELECT grp, COUNT(*) AS n FROM t GROUP BY grp "
                          "ORDER BY n DESC LIMIT 1"] * 2, **self.LAYOUT)

    def test_by_sum_with_an_offset(self):
        check(self.ROWS, ["SELECT grp, SUM(val) AS s FROM t GROUP BY grp "
                          "ORDER BY s LIMIT 2 OFFSET 1"] * 2, **self.LAYOUT)

    def test_control_by_the_group_key(self):
        check(self.ROWS, ["SELECT grp, SUM(val) AS s FROM t GROUP BY grp "
                          "ORDER BY grp LIMIT 2"] * 2, **self.LAYOUT)

