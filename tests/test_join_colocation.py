"""Joins run as shard units only where co-location is proved; anything
else federates, and either way the rows are one node's rows.

The router decides once (``repro.engine.router._join_route``): the key
joins of the ON and WHERE conjuncts connect every table reference and the
tables form a binding group, or every routed node lies on one data source,
or the key joins connect every reference and the tables place a key on the
same data source. The differential grid below compares a two-source fleet
with one ``DataSource`` holding the same rows.
"""

import pytest

from paper.topology import make_grid_sharding
from repro.engine import SQLEngine, build_context, route
from repro.exceptions import CoLocationError
from repro.sharding import (
    ComplexShardingStrategy,
    DataNode,
    ShardingRule,
    ShardingValue,
    TableRule,
    create_algorithm,
)
from repro.sql import parse
from repro.storage import DataSource

USER_SCHEMA = "(uid INT PRIMARY KEY, name VARCHAR(64), age INT)"
ORDER_SCHEMA = "(oid INT PRIMARY KEY, uid INT, amount FLOAT)"


def routed(sql, rule, params=()):
    return route(build_context(parse(sql), sql, params, rule), rule)


def multiset(rows):
    return sorted(rows, key=repr)


# ---------------------------------------------------------------------------
# The wrong answers this decision fixed (conftest's 4 + 4 rows)
# ---------------------------------------------------------------------------


def seed(engine):
    engine.execute(
        "INSERT INTO t_user (uid, name, age) VALUES "
        "(1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35), (4, 'dave', 28)")
    engine.execute(
        "INSERT INTO t_order (oid, uid, amount) VALUES "
        "(10, 1, 5.0), (11, 2, 7.5), (12, 3, 3.0), (13, 1, 2.0)")
    return engine


@pytest.fixture(params=["paper_rule", "nonbinding_rule"], ids=["bound", "unbound"])
def either_engine(request, fleet):
    engine = seed(SQLEngine(fleet, request.getfixturevalue(request.param),
                            max_connections_per_query=2))
    yield engine
    engine.close()


class TestRegressions:
    def test_a_non_key_join_keeps_its_cross_source_pairs(self, either_engine):
        result = either_engine.execute(
            "SELECT u.name, o.oid FROM t_user u JOIN t_order o ON o.amount < u.age")
        assert result.route_type == "federation"
        assert len(result.fetchall()) == 16

    def test_a_federated_table_is_pulled_from_the_nodes_its_pushdown_routes_to(
            self, fleet, nonbinding_rule):
        """Each table's pushed-down conjuncts carry its own key: one pull
        each, not one per node, and the answer is one node's answer."""
        engine = seed(SQLEngine(fleet, nonbinding_rule, max_connections_per_query=2))
        before = {name: source.database.statements_executed for name, source in fleet.items()}
        result = engine.execute(
            "SELECT u.name, o.oid FROM t_user u JOIN t_order o ON o.amount < u.age "
            "WHERE u.uid = 1 AND o.uid = 2")
        pulls = {name: source.database.statements_executed - before[name]
                 for name, source in fleet.items()}
        assert result.route_type == "federation"
        assert result.fetchall() == [("alice", 11)]
        assert pulls == {"ds0": 1, "ds1": 1}
        # a table referenced twice is still pulled whole: one pull serves both
        before = {name: source.database.statements_executed for name, source in fleet.items()}
        result = engine.execute(
            "SELECT a.name, b.name FROM t_user a JOIN t_user b ON a.age < b.age WHERE a.uid = 1")
        assert sorted(result.fetchall()) == [("alice", "carol")]
        assert {name: source.database.statements_executed - before[name]
                for name, source in fleet.items()} == {"ds0": 1, "ds1": 1}
        engine.close()

    def test_a_bound_left_join_off_its_key_pairs_every_user(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT u.name, o.oid FROM t_user u LEFT JOIN t_order o ON o.amount > 6")
        assert multiset(result.fetchall()) == [
            ("alice", 11), ("bob", 11), ("carol", 11), ("dave", 11)]

    def test_a_self_join_off_its_key_sees_both_sources(self, seeded_engine):
        result = seeded_engine.execute(
            "SELECT a.name, b.name FROM t_user a JOIN t_user b ON a.age < b.age")
        assert result.route_type == "federation"
        assert len(result.fetchall()) == 6

    def test_an_outer_join_s_on_narrows_no_table(self, either_engine):
        """``o.uid = 1`` in a LEFT JOIN's ON filters no user: every user is
        kept, with NULLs where no order matched."""
        result = either_engine.execute(
            "SELECT u.name, o.oid FROM t_user u LEFT JOIN t_order o "
            "ON u.uid = o.uid AND o.uid = 1")
        assert multiset(result.fetchall()) == [
            ("alice", 10), ("alice", 13), ("bob", None), ("carol", None), ("dave", None)]

    def test_contradicting_keys_answer_no_rows(self, either_engine):
        result = either_engine.execute(
            "SELECT u.name, o.oid FROM t_user u JOIN t_order o ON u.uid = o.uid "
            "WHERE u.uid = 1 AND o.uid = 3")
        assert result.fetchall() == []
        assert either_engine.execute(
            "SELECT COUNT(*) FROM t_user WHERE uid = 1 AND uid = 3").fetchall() == [(0,)]

    def test_key_joins_keep_their_routes(self, either_engine, request):
        bound = request.node.callspec.params["either_engine"] == "paper_rule"
        for join in ("JOIN", "LEFT JOIN"):
            result = either_engine.execute(
                f"SELECT u.name, o.oid FROM t_user u {join} t_order o ON u.uid = o.uid")
            assert result.route_type == ("standard" if bound else "cartesian")
            assert len(result.fetchall()) == (5 if join == "LEFT JOIN" else 4)
        result = either_engine.execute(
            "SELECT a.name, b.name FROM t_user a JOIN t_user b ON a.uid = b.uid")
        assert (result.route_type, len(result.fetchall())) == ("broadcast", 4)


class TestRouteDecision:
    def test_fig14_units_bound_and_common(self):
        """Fig. 14's join on 2 sources x 10 tables: 20 units bound, 200 common."""
        sql = "SELECT COUNT(*) FROM t_left l JOIN t_right r ON l.id = r.id WHERE l.k > 0"
        tables = [("t_left", "id"), ("t_right", "id")]
        for groups, units, route_type in (([["t_left", "t_right"]], 20, "standard"),
                                          ([], 200, "cartesian")):
            rule = make_grid_sharding(tables, ["ds0", "ds1"], 10, binding_groups=groups)
            result = routed(sql, rule)
            assert (len(result.units), result.route_type) == (units, route_type)

    def test_a_binding_group_alone_proves_nothing(self, paper_rule):
        with pytest.raises(CoLocationError, match="co-located"):
            routed("SELECT * FROM t_user u JOIN t_order o ON u.age = o.amount", paper_rule)

    def test_unqualified_keys_are_no_evidence(self, paper_rule):
        with pytest.raises(CoLocationError):
            routed("SELECT * FROM t_user u JOIN t_order o ON uid = uid", paper_rule)

    def test_another_strategy_class_is_not_proved_alike(self, paper_rule):
        hashed = TableRule(
            "t_order", [DataNode("ds0", "t_order_h0"), DataNode("ds1", "t_order_h1")],
            database_strategy=ComplexShardingStrategy(
                ["uid"], create_algorithm("COMPLEX_INLINE", {
                    "sharding-columns": "uid", "algorithm-expression": "ds${uid % 2}"})))
        rule = ShardingRule([paper_rule.table_rule("t_user"), hashed])
        with pytest.raises(CoLocationError):
            routed("SELECT * FROM t_user u JOIN t_order o ON u.uid = o.uid", rule)

    def test_a_plan_hit_routes_on_the_same_key_joins(self, either_engine):
        sql = "SELECT u.name, o.oid FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE u.uid = ?"
        first = either_engine.execute(sql, (1,))
        hits = either_engine.plan_cache.hits
        second = either_engine.execute(sql, (2,))
        assert either_engine.plan_cache.hits == hits + 1
        assert first.route_type == second.route_type != "federation"
        assert (multiset(first.fetchall()), second.fetchall()) == (
            [("alice", 10), ("alice", 13)], [("bob", 11)])


# ---------------------------------------------------------------------------
# Differential grid: the fleet against one DataSource
# ---------------------------------------------------------------------------

USERS = "(1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35), (4, 'dave', 28), (5, 'eve', 4), (6, 'fay', NULL)"
ORDERS = "(4, 2, 9.0), (10, 1, 5.0), (11, 2, 7.5), (12, 3, 3.0), (13, 1, 2.0), (25, 4, 25.0), (30, 7, 35.0)"

#: (FROM/JOIN, ON by kind); ``a`` and ``b`` are the two references
PAIRS = {
    "user_order": ("t_user a {join} t_order b ON {on}", {
        "key": "b.uid = a.uid", "off_key": "b.oid = a.age", "inequality": "b.amount < a.age"}),
    "self": ("t_user a {join} t_user b ON {on}", {
        "key": "b.uid = a.uid", "off_key": "b.age = a.uid", "inequality": "a.age < b.age"}),
}
#: WHERE -> parameter sets: the first run compiles the plan (the slow
#: path), the later ones are plan hits where the plan allows
WHERES = {
    "none": ("", [(), ()]),
    "one_source": ("WHERE a.uid = ?", [(1,), (1,), (2,)]),
    "two_sources": ("WHERE a.uid IN (?, ?)", [(1, 2), (1, 2), (3, 4)]),
    "both_sides": ("WHERE a.uid = ? AND b.uid = ?", [(1, 3), (1, 3), (1, 2)]),
}


@pytest.fixture(scope="module")
def one_node():
    node = DataSource("one")
    node.execute(f"CREATE TABLE t_user {USER_SCHEMA}")
    node.execute(f"CREATE TABLE t_order {ORDER_SCHEMA}")
    node.execute(f"INSERT INTO t_user (uid, name, age) VALUES {USERS}")
    node.execute(f"INSERT INTO t_order (oid, uid, amount) VALUES {ORDERS}")
    return node


@pytest.mark.parametrize("where", list(WHERES))
@pytest.mark.parametrize("on", ["key", "off_key", "inequality"])
@pytest.mark.parametrize("join", ["JOIN", "LEFT JOIN"])
@pytest.mark.parametrize("pair", list(PAIRS))
@pytest.mark.parametrize("rule", ["paper_rule", "nonbinding_rule"], ids=["bound", "unbound"])
def test_sharded_join_equals_one_node(request, fleet, one_node, rule, pair, join, on, where):
    tables, ons = PAIRS[pair]
    clause, param_sets = WHERES[where]
    sql = f"SELECT a.uid, a.name, b.* FROM {tables.format(join=join, on=ons[on])} {clause}"
    engine = SQLEngine(fleet, request.getfixturevalue(rule), max_connections_per_query=2)
    try:
        engine.execute(f"INSERT INTO t_user (uid, name, age) VALUES {USERS}")
        engine.execute(f"INSERT INTO t_order (oid, uid, amount) VALUES {ORDERS}")
        misses = engine.plan_cache.misses
        for params in param_sets:
            result = engine.execute(sql, params)
            assert multiset(result.fetchall()) == multiset(one_node.execute(sql, params)), (
                sql, params, result.route_type)
            if on == "key" and where == "none":
                assert result.route_type != "federation"
        assert engine.plan_cache.misses == misses + 1
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# ComplexShardingStrategy: several sharding columns, one algorithm
# ---------------------------------------------------------------------------


def complex_strategy():
    return ComplexShardingStrategy(["uid", "rid"], create_algorithm("COMPLEX_INLINE", {
        "sharding-columns": "uid, rid", "algorithm-expression": "ds${(uid * 2 + rid) % 4}"}))


TARGETS = ["ds0", "ds1", "ds2", "ds3"]


class TestComplexStrategy:
    def test_precise_values_route_the_cross_product_of_picks(self):
        strategy = complex_strategy()
        conditions = {"uid": ShardingValue("uid", values=[1, 2]),
                      "rid": ShardingValue("rid", values=[0, 1])}
        # (1,0) -> ds2, (1,1) -> ds3, (2,0) -> ds0, (2,1) -> ds1
        assert strategy.route(TARGETS, conditions) == ["ds2", "ds3", "ds0", "ds1"]
        conditions["uid"] = ShardingValue("uid", values=[3])
        assert strategy.route(TARGETS, conditions) == ["ds2", "ds3"]

    @pytest.mark.parametrize("conditions", [
        {"uid": ShardingValue("uid", values=[1])},
        {"uid": ShardingValue("uid", values=[1]), "rid": ShardingValue("rid", range_=(0, 1))},
        {"uid": ShardingValue("uid", values=[]), "rid": ShardingValue("rid", values=[1])},
    ], ids=["missing", "range", "empty"])
    def test_a_missing_or_range_column_routes_every_target(self, conditions):
        assert complex_strategy().route(TARGETS, conditions) == TARGETS

    @pytest.fixture
    def complex_engine(self, fleet, paper_rule):
        """``t_visit`` placed by (uid, rid) over ds0 and ds1, joined with
        ``t_user``: its key is two columns, so no key join proves a pair."""
        strategy = ComplexShardingStrategy(["uid", "rid"], create_algorithm("COMPLEX_INLINE", {
            "sharding-columns": "uid, rid", "algorithm-expression": "ds${(uid + rid) % 2}"}))
        for i, source in enumerate(fleet.values()):
            source.execute(f"CREATE TABLE t_visit_{i} (vid INT PRIMARY KEY, uid INT, rid INT)")
        visit = TableRule("t_visit", [DataNode("ds0", "t_visit_0"), DataNode("ds1", "t_visit_1")],
                          database_strategy=strategy)
        rule = ShardingRule([paper_rule.table_rule("t_user"), visit], default_data_source="ds0")
        engine = SQLEngine(fleet, rule, max_connections_per_query=2)
        engine.execute("INSERT INTO t_user (uid, name, age) VALUES "
                       "(1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35), (4, 'dave', 28)")
        yield engine
        engine.close()

    VISITS = "(1, 1, 0), (2, 1, 1), (3, 2, 1), (4, 3, 1), (5, 4, 0)"

    def test_the_engine_routes_a_complex_key(self, complex_engine):
        complex_engine.execute(f"INSERT INTO t_visit (vid, uid, rid) VALUES {self.VISITS}")
        result = complex_engine.execute("SELECT vid FROM t_visit WHERE uid = 1 AND rid = 1")
        assert [u.data_source for u in result.units] == ["ds0"]
        assert result.fetchall() == [(2,)]
        assert len(complex_engine.execute("SELECT vid FROM t_visit WHERE uid = 1").units) == 2

    def test_a_join_over_it_is_not_proved_and_federates(self, complex_engine):
        complex_engine.execute(f"INSERT INTO t_visit (vid, uid, rid) VALUES {self.VISITS}")
        node = DataSource("one")
        node.execute(f"CREATE TABLE t_user {USER_SCHEMA}")
        node.execute("CREATE TABLE t_visit (vid INT PRIMARY KEY, uid INT, rid INT)")
        node.execute("INSERT INTO t_user (uid, name, age) VALUES "
                     "(1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35), (4, 'dave', 28)")
        node.execute(f"INSERT INTO t_visit (vid, uid, rid) VALUES {self.VISITS}")
        sql = "SELECT u.name, v.vid FROM t_user u JOIN t_visit v ON v.uid = u.uid"
        result = complex_engine.execute(sql)
        assert result.route_type == "federation"
        assert multiset(result.fetchall()) == multiset(node.execute(sql))
