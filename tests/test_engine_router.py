"""Unit tests for the SQL router: broadcast / standard / cartesian routes."""

import pytest

from repro.engine import build_context, route
from repro.exceptions import RouteError
from repro.sharding import DataNode, ShardingRule, StandardShardingStrategy, TableRule, create_algorithm
from repro.sql import parse


def routed(sql, rule, params=()):
    context = build_context(parse(sql), sql, params, rule)
    return route(context, rule)


class TestStandardRoute:
    def test_equality_single_node(self, paper_rule):
        result = routed("SELECT * FROM t_user WHERE uid = 4", paper_rule)
        assert result.route_type == "standard"
        assert result.is_single
        unit = result.units[0]
        assert unit.data_source == "ds0"
        assert unit.actual_table("t_user") == "t_user_h0"

    def test_in_spans_nodes(self, paper_rule):
        result = routed("SELECT * FROM t_user WHERE uid IN (1, 2)", paper_rule)
        assert len(result.units) == 2
        assert sorted(u.data_source for u in result.units) == ["ds0", "ds1"]

    def test_no_condition_hits_all_nodes(self, paper_rule):
        result = routed("SELECT * FROM t_user", paper_rule)
        assert len(result.units) == 2
        assert result.route_type == "broadcast"

    def test_update_and_delete_route(self, paper_rule):
        result = routed("UPDATE t_user SET age = 1 WHERE uid = 3", paper_rule)
        assert result.is_single and result.units[0].data_source == "ds1"
        result = routed("DELETE FROM t_user WHERE uid = 2", paper_rule)
        assert result.is_single and result.units[0].data_source == "ds0"


class TestBindingRoute:
    def test_paper_example(self, paper_rule):
        """The exact routing example of Section V-B."""
        result = routed(
            "SELECT * FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE u.uid IN (1, 2)",
            paper_rule,
        )
        assert result.route_type == "standard"
        assert len(result.units) == 2
        maps = {u.data_source: u.table_map for u in result.units}
        assert maps["ds0"] == {"t_user": "t_user_h0", "t_order": "t_order_h0"}
        assert maps["ds1"] == {"t_user": "t_user_h1", "t_order": "t_order_h1"}

    def test_condition_on_partner_table_narrows(self, paper_rule):
        result = routed(
            "SELECT * FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE o.uid = 2",
            paper_rule,
        )
        assert result.is_single
        assert result.units[0].data_source == "ds0"


class TestCartesianRoute:
    def test_paper_example(self, nonbinding_rule):
        result = routed(
            "SELECT * FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE u.uid IN (1, 2)",
            nonbinding_rule,
        )
        assert result.route_type == "cartesian"
        # One user table and one order table per source -> 1 combo per ds.
        assert len(result.units) == 2

    def test_cartesian_explodes_within_source(self):
        algo = create_algorithm("MOD", {"sharding-count": 2})
        t_a = TableRule(
            "t_a",
            [DataNode("ds0", "t_a_0"), DataNode("ds0", "t_a_1")],
            table_strategy=StandardShardingStrategy("k", algo),
        )
        algo2 = create_algorithm("MOD", {"sharding-count": 2})
        t_b = TableRule(
            "t_b",
            [DataNode("ds0", "t_b_0"), DataNode("ds0", "t_b_1")],
            table_strategy=StandardShardingStrategy("k", algo2),
        )
        rule = ShardingRule([t_a, t_b])
        result = routed("SELECT * FROM t_a JOIN t_b ON t_a.k = t_b.k", rule)
        assert result.route_type == "cartesian"
        assert len(result.units) == 4  # 2 x 2 cross product

    def test_no_colocated_shards_raises(self):
        t_a = TableRule("t_a", [DataNode("ds0", "t_a_0")])
        t_b = TableRule("t_b", [DataNode("ds1", "t_b_0")])
        rule = ShardingRule([t_a, t_b])
        with pytest.raises(RouteError):
            routed("SELECT * FROM t_a JOIN t_b ON t_a.k = t_b.k", rule)

    def test_a_source_with_no_node_of_a_joined_table_raises(self, paper_rule):
        """t_user's rows on ds1 have no t_note there to join: the units on
        ds0 alone would drop them."""
        rule = ShardingRule(
            [paper_rule.table_rule("t_user"), TableRule("t_note", [DataNode("ds0", "t_note")])],
            default_data_source="ds0",
        )
        with pytest.raises(RouteError, match="co-located"):
            routed("SELECT * FROM t_user u JOIN t_note n ON u.uid = n.uid", rule)
        result = routed("SELECT * FROM t_user u JOIN t_note n ON u.uid = n.uid "
                        "WHERE u.uid = 2", rule)
        assert [unit.data_source for unit in result.units] == ["ds0"]

    def test_a_source_the_conditions_did_not_route_is_skipped(self, nonbinding_rule):
        result = routed(
            "SELECT * FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE u.uid = 1",
            nonbinding_rule,
        )
        assert result.route_type == "cartesian"
        assert [unit.data_source for unit in result.units] == ["ds1"]


class TestTableInNoRule:
    """A table in no rule lives on the default source (ds0) only."""

    def test_joined_where_the_units_are_on_the_default_source(self, paper_rule):
        result = routed(
            "SELECT * FROM t_user u JOIN t_extra x ON u.uid = x.uid WHERE u.uid = 2",
            paper_rule,
        )
        assert [unit.data_source for unit in result.units] == ["ds0"]

    def test_a_unit_elsewhere_raises(self, paper_rule):
        for sql in ("SELECT * FROM t_user u JOIN t_extra x ON u.uid = x.uid",
                    "SELECT * FROM t_user u JOIN t_extra x ON u.uid = x.uid WHERE u.uid = 1"):
            with pytest.raises(RouteError, match="co-located"):
                routed(sql, paper_rule)


class TestInsertRoute:
    def test_rows_split_by_shard(self, paper_rule):
        result = routed(
            "INSERT INTO t_user (uid, name) VALUES (1, 'a'), (2, 'b'), (3, 'c')",
            paper_rule,
        )
        by_ds = {u.data_source: u.row_indexes for u in result.units}
        assert by_ds == {"ds1": (0, 2), "ds0": (1,)}

    def test_single_shard_insert(self, paper_rule):
        result = routed("INSERT INTO t_user (uid, name) VALUES (2, 'b')", paper_rule)
        assert result.is_single

    def test_broadcast_table_insert_goes_everywhere(self, paper_rule):
        result = routed("INSERT INTO t_dict (k, v) VALUES ('a', 'b')", paper_rule)
        assert result.route_type == "broadcast"
        assert len(result.units) == 2


class TestBroadcastAndUnicast:
    def test_ddl_on_sharded_table_hits_all_nodes(self, paper_rule):
        result = routed("TRUNCATE TABLE t_user", paper_rule)
        assert result.route_type == "broadcast"
        assert len(result.units) == 2
        tables = sorted(u.actual_table("t_user") for u in result.units)
        assert tables == ["t_user_h0", "t_user_h1"]

    def test_create_table_on_unknown_goes_to_default(self, paper_rule):
        result = routed("CREATE TABLE t_new (a INT)", paper_rule)
        assert result.route_type == "unicast"
        assert result.units[0].data_source == "ds0"

    def test_select_broadcast_table_unicasts(self, paper_rule):
        result = routed("SELECT * FROM t_dict", paper_rule)
        assert result.route_type == "unicast"
        assert result.is_single

    def test_update_broadcast_table_goes_everywhere(self, paper_rule):
        result = routed("UPDATE t_dict SET v = 'x' WHERE k = 'a'", paper_rule)
        assert result.route_type == "broadcast"
        assert len(result.units) == 2

    def test_unsharded_table_unicast(self, paper_rule):
        result = routed("SELECT * FROM t_plain", paper_rule)
        assert result.route_type == "unicast"
        assert result.units[0].data_source == "ds0"

    def test_hint_routes_without_where(self, fleet, paper_rule):
        from repro.engine import build_context
        from repro.sharding import HintShardingStrategy, TableRule, DataNode, create_algorithm

        hint_rule = TableRule(
            "t_user",
            [DataNode("ds0", "t_user_h0"), DataNode("ds1", "t_user_h1")],
            database_strategy=HintShardingStrategy(create_algorithm("MOD", {"sharding-count": 2})),
        )
        rule = ShardingRule([hint_rule])
        statement = parse("SELECT * FROM t_user")
        context = build_context(statement, "", (), rule, hint_values=[1])
        result = route(context, rule)
        assert result.is_single
        assert result.units[0].data_source == "ds1"
