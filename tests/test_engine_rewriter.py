"""Unit tests for the SQL rewriter (correctness + optimization rewrites)."""


from repro.engine import build_context, rewrite, route
from repro.sql import parse


def run(sql, rule, params=()):
    context = build_context(parse(sql), sql, params, rule)
    route_result = route(context, rule)
    return rewrite(context, route_result), route_result


class TestIdentifierRewrite:
    def test_table_renamed(self, paper_rule):
        result, _ = run("SELECT * FROM t_user WHERE uid = 4", paper_rule)
        assert result.execution_units[0].sql == "SELECT * FROM t_user_h0 WHERE uid = 4"

    def test_alias_shields_qualifiers(self, paper_rule):
        result, _ = run("SELECT u.name FROM t_user u WHERE u.uid = 4", paper_rule)
        assert result.execution_units[0].sql == "SELECT u.name FROM t_user_h0 u WHERE u.uid = 4"

    def test_dangling_qualifier_follows_rename(self, paper_rule):
        result, _ = run("SELECT t_user.name FROM t_user WHERE t_user.uid = 4", paper_rule)
        sql = result.execution_units[0].sql
        assert sql == "SELECT t_user_h0.name FROM t_user_h0 WHERE t_user_h0.uid = 4"

    def test_binding_join_rewrite_paper_example(self, paper_rule):
        result, _ = run(
            "SELECT * FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE u.uid IN (1, 2)",
            paper_rule,
        )
        sqls = sorted(u.sql for u in result.execution_units)
        assert sqls == [
            "SELECT * FROM t_order_h0 o INNER JOIN t_user_h0 u ON u.uid = o.uid WHERE u.uid IN (1, 2)"
            if False else
            "SELECT * FROM t_user_h0 u INNER JOIN t_order_h0 o ON u.uid = o.uid WHERE u.uid IN (1, 2)",
            "SELECT * FROM t_user_h1 u INNER JOIN t_order_h1 o ON u.uid = o.uid WHERE u.uid IN (1, 2)",
        ]


class TestDerivedColumns:
    def test_order_by_derivation_paper_example(self, paper_rule):
        """Paper: 'SELECT oid FROM t_order ORDER BY uid' derives uid."""
        result, _ = run("SELECT oid FROM t_order ORDER BY uid", paper_rule)
        sql = result.execution_units[0].sql
        assert "uid AS ORDER_BY_DERIVED_0" in sql

    def test_group_by_derivation(self, paper_rule):
        result, _ = run("SELECT COUNT(*) FROM t_user GROUP BY age", paper_rule)
        sql = result.execution_units[0].sql
        assert "age AS GROUP_BY_DERIVED_0" in sql

    def test_avg_decomposed(self, paper_rule):
        result, _ = run("SELECT AVG(age) FROM t_user", paper_rule)
        sql = result.execution_units[0].sql
        assert "COUNT(age) AS AVG_DERIVED_COUNT_0" in sql
        assert "SUM(age) AS AVG_DERIVED_SUM_0" in sql
        spec = result.merge_spec
        avg = spec.aggregates[0]
        assert avg.func == "AVG" and avg.count_index == 1 and avg.sum_index == 2

    def test_no_derivation_when_column_selected(self, paper_rule):
        result, _ = run("SELECT oid, uid FROM t_order ORDER BY uid", paper_rule)
        assert "DERIVED" not in result.execution_units[0].sql

    def test_star_needs_no_derivation(self, paper_rule):
        result, _ = run("SELECT * FROM t_user ORDER BY age", paper_rule)
        assert "DERIVED" not in result.execution_units[0].sql

    def test_merge_spec_strips_derived_columns(self, paper_rule):
        result, _ = run("SELECT oid FROM t_order ORDER BY uid", paper_rule)
        assert result.merge_spec.output_width == 1


class TestPaginationRevision:
    def test_offset_folded_into_count(self, paper_rule):
        result, _ = run("SELECT * FROM t_user ORDER BY uid LIMIT 10 OFFSET 5", paper_rule)
        for unit in result.execution_units:
            assert unit.sql.endswith("LIMIT 15")
        assert result.merge_spec.limit_count == 10
        assert result.merge_spec.limit_offset == 5

    def test_placeholder_limits_resolved(self, paper_rule):
        result, _ = run(
            "SELECT * FROM t_user ORDER BY uid LIMIT ? OFFSET ?", paper_rule, params=(10, 5)
        )
        assert result.execution_units[0].sql.endswith("LIMIT 15")
        assert result.merge_spec.limit_count == 10

    def test_single_node_keeps_original_pagination(self, paper_rule):
        result, _ = run("SELECT * FROM t_user WHERE uid = 2 ORDER BY uid LIMIT 10 OFFSET 5", paper_rule)
        sql = result.execution_units[0].sql
        assert "LIMIT 10 OFFSET 5" in sql

    def test_offset_only(self, paper_rule):
        result, _ = run("SELECT * FROM t_user ORDER BY uid OFFSET 3", paper_rule)
        # per-shard SQL has no LIMIT (must fetch everything)
        assert "LIMIT" not in result.execution_units[0].sql
        assert result.merge_spec.limit_offset == 3

    def test_group_top_n_by_an_aggregate_reads_every_group(self, paper_rule):
        # a shard's first rows rank its partial sums: no row count below the merge
        result, _ = run("SELECT age, SUM(uid) AS s FROM t_user GROUP BY age "
                        "ORDER BY s DESC LIMIT 2 OFFSET 1", paper_rule)
        for unit in result.execution_units:
            assert "LIMIT" not in unit.sql
        assert (result.merge_spec.limit_count, result.merge_spec.limit_offset) == (2, 1)

    def test_group_top_n_by_the_group_keys_keeps_the_unit_limit(self, paper_rule):
        for order in ("age", "age DESC", "a", "age, SUM(uid)"):
            result, _ = run(f"SELECT age AS a, SUM(uid) FROM t_user GROUP BY age "
                            f"ORDER BY {order} LIMIT 2 OFFSET 1", paper_rule)
            for unit in result.execution_units:
                assert unit.sql.endswith("LIMIT 3"), (order, unit.sql)

    def test_group_top_n_by_a_prefix_of_the_keys_reads_every_group(self, paper_rule):
        result, _ = run("SELECT age, name, COUNT(*) FROM t_user GROUP BY age, name "
                        "ORDER BY age LIMIT 2", paper_rule)
        for unit in result.execution_units:
            assert "LIMIT" not in unit.sql


class TestInsertSplit:
    def test_rows_distributed(self, paper_rule):
        result, route_result = run(
            "INSERT INTO t_user (uid, name) VALUES (1, 'a'), (2, 'b'), (3, 'c')", paper_rule
        )
        sqls = {u.data_source: u.sql for u in result.execution_units}
        assert sqls["ds1"] == "INSERT INTO t_user_h1 (uid, name) VALUES (1, 'a'), (3, 'c')"
        assert sqls["ds0"] == "INSERT INTO t_user_h0 (uid, name) VALUES (2, 'b')"

    def test_placeholders_renumbered_per_unit(self, paper_rule):
        result, _ = run(
            "INSERT INTO t_user (uid, name) VALUES (?, ?), (?, ?)",
            paper_rule,
            params=(1, "a", 2, "b"),
        )
        by_ds = {u.data_source: u for u in result.execution_units}
        assert by_ds["ds1"].params == (1, "a")
        assert by_ds["ds0"].params == (2, "b")
        assert by_ds["ds0"].sql.count("?") == 2

    def test_single_node_insert_not_split(self, paper_rule):
        result, _ = run("INSERT INTO t_user (uid, name) VALUES (2, 'a'), (4, 'b')", paper_rule)
        assert len(result.execution_units) == 1
        assert result.execution_units[0].sql.count("(") >= 2


class TestStreamMergerOptimization:
    def test_group_by_gains_order_by(self, paper_rule):
        result, _ = run("SELECT age, COUNT(*) FROM t_user GROUP BY age", paper_rule)
        sql = result.execution_units[0].sql
        assert "ORDER BY age" in sql
        assert result.merge_spec.group_equals_order

    def test_group_with_different_order_not_stream(self, paper_rule):
        result, _ = run(
            "SELECT age, COUNT(*) AS c FROM t_user GROUP BY age ORDER BY c DESC", paper_rule
        )
        assert not result.merge_spec.group_equals_order

    def test_paper_group_order_same_is_stream(self, paper_rule):
        result, _ = run(
            "SELECT age, SUM(uid) FROM t_user GROUP BY age ORDER BY age", paper_rule
        )
        assert result.merge_spec.group_equals_order


class TestSingleNodeOptimization:
    def test_no_rewrites_on_single_node(self, paper_rule):
        result, _ = run("SELECT oid FROM t_order WHERE uid = 2 ORDER BY uid", paper_rule)
        sql = result.execution_units[0].sql
        assert "DERIVED" not in sql
        assert result.merge_spec.single_node

    def test_params_pass_through(self, paper_rule):
        result, _ = run("SELECT * FROM t_user WHERE uid = ? AND age > ?", paper_rule, params=(2, 10))
        unit = result.execution_units[0]
        assert unit.params == (2, 10)
