"""Tests for the baseline systems and the shared topology builders."""

import pytest

from paper.systems import (
    DEFAULT_LATENCY,
    AuroraLikeSystem,
    MiddlewareSystem,
    NewSQLSystem,
    ShardingJDBCSystem,
    ShardingProxySystem,
    SingleNodeSystem,
)
from paper.topology import (
    RangeLevelAlgorithm,
    make_grid_rule,
    make_grid_sharding,
    make_range_grid_rule,
    make_sources,
)
from repro.sharding import ShardingValue


class TestTopology:
    def test_make_sources(self):
        sources = make_sources(["a", "b"], io_channels=7)
        assert set(sources) == {"a", "b"}
        assert sources["a"].io_channels == 7

    def test_hash_grid_distributes_by_div_mod(self):
        rule = make_grid_rule("t", ["ds0", "ds1"], 3, "id")
        # id=5 -> ds 5%2=1, table (5//2)%3=2
        nodes = rule.route({"id": ShardingValue("id", values=[5])})
        assert len(nodes) == 1
        assert nodes[0].data_source == "ds1"
        assert nodes[0].table == "t_2"

    def test_hash_grid_single_source_skips_db_level(self):
        rule = make_grid_rule("t", ["ds0"], 4, "id")
        nodes = rule.route({"id": ShardingValue("id", values=[6])})
        assert nodes[0].table == "t_2"

    def test_range_grid_blocks(self):
        rule = make_range_grid_rule("t", ["ds0", "ds1"], 2, "id", key_space=100)
        # ds block = 50, table block = 25
        assert rule.route({"id": ShardingValue("id", values=[10])})[0].table == "t_0"
        assert rule.route({"id": ShardingValue("id", values=[30])})[0].table == "t_1"
        assert rule.route({"id": ShardingValue("id", values=[60])})[0].data_source == "ds1"

    def test_range_grid_prunes_ranges(self):
        rule = make_range_grid_rule("t", ["ds0", "ds1"], 2, "id", key_space=100)
        nodes = rule.route({"id": ShardingValue("id", range_=(5, 20))})
        assert len(nodes) == 1  # entirely within ds0.t_0
        nodes = rule.route({"id": ShardingValue("id", range_=(5, 30))})
        assert len(nodes) == 2

    def test_range_level_algorithm_validates(self):
        with pytest.raises(ValueError):
            RangeLevelAlgorithm(0, 2)

    def test_grid_sharding_per_table_override(self):
        rule = make_grid_sharding(
            [("a", "id"), ("b", "id", 5)], ["ds0"], tables_per_source=2
        )
        assert len(rule.table_rule("a").data_nodes) == 2
        assert len(rule.table_rule("b").data_nodes) == 5

    def test_range_layout_requires_key_space(self):
        with pytest.raises(ValueError):
            make_grid_sharding([("a", "id")], ["ds0"], 2, layout="range")


def exercise(system, create=True):
    """Common SUT contract: DDL, DML, query, transaction round trip."""
    session = system.session()
    try:
        if create:
            session.execute("CREATE TABLE t_probe (id INT PRIMARY KEY, v INT)")
        session.execute("INSERT INTO t_probe (id, v) VALUES (1, 10), (2, 20)")
        assert session.execute("SELECT v FROM t_probe WHERE id = 2") == [(20,)]
        session.begin()
        session.execute("UPDATE t_probe SET v = 99 WHERE id = 1")
        session.rollback()
        assert session.execute("SELECT v FROM t_probe WHERE id = 1") == [(10,)]
        count = session.execute("DELETE FROM t_probe WHERE id = 2")
        assert count == 1
    finally:
        session.close()


class TestSystemContracts:
    def test_single_node(self):
        with SingleNodeSystem("sn") as system:
            exercise(system)

    def test_ssj(self):
        with ShardingJDBCSystem([("t_probe", "id")], num_sources=2, tables_per_source=2) as system:
            exercise(system)

    def test_ssp_over_real_socket(self):
        with ShardingProxySystem([("t_probe", "id")], num_sources=2, tables_per_source=2) as system:
            exercise(system)

    def test_middleware(self):
        with MiddlewareSystem([("t_probe", "id")], num_sources=2, forwarding_delay=0.0) as system:
            exercise(system)

    def test_newsql_uses_xa(self):
        with NewSQLSystem([("t_probe", "id")], num_sources=2, kv_rtt=0.0) as system:
            from repro.transaction import TransactionType

            assert system.runtime.transaction_manager.transaction_type is TransactionType.XA
            exercise(system)

    def test_aurora_like(self):
        with AuroraLikeSystem(request_hop=0.0) as system:
            exercise(system)
            assert system.source.io_channels == 32

    def test_newsql_consensus_amplifies_writes(self):
        system = NewSQLSystem([("t", "id")], num_sources=1, replication_factor=3)
        base = system.runtime.data_sources["kv0"].latency
        assert base.commit_io > DEFAULT_LATENCY.commit_io
        system.close()

    def test_sharded_systems_share_runtime_dict(self):
        system = ShardingJDBCSystem([("t", "id")], num_sources=2, tables_per_source=1)
        assert system.runtime.data_sources is system.runtime.engine.data_sources
        system.close()
