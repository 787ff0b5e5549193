"""Tests for the benchmark substrate: workloads, runner, reporting."""

import random

import pytest

from paper.runner import Measurement, run_benchmark, sysbench_row, tpcc_row
from paper.sysbench import SCENARIOS, SysbenchConfig, SysbenchWorkload
from paper.systems import ShardingJDBCSystem, SingleNodeSystem
from paper.tpcc import TPCC_BROADCAST_TABLES, TPCC_SHARDED_TABLES, TPCCConfig, TPCCWorkload
from repro.__main__ import format_table


@pytest.fixture
def small_single():
    system = SingleNodeSystem("unit")
    yield system
    system.close()


class TestSysbenchWorkload:
    def test_prepare_loads_exact_row_count(self, small_single):
        workload = SysbenchWorkload(SysbenchConfig(table_size=257))
        workload.prepare(small_single)
        session = small_single.session()
        assert session.execute("SELECT COUNT(*) FROM sbtest") == [(257,)]
        session.close()

    def test_rows_have_sysbench_shape(self, small_single):
        cfg = SysbenchConfig(table_size=20)
        SysbenchWorkload(cfg).prepare(small_single)
        session = small_single.session()
        rows = session.execute("SELECT id, k, c, pad FROM sbtest ORDER BY id")
        assert [r[0] for r in rows] == list(range(1, 21))
        assert all(1 <= r[1] <= 20 for r in rows)
        assert all(len(r[2]) == cfg.c_length for r in rows)
        assert all(len(r[3]) == cfg.pad_length for r in rows)
        session.close()

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_scenario_executes(self, small_single, scenario):
        workload = SysbenchWorkload(SysbenchConfig(table_size=100))
        workload.prepare(small_single)
        session = small_single.session()
        rng = random.Random(1)
        for _ in range(3):
            workload.run_transaction(scenario, session, rng)
        # delete+insert keeps the table size constant
        assert session.execute("SELECT COUNT(*) FROM sbtest") == [(100,)]
        session.close()

    def test_unknown_scenario_rejected(self, small_single):
        workload = SysbenchWorkload(SysbenchConfig(table_size=10))
        workload.prepare(small_single)
        session = small_single.session()
        with pytest.raises(ValueError):
            workload.run_transaction("chaos", session, random.Random(0))
        session.close()

    def test_prepare_on_sharded_system(self):
        cfg = SysbenchConfig(table_size=200)
        system = ShardingJDBCSystem(
            [("sbtest", "id")], num_sources=2, tables_per_source=2,
            layout="range", key_space=201,
        )
        SysbenchWorkload(cfg).prepare(system)
        session = system.session()
        assert session.execute("SELECT COUNT(*) FROM sbtest") == [(200,)]
        session.close()
        system.close()


class TestTPCCWorkload:
    @pytest.fixture
    def loaded(self):
        system = ShardingJDBCSystem(
            TPCC_SHARDED_TABLES, num_sources=2, tables_per_source=1,
            broadcast_tables=TPCC_BROADCAST_TABLES,
        )
        config = TPCCConfig(warehouses=2)
        workload = TPCCWorkload(config)
        workload.prepare(system)
        yield system, workload, config
        system.close()

    def test_load_volumes(self, loaded):
        system, workload, config = loaded
        session = system.session()
        assert session.execute("SELECT COUNT(*) FROM bmsql_warehouse") == [(2,)]
        assert session.execute("SELECT COUNT(*) FROM bmsql_district") == [
            (config.warehouses * config.districts,)
        ]
        assert session.execute("SELECT COUNT(*) FROM bmsql_item") == [(config.items,)]
        assert session.execute("SELECT COUNT(*) FROM bmsql_stock") == [
            (config.warehouses * config.items,)
        ]
        orders = session.execute("SELECT COUNT(*) FROM bmsql_oorder")[0][0]
        assert orders == config.warehouses * config.districts * config.initial_orders_per_district
        session.close()

    def test_item_table_replicated_to_every_source(self, loaded):
        system, workload, config = loaded
        for source in system.runtime.data_sources.values():
            assert source.database.table("bmsql_item").row_count == config.items

    def test_mix_proportions(self, loaded):
        system, workload, config = loaded
        rng = random.Random(0)
        picks = [workload.pick_transaction(rng) for _ in range(2000)]
        share = picks.count("new_order") / len(picks)
        assert 0.38 < share < 0.52
        assert set(picks) == {"new_order", "payment", "order_status", "delivery", "stock_level"}

    def test_new_order_advances_district_counter(self, loaded):
        system, workload, config = loaded
        session = system.session()
        before = session.execute(
            "SELECT SUM(d_next_o_id) FROM bmsql_district"
        )[0][0]
        rng = random.Random(3)
        workload.txn_new_order(session, rng)
        after = session.execute("SELECT SUM(d_next_o_id) FROM bmsql_district")[0][0]
        assert after == before + 1
        session.close()

    def test_payment_conserves_history(self, loaded):
        system, workload, config = loaded
        session = system.session()
        workload.txn_payment(session, random.Random(4))
        assert session.execute("SELECT COUNT(*) FROM bmsql_history") == [(1,)]
        session.close()

    def test_delivery_consumes_new_orders(self, loaded):
        system, workload, config = loaded
        session = system.session()
        before = session.execute("SELECT COUNT(*) FROM bmsql_new_order")[0][0]
        workload.txn_delivery(session, random.Random(5))
        after = session.execute("SELECT COUNT(*) FROM bmsql_new_order")[0][0]
        assert after < before
        session.close()

    def test_read_only_transactions_run(self, loaded):
        system, workload, config = loaded
        session = system.session()
        workload.txn_order_status(session, random.Random(6))
        workload.txn_stock_level(session, random.Random(7))
        session.close()


class TestRunner:
    def test_measurement_metrics(self):
        m = Measurement(system="s", scenario="x")
        m.latencies_ms = [1.0, 2.0, 3.0, 4.0, 100.0]
        m.transactions = 5
        m.elapsed = 2.0
        assert m.tps == 2.5
        assert m.avg_ms == 22.0
        assert m.percentile(0) == 1.0
        assert m.percentile(100) == 100.0
        assert m.p90_ms == 100.0

    def test_empty_measurement(self):
        m = Measurement(system="s", scenario="x")
        assert m.tps == 0.0
        assert m.avg_ms == 0.0
        assert m.p99_ms == 0.0

    def test_run_benchmark_counts_transactions(self, small_single):
        SysbenchWorkload(SysbenchConfig(table_size=50)).prepare(small_single)
        counter = {"n": 0}

        def txn(session, rng):
            counter["n"] += 1
            session.execute("SELECT COUNT(*) FROM sbtest")

        m = run_benchmark(small_single, txn, threads=2, duration=0.3, warmup=0.05)
        assert m.transactions > 0
        assert m.transactions <= counter["n"]
        assert len(m.latencies_ms) == m.transactions
        assert m.errors == 0

    def test_run_benchmark_propagates_persistent_errors(self, small_single):
        def broken(session, rng):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            run_benchmark(small_single, broken, threads=1, duration=0.2, warmup=0.0,
                          max_errors=3)

    def test_run_benchmark_tolerates_sporadic_errors(self, small_single):
        SysbenchWorkload(SysbenchConfig(table_size=50)).prepare(small_single)
        state = {"n": 0}

        def flaky(session, rng):
            state["n"] += 1
            if state["n"] % 5 == 0:
                raise RuntimeError("sporadic")
            session.execute("SELECT COUNT(*) FROM sbtest")

        m = run_benchmark(small_single, flaky, threads=1, duration=0.2, warmup=0.0,
                          max_errors=1000)
        assert m.errors > 0
        assert m.transactions > 0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "long_header"], [[1, 2.345], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_rows(self):
        m = Measurement(system="X", scenario="s")
        m.latencies_ms = [2.0]
        m.transactions = 1
        m.elapsed = 1.0
        assert sysbench_row(m) == ["X", 1.0, 2.0, 2.0]
        assert tpcc_row(m) == ["X", 1.0, 2.0]
