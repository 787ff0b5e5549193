"""Unit tests for the latency model (cost accounting, spill knee)."""

import math

import pytest

from repro.storage import LatencyModel


class TestStatementCost:
    def test_off_model_is_free(self):
        model = LatencyModel.off()
        assert model.statement_cost(10_000, 100, True) == 0.0
        assert model.write_cost(10_000) == 0.0

    def test_index_cost_grows_logarithmically(self):
        model = LatencyModel()
        small = model.statement_cost(100, 1, uses_index=True)
        big = model.statement_cost(100_000, 1, uses_index=True)
        assert big > small
        expected_delta = model.index_io * (math.log2(100_000) - math.log2(100))
        assert big - small == pytest.approx(expected_delta)

    def test_full_scan_linear_in_rows(self):
        model = LatencyModel()
        a = model.statement_cost(1_000, 0, uses_index=False)
        b = model.statement_cost(2_000, 0, uses_index=False)
        assert b - a == pytest.approx(model.row_cost * 1_000)

    def test_rows_touched_add_cost(self):
        model = LatencyModel()
        a = model.statement_cost(1_000, 10, uses_index=True)
        b = model.statement_cost(1_000, 110, uses_index=True)
        assert b > a

    def test_scale_multiplies(self):
        base = LatencyModel().statement_cost(1_000, 10, True)
        scaled = LatencyModel().scaled(5).statement_cost(1_000, 10, True)
        assert scaled == pytest.approx(base * 5)


class TestBufferPoolKnee:
    def make(self):
        return LatencyModel(write_io=1e-3, buffer_pool_rows=10_000, disk_penalty=3.0)

    def test_below_knee_no_penalty(self):
        model = self.make()
        assert model.write_cost(9_999) == pytest.approx(1e-3)

    def test_above_knee_penalized(self):
        model = self.make()
        assert model.write_cost(10_001) == pytest.approx(3e-3)

    def test_reads_penalized_too(self):
        model = self.make()
        below = model.statement_cost(9_000, 1, True)
        above = model.statement_cost(11_000, 1, True)
        # more than the pure log-growth: the spill factor kicked in
        log_only = model.base + model.index_io * math.log2(11_000) + model.row_cost
        assert above > log_only
        assert above > below * 2

    def test_no_knee_when_unset(self):
        model = LatencyModel(write_io=1e-3)
        assert model.write_cost(10**9) == pytest.approx(1e-3)

    def test_commit_cost_scaled(self):
        model = LatencyModel(commit_io=2e-3).scaled(2)
        assert model.commit_cost() == pytest.approx(4e-3)


class TestPaymentAttribution:
    """A traced payment's wall time is split three ways on its span: the
    priced sleep, the queueing behind the I/O reserved ahead of it, and the
    sleep's overshoot — which is not queueing."""

    HOLD = OVERSHOOT = 0.1

    def test_overshoot_is_not_booked_as_lock_wait(self, monkeypatch):
        import time

        import repro.storage.connection as connection
        from repro import clock
        from repro.observability.trace import Span
        from repro.storage import DataSource

        ds = DataSource("paid", latency=LatencyModel(write_io=5e-3))
        ds.execute("CREATE TABLE acc (id INT PRIMARY KEY, bal INT)")
        ds.execute("INSERT INTO acc (id, bal) VALUES (1, 100)")
        table = ds.database.table("acc")

        # a sleep that runs OVERSHOOT past the end of the window queued
        # behind the writer ahead (the implicit commit's ends on time)
        def late(seconds, until=None):
            overshoot = self.OVERSHOOT if until > held_until else 0.0
            time.sleep(max(until - clock.now(), 0.0) + overshoot)

        monkeypatch.setattr(connection, "pay", late)

        conn = ds.connect()
        span = conn.trace_span = Span(1, 1, "storage")
        # a writer ahead of us: the table's write I/O is booked for HOLD
        held_until = ds.io_timeline.reserve(self.HOLD, table)
        priced = conn.execute("UPDATE acc SET bal = bal - 1 WHERE id = 1")._result.cost

        slack = 0.06  # scheduling noise on a shared host; under either term
        assert priced > 0
        assert span.simulated == pytest.approx(priced + ds.latency.commit_cost())
        assert self.HOLD - slack < span.lock_wait < self.HOLD + slack
        assert self.OVERSHOOT <= span.pay_overshoot < self.OVERSHOOT + slack
