"""Issue and await: a storage statement is issued (run, priced, its I/O
window reserved on the server's timeline) and then waited for.

No test here waits on a real clock: ``clock.now`` and ``clock.sleep`` are
replaced by a counter that moves only when somebody sleeps (the ``fake``
fixture of ``conftest.py``), so what is
checked is *when* each window was booked and *what* was slept for.
"""

import pytest

from repro.engine import ExecutionEngine, build_context, rewrite, route
from repro.engine.resilience import ResiliencePolicy
from repro.exceptions import ExecutionError
from repro.observability.trace import Tracer
from repro.sharding import ShardingRule, build_auto_table_rule
from repro.sql import parse
from repro.storage import DataSource, FaultInjector, LatencyModel
from repro.storage.faults import FaultKind
from repro.storage.latency import IOTimeline

from .conftest import T0


def approx(value):
    return pytest.approx(value, abs=1e-9)


# -- (a) the timeline ------------------------------------------------------------


class TestTimeline:
    C = 0.01

    @pytest.fixture
    def tables(self):
        ds = DataSource("t")
        ds.execute("CREATE TABLE a (id INT PRIMARY KEY)")
        ds.execute("CREATE TABLE b (id INT PRIMARY KEY)")
        return ds.database.table("a"), ds.database.table("b")

    def test_reads_at_one_instant_fill_the_channels_in_order(self, fake):
        timeline = IOTimeline(2)
        ready = [timeline.reserve(self.C) - T0 for _ in range(5)]
        assert ready == [approx(self.C * k) for k in (1, 1, 2, 2, 3)]

    def test_writes_to_one_table_chain_to_two_overlap(self, fake, tables):
        a, b = tables
        timeline = IOTimeline(4)
        assert timeline.reserve(self.C, a) - T0 == approx(self.C)
        assert timeline.reserve(self.C, a) - T0 == approx(2 * self.C)
        assert timeline.reserve(self.C, b) - T0 == approx(self.C)
        assert (a.io_free_at - T0, b.io_free_at - T0) == (approx(2 * self.C), approx(self.C))

    def test_a_queued_writer_leaves_idle_channels_to_those_who_can_start(self, fake, tables):
        a, _ = tables
        timeline = IOTimeline(2)
        for k in (1, 2, 3):  # three writers queue on the hot table...
            assert timeline.reserve(self.C, a) - T0 == approx(k * self.C)
        # ...on one channel: a read gets the other one now, as it did when the
        # writers queued on the table's lock without holding a channel
        assert timeline.reserve(self.C) - T0 == approx(self.C)

    def test_a_write_starts_at_the_later_of_table_and_channel(self, fake, tables):
        a, b = tables
        timeline = IOTimeline(1)
        timeline.reserve(3 * self.C)  # the one channel is busy until 3C
        assert timeline.reserve(self.C, a) - T0 == approx(4 * self.C)  # channel later than table
        a.io_free_at = T0 + 9 * self.C  # a writer elsewhere booked the table
        assert timeline.reserve(self.C, a) - T0 == approx(10 * self.C)  # table later than channel
        assert timeline.reserve(self.C, b) - T0 == approx(11 * self.C)

    def test_after_an_idle_gap_a_window_starts_now(self, fake, tables):
        a, _ = tables
        timeline = IOTimeline(2)
        timeline.reserve(self.C, a)
        fake.t += 100.0  # everything booked is long over
        assert timeline.reserve(self.C, a) - fake.t == approx(self.C)
        assert timeline.reserve(self.C) - fake.t == approx(self.C)

    def test_a_delay_moves_the_start_not_the_price(self, fake):
        timeline = IOTimeline(1)
        assert timeline.reserve(self.C, delay=5 * self.C) - T0 == approx(6 * self.C)
        # and a delay with nothing to book behind it occupies no channel
        assert timeline.reserve(0.0, delay=50 * self.C) - T0 == approx(50 * self.C)
        assert timeline.reserve(self.C) - T0 == approx(7 * self.C)


# -- (b) blocking execute is issue + wait -----------------------------------------


def twin_sources(fake, **kwargs):
    """Two identical, loaded, idle servers; what loading them slept is forgotten."""
    sources = []
    for name in ("blocking", "issued"):
        ds = DataSource(name, latency=LatencyModel(write_io=2e-3, commit_io=1e-3), **kwargs)
        ds.execute("CREATE TABLE acc (id INT PRIMARY KEY, bal INT)")
        ds.execute("INSERT INTO acc (id, bal) VALUES (1, 100), (2, 200), (3, 300)")
        sources.append(ds)
    fake.sleeps.clear()
    return sources


class TestExecuteIsIssueThenWait:
    @pytest.mark.parametrize("sql, params", [
        ("SELECT id, bal FROM acc WHERE id >= ? ORDER BY id", (2,)),
        ("UPDATE acc SET bal = bal + 1 WHERE id = ?", (3,)),
    ])
    def test_same_rows_rowcount_cost_and_sleep(self, fake, sql, params):
        blocking, issued = twin_sources(fake)
        before = fake.slept
        one = blocking.connect().execute(sql, params)
        slept_blocking, before = fake.slept - before, fake.slept

        two = issued.connect().execute(sql, params, wait=False)
        at_issue = fake.slept - before
        assert two.ready_at == approx(fake.t + two._result.cost)
        two.wait()
        two.wait()  # once is all there is
        slept_issued = fake.slept - before

        assert one.fetchall() == two.fetchall()
        assert one.rowcount == two.rowcount
        assert one._result.cost == two._result.cost > 0
        assert slept_blocking == approx(slept_issued)
        # only a write's implicit commit is waited for in place
        commit = issued.latency.commit_cost() if sql.startswith("UPDATE") else 0.0
        assert at_issue == approx(commit)

    def test_a_cursor_used_again_forgets_the_issued_statement(self, fake):
        _, ds = twin_sources(fake)
        cursor = ds.connect().cursor()
        cursor.execute("SELECT id FROM acc WHERE id = 1", wait=False)
        assert cursor._pending is not None and cursor.ready_at > 0
        cursor.execute("SELECT id FROM acc WHERE id = 2")  # blocking: slept in place
        assert cursor._pending is None and cursor.ready_at == 0.0
        slept = fake.slept
        assert cursor.fetchall() == [(2,)] and fake.slept == slept

    def test_a_free_statement_is_never_pending(self, fake):
        ds = DataSource("free")  # latency model off
        ds.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        cursor = ds.connect().execute("SELECT * FROM t", wait=False)
        assert cursor._pending is None and cursor.ready_at == 0.0
        assert cursor.fetchall() == [] and fake.sleeps == []


# -- (e) nobody reads a result before its priced time ------------------------------


class TestPendingCursorWaitsFirst:
    @pytest.mark.parametrize("read", [
        lambda cursor: cursor.fetchone(),
        lambda cursor: cursor.fetchmany(2),
        lambda cursor: cursor.fetchall(),
        lambda cursor: list(cursor),
    ])
    def test_every_way_of_reading(self, fake, read):
        _, ds = twin_sources(fake)
        cursor = ds.connect().execute("SELECT id FROM acc ORDER BY id", wait=False)
        assert fake.slept == 0 and cursor._pending is not None
        assert read(cursor) in ((1,), [(1,), (2,)], [(1,), (2,), (3,)])
        assert fake.t == approx(cursor.ready_at) and cursor._pending is None
        assert fake.sleeps == [approx(cursor._result.cost)]


# -- (d) what used to wait inside a statement is part of its window -----------------


class TestHopAndSpikeAreDeadlines:
    HOP = 0.02
    SPIKE = 0.05

    def test_a_network_hop_extends_ready_at_and_delays_nobody(self, fake):
        _, ds = twin_sources(fake, network_hop=self.HOP)
        t0 = fake.t
        first = ds.connect().execute("SELECT id FROM acc WHERE id = 1", wait=False)
        second = ds.connect().execute("SELECT id FROM acc WHERE id = 2", wait=False)
        assert fake.sleeps == []  # the second was issued at the first's instant
        cost = first._result.cost
        assert first.ready_at - t0 == approx(self.HOP + cost)
        assert second.ready_at - t0 == approx(self.HOP + cost)
        first.wait()
        second.wait()
        assert fake.sleeps == [approx(self.HOP + cost)]
        # blocking, the same statement sleeps for the same two things
        before = fake.slept
        ds.connect().execute("SELECT id FROM acc WHERE id = 1")
        assert fake.slept - before == approx(self.HOP + cost)

    def test_a_latency_spike_extends_ready_at_and_delays_nobody(self, fake):
        _, ds = twin_sources(fake)
        injector = FaultInjector(seed=1)
        injector.configure(ds.name, latency_spike=self.SPIKE)
        ds.set_fault_injector(injector)
        injector.fail_once(ds.name, "statement", FaultKind.LATENCY)
        t0 = fake.t
        spiked = ds.connect().execute("SELECT id FROM acc WHERE id = 1", wait=False)
        plain = ds.connect().execute("SELECT id FROM acc WHERE id = 2", wait=False)
        assert fake.sleeps == []
        assert spiked.ready_at - t0 == approx(self.SPIKE + spiked._result.cost)
        assert plain.ready_at - t0 == approx(plain._result.cost)
        # blocking, the spike is slept for before the statement runs
        injector.fail_once(ds.name, "statement", FaultKind.LATENCY)
        ds.connect().execute("SELECT id FROM acc WHERE id = 1")
        assert fake.sleeps[0] == approx(self.SPIKE)
        assert injector.injected(ds.name, FaultKind.LATENCY) == 2

    def test_a_spike_on_commit_is_paid_with_the_commit(self, fake):
        _, ds = twin_sources(fake)
        injector = FaultInjector(seed=1)
        injector.configure(ds.name, latency_spike=self.SPIKE)
        ds.set_fault_injector(injector)
        conn = ds.connect()
        conn.begin()
        conn.execute("UPDATE acc SET bal = 0 WHERE id = 1")
        before = fake.slept
        injector.fail_once(ds.name, "commit", FaultKind.LATENCY)
        conn.commit()
        assert fake.slept - before == approx(self.SPIKE + ds.latency.commit_cost())


# -- (c) a read fan-out is issued by the caller and sleeps once ---------------------

SOURCES = 4
SHARDS = 16


@pytest.fixture
def fanout(fake):
    """16 equal shards over four sources: a broadcast read is four
    memory-strictly groups of four, each within its server's channels."""
    names = [f"ds{i}" for i in range(SOURCES)]
    sources = {name: DataSource(name, latency=LatencyModel(), pool_size=8) for name in names}
    table_rule = build_auto_table_rule(
        "t_big", names, sharding_column="id", algorithm_type="MOD",
        properties={"sharding-count": SHARDS})
    for index, node in enumerate(table_rule.data_nodes):
        source = sources[node.data_source]
        source.execute(f"CREATE TABLE {node.table} (id INT PRIMARY KEY, v INT)")
        source.execute(f"INSERT INTO {node.table} (id, v) VALUES ({index}, {index * 10})")
    rule = ShardingRule([table_rule], default_data_source="ds0")
    engine = ExecutionEngine(sources, max_connections_per_query=SHARDS // SOURCES)
    fake.sleeps.clear()
    yield sources, rule, engine
    engine.close()


def units_of(rule, sql):
    context = build_context(parse(sql), sql, (), rule)
    return rewrite(context, route(context, rule)).execution_units


def in_use(sources):
    return sum(source.pool.in_use for source in sources.values())


class TestReadFanOut:
    SQL = "SELECT id, v FROM t_big"

    def test_sleeps_once_for_the_slowest_unit(self, fake, fanout):
        sources, rule, engine = fanout
        units = units_of(rule, self.SQL)
        assert len(units) == SHARDS
        queued = engine.metrics.queued_tasks
        result = engine.execute(units, is_query=True)
        costs = [cursor._result.cost for cursor in result.results]
        assert len(costs) == SHARDS and min(costs) > 0
        assert 1 <= len(fake.sleeps) <= 2
        assert fake.slept == approx(max(costs))  # the max, not the sum
        assert engine.metrics.queued_tasks == queued
        assert not engine._pool._threads
        assert all(cursor._pending is None for cursor in result.results)
        # streaming: the connections are out until the merged rows are drained
        assert in_use(sources) == SHARDS
        rows = sorted(row for shard in result.results for row in shard)
        result.release()
        assert rows == [(i, i * 10) for i in range(SHARDS)]
        assert in_use(sources) == 0

    def test_a_unit_that_raises_at_issue(self, fake, fanout):
        sources, rule, engine = fanout
        units = units_of(rule, self.SQL)
        sources["ds1"].database.fail_next("statement")
        with pytest.raises(ExecutionError, match="injected failure on statement"):
            engine.execute(units, is_query=True)
        # the other fifteen were issued, and awaited before the error came out
        assert sum(s.database.statements_executed for s in sources.values()) >= SHARDS - 1
        assert len(fake.sleeps) == 1
        assert in_use(sources) == 0
        assert not engine._pool._threads

    def test_a_transient_fault_at_issue_is_retried(self, fake, fanout):
        sources, rule, engine = fanout
        engine.enable_resilience(ResiliencePolicy(max_retries=2, seed=7))
        injector = FaultInjector(seed=3)
        for source in sources.values():
            source.set_fault_injector(injector)
        injector.fail_once("ds2", "statement", FaultKind.TRANSIENT)
        result = engine.execute(units_of(rule, self.SQL), is_query=True)
        rows = sorted(row for shard in result.results for row in shard)
        result.release()
        assert rows == [(i, i * 10) for i in range(SHARDS)]
        assert engine.metrics.retries == 1 and engine.metrics.queued_tasks == 0
        assert in_use(sources) == 0

    def test_heat_gets_issue_to_ready(self, fake, fanout):
        sources, rule, engine = fanout
        seen = []

        class Heat:
            def unit_done(self, unit, wall, cursor, rows):
                seen.append((wall, cursor._result.cost))

        engine.execute(units_of(rule, self.SQL), is_query=True, heat=Heat()).release()
        assert len(seen) == SHARDS
        assert all(wall == approx(cost) for wall, cost in seen)

    def test_traced_is_the_same_path(self, fake, fanout):
        sources, rule, engine = fanout
        units = units_of(rule, self.SQL)
        plain = engine.execute(units, is_query=True)
        plain_rows = sorted(row for shard in plain.results for row in shard)
        plain.release()
        slept_plain = fake.slept
        fake.sleeps.clear()

        trace = Tracer(enabled=True).start_trace(self.SQL)
        root = trace.start_span("execute")
        traced = engine.execute(units, is_query=True, trace=trace, parent_span=root)
        traced_rows = sorted(row for shard in traced.results for row in shard)
        traced.release()
        assert traced_rows == plain_rows
        assert fake.slept == approx(slept_plain)
        assert engine.metrics.queued_tasks == 0 and not engine._pool._threads
        spans = [span for span in trace.spans if span.name == "storage"]
        assert len(spans) == SHARDS
        for span in spans:
            assert span.finished and span.error is None
            assert span.parent_id == root.span_id
            assert span.simulated > 0 and span.attributes["rows"] == 1
            assert span.lock_wait == 0 and span.pay_overshoot == 0  # idle servers, exact clock
            assert span.attributes["mode"] == "memory_strictly"
        assert sum(span.simulated for span in spans) == approx(slept_plain * SHARDS)
        # the span covers issue to woken-up, not issue to issued
        assert max(span.wall for span in spans) == approx(slept_plain)

    def test_a_busy_server_shows_as_lock_wait_on_the_span(self, fake, fanout):
        sources, rule, engine = fanout
        for _ in range(sources["ds3"].io_channels):
            sources["ds3"].io_timeline.reserve(0.5)  # every channel booked for half a second
        trace = Tracer(enabled=True).start_trace(self.SQL)
        result = engine.execute(units_of(rule, self.SQL), is_query=True, trace=trace)
        result.release()
        waits = {span.attributes["data_source"]: span.lock_wait
                 for span in trace.spans if span.name == "storage"}
        assert waits["ds3"] == approx(0.5) and waits["ds0"] == 0

    @pytest.mark.concurrency
    def test_units_that_block_still_go_to_the_pool(self, fake, fanout):
        """Two pinned groups (a transaction's connections) run as tasks on
        the real pool beside two issued groups; all four come back."""
        sources, rule, engine = fanout
        held = {name: sources[name].connect() for name in ("ds0", "ds1")}
        try:
            result = engine.execute(units_of(rule, self.SQL), is_query=True,
                                    held_connections=held)
            rows = sorted(row for shard in result.results for row in shard)
            result.release()
        finally:
            for name, connection in held.items():
                sources[name].release(connection)
        assert rows == [(i, i * 10) for i in range(SHARDS)]
        assert engine.metrics.queued_tasks == 2
        assert {mode.value for mode in result.modes.values()} == {
            "memory_strictly", "connection_strictly"}
        assert in_use(sources) == 0
