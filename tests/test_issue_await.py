"""Issue and await: a storage statement is issued (run, priced, its I/O
window reserved on the server's timeline) and its window booked in the open
scope; the scope that opened first pays once, when it exits. With no scope
open a booking is paid at once.

No test here waits on a real clock: ``clock.now`` and ``clock.sleep`` are
replaced by a counter that moves only when somebody sleeps (the ``fake``
fixture of ``conftest.py``), so what is
checked is *when* each window was booked and *what* was slept for.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import repro
from repro import clock
from repro.engine import ExecutionEngine, build_context, rewrite, route
from repro.engine.resilience import ResiliencePolicy
from repro.exceptions import ExecutionError
from repro.observability.trace import Tracer
from repro.sharding import ShardingRule, build_auto_table_rule
from repro.sql import parse
from repro.storage import DataSource, FaultInjector, LatencyModel, QueryResult
from repro.storage.faults import FaultKind
from repro.storage.latency import IOTimeline
from repro.transaction import (
    TransactionCoordinator,
    TransactionManager,
    TransactionType,
    XATransactionLog,
    recover,
)

from .conftest import T0, elsewhere, session_call, starts_no_thread


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


# -- (b) blocking execute is issue + book, paid at once ------------------------------


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

        with session_call() as booked:
            two = issued.connect().execute(sql, params)
            at_issue = fake.slept - before
            # a write's implicit commit is applied at issue; its cost opens the window
            commit = issued.latency.commit_cost() if sql.startswith("UPDATE") else 0.0
            assert two.ready_at == approx(fake.t + commit + two.cost)
            assert booked.ready_at == two.ready_at
            assert booked.priced == approx(commit + two.cost)
        slept_issued = fake.slept - before

        assert one.fetchall() == two.fetchall()
        assert one.rowcount == two.rowcount
        assert one.cost == two.cost > 0
        assert slept_blocking == approx(slept_issued)
        assert at_issue == 0  # nothing is waited for in place

    def test_a_cursor_used_again_forgets_the_issued_statement(self, fake):
        _, ds = twin_sources(fake)
        cursor = ds.connect().cursor()
        with session_call():
            cursor.execute("SELECT id FROM acc WHERE id = 1")
            first = cursor.ready_at
            assert first > 0 and fake.sleeps == []
            cursor.execute("SELECT id FROM acc WHERE id = 2")
            # the second window queued behind the first, on the same connection
            assert cursor.ready_at == approx(first + cursor.cost)
        assert fake.t == approx(cursor.ready_at) and len(fake.sleeps) == 1
        slept = fake.slept
        assert cursor.fetchall() == [(2,)] and fake.slept == slept

    def test_a_blocking_statement_queues_behind_one_issued_on_its_connection(self, fake):
        """A connection runs one statement at a time, blocking or not: a
        session call hands its connection back to the pool before it pays,
        the next caller takes it and blocks, and that second window starts
        when the first ends, and moves ``free_at``."""
        _, ds = twin_sources(fake)
        with session_call():
            conn = ds.connect()
            first = conn.execute("SELECT id FROM acc WHERE id = 1")
            ds.release(conn)
            second = elsewhere(lambda: ds.connect().execute("SELECT id FROM acc WHERE id = 2"))
            assert second.connection is conn
        assert fake.t == approx(first.ready_at + second.cost)
        assert conn.free_at == second.ready_at == fake.t
        assert first.fetchall() == [(1,)] and second.fetchall() == [(2,)]
        assert len(fake.sleeps) == 1  # the first's window was over by then

    def test_a_free_statement_is_never_pending(self, fake):
        ds = DataSource("free")  # latency model off
        ds.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        with session_call() as booked:
            cursor = ds.connect().execute("SELECT * FROM t")
        assert cursor.ready_at == 0.0 and (booked.priced, booked.ready_at) == (0.0, 0.0)
        assert cursor.fetchall() == [] and fake.sleeps == []

    def test_a_pipeline_books_behind_the_connection_and_sleeps_once(self, fake):
        """A pipeline's coalesced charges — one write-I/O slice for the
        table, then the COMMIT's window — queue behind what the connection
        already issued, one after the other, and are slept for once."""
        _, ds = twin_sources(fake)
        conn = ds.connect()
        with session_call():
            issued = conn.execute("SELECT id FROM acc WHERE id = 1")
            results = conn.execute_pipeline([
                ("BEGIN", ()),
                ("UPDATE acc SET bal = bal + 1 WHERE id = 1", ()),
                ("UPDATE acc SET bal = bal + 1 WHERE id = 2", ()),
                ("COMMIT", ()),
            ])
        writes = results[1:3]
        coalesced = (sum(r.cost - r.write_cost for r in writes)
                     + max(r.write_cost for r in writes))
        assert coalesced < sum(r.cost for r in writes)
        assert len(fake.sleeps) == 1
        assert fake.t == approx(issued.ready_at + coalesced + ds.latency.commit_cost())
        assert conn.free_at == fake.t


# -- (e) nothing reaches the client before its priced time -----------------------


class TestPendingCursorWaitsFirst:
    """Rows exist at issue, so reading them inside the scope waits for
    nothing; the scope's caller gets them back at their priced time."""

    @pytest.mark.parametrize("read", [
        lambda cursor: cursor.fetchone(),
        lambda cursor: cursor.fetchmany(2),
        lambda cursor: cursor.fetchall(),
        lambda cursor: list(cursor),
    ])
    def test_every_way_of_reading(self, fake, read):
        _, ds = twin_sources(fake)
        with session_call():
            cursor = ds.connect().execute("SELECT id FROM acc ORDER BY id")
            assert read(cursor) in ((1,), [(1,), (2,)], [(1,), (2,), (3,)])
            assert fake.slept == 0
        assert fake.t == approx(cursor.ready_at)
        assert fake.sleeps == [approx(cursor.cost)]


# -- (d) what used to wait inside a statement is part of its window -----------------


class TestHopAndSpikeAreDeadlines:
    HOP = 0.02
    SPIKE = 0.05

    def test_a_network_hop_extends_ready_at_and_delays_nobody(self, fake):
        _, ds = twin_sources(fake, network_hop=self.HOP)
        t0 = fake.t
        with session_call():
            first = ds.connect().execute("SELECT id FROM acc WHERE id = 1")
            second = ds.connect().execute("SELECT id FROM acc WHERE id = 2")
            assert fake.sleeps == []  # the second was issued at the first's instant
        cost = first.cost
        assert first.ready_at - t0 == approx(self.HOP + cost)
        assert second.ready_at - t0 == approx(self.HOP + cost)
        assert fake.sleeps == [approx(self.HOP + cost)]
        # blocking, the same statement sleeps for the same two things
        before = fake.slept
        ds.connect().execute("SELECT id FROM acc WHERE id = 1")
        assert fake.slept - before == approx(self.HOP + cost)

    def test_an_executemany_batch_crosses_the_network_once(self, fake):
        plain, _ = twin_sources(fake)
        _, hopped = twin_sources(fake, network_hop=self.HOP)
        sql, seq = "UPDATE acc SET bal = bal + 1 WHERE id = ?", [(1,), (2,), (3,)]
        slept = []
        for ds in (plain, hopped):
            before = fake.slept
            assert ds.connect().cursor().executemany(sql, seq).rowcount == 3
            slept.append(fake.slept - before)
        assert slept[1] - slept[0] == approx(self.HOP)

    def test_a_latency_spike_extends_ready_at_and_delays_nobody(self, fake):
        _, ds = twin_sources(fake)
        injector = FaultInjector(seed=1)
        injector.configure(ds.name, latency_spike=self.SPIKE)
        ds.set_fault_injector(injector)
        injector.fail_once(ds.name, "statement", FaultKind.LATENCY)
        t0 = fake.t
        with session_call():
            spiked = ds.connect().execute("SELECT id FROM acc WHERE id = 1")
            plain = ds.connect().execute("SELECT id FROM acc WHERE id = 2")
            assert fake.sleeps == []
        assert spiked.ready_at - t0 == approx(self.SPIKE + spiked.cost)
        assert plain.ready_at - t0 == approx(plain.cost)
        # blocking, the spike is part of the one window slept for, as booked
        fake.sleeps.clear()
        injector.fail_once(ds.name, "statement", FaultKind.LATENCY)
        ds.connect().execute("SELECT id FROM acc WHERE id = 1")
        assert fake.sleeps == [approx(self.SPIKE + spiked.cost)]
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
        with starts_no_thread():
            result = engine.execute(units, is_query=True)
        costs = [cursor.cost for cursor in result.results]
        assert len(costs) == SHARDS and min(costs) > 0
        assert fake.sleeps == [approx(max(costs))]  # once, for the max, not the sum
        assert all(cursor.ready_at <= fake.t for cursor in result.results)
        # every connection is back; the lazy cursors are read without one
        assert in_use(sources) == 0
        rows = sorted(row for shard in result.results for row in shard)
        assert rows == [(i, i * 10) for i in range(SHARDS)]

    def test_a_unit_that_raises_at_issue(self, fake, fanout):
        sources, rule, engine = fanout
        units = units_of(rule, self.SQL)
        sources["ds1"].database.fail_next("statement")
        with starts_no_thread(), pytest.raises(
                ExecutionError, match="injected failure on statement"):
            engine.execute(units, is_query=True)
        # the other fifteen were issued, and awaited before the error came out
        assert sum(s.database.statements_executed for s in sources.values()) >= SHARDS - 1
        assert len(fake.sleeps) == 1
        assert in_use(sources) == 0

    def test_a_transient_fault_at_issue_is_retried(self, fake, fanout):
        sources, rule, engine = fanout
        engine.enable_resilience(ResiliencePolicy(max_retries=2, seed=7))
        injector = FaultInjector(seed=3)
        for source in sources.values():
            source.set_fault_injector(injector)
        injector.fail_once("ds2", "statement", FaultKind.TRANSIENT)
        result = engine.execute(units_of(rule, self.SQL), is_query=True)
        rows = sorted(row for shard in result.results for row in shard)
        assert rows == [(i, i * 10) for i in range(SHARDS)]
        assert engine.metrics.retries == 1
        assert in_use(sources) == 0

    def test_heat_gets_issue_to_ready(self, fake, fanout):
        sources, rule, engine = fanout
        seen = []

        class Heat:
            def unit_done(self, unit, wall, cursor, rows):
                seen.append((wall, cursor.cost))

        engine.execute(units_of(rule, self.SQL), is_query=True, heat=Heat())
        assert len(seen) == SHARDS
        assert all(wall == approx(cost) for wall, cost in seen)

    def test_traced_is_the_same_path(self, fake, fanout):
        sources, rule, engine = fanout
        units = units_of(rule, self.SQL)
        plain = engine.execute(units, is_query=True)
        plain_rows = sorted(row for shard in plain.results for row in shard)
        slept_plain = fake.slept
        fake.sleeps.clear()

        trace = Tracer(enabled=True).start_trace(self.SQL)
        root = trace.start_span("execute")
        with starts_no_thread():
            traced = engine.execute(units, is_query=True, trace=trace, parent_span=root)
        traced_rows = sorted(row for shard in traced.results for row in shard)
        assert traced_rows == plain_rows
        assert fake.slept == approx(slept_plain)
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
        waits = {span.attributes["data_source"]: span.lock_wait
                 for span in trace.spans if span.name == "storage"}
        assert waits["ds3"] == approx(0.5) and waits["ds0"] == 0

    def test_pinned_groups_are_issued_as_lanes(self, fake, fanout):
        """Two pinned groups (a transaction's connections) beside two
        memory-strictly ones: the caller issues every unit, a pinned group's
        four run one after the other on its connection, and the statement
        sleeps once, for the lane that ends last."""
        sources, rule, engine = fanout
        held = {name: sources[name].connect() for name in ("ds0", "ds1")}
        try:
            with starts_no_thread():
                result = engine.execute(units_of(rule, self.SQL), is_query=True,
                                        held_connections=held)
            # the pool groups' connections are back; the pinned two are the caller's
            assert in_use(sources) == 2
            rows = sorted(row for shard in result.results for row in shard)
        finally:
            for name, connection in held.items():
                sources[name].release(connection)
        assert rows == [(i, i * 10) for i in range(SHARDS)]
        # a lane's units are lazy cursors too, and every unit costs the same
        assert all(isinstance(shard, QueryResult) for shard in result.results)
        costs = {cursor.cost for cursor in result.results}
        assert len(result.results) == SHARDS and len(costs) == 1
        assert fake.sleeps == [approx(4 * costs.pop())]
        assert {name: mode.value for name, mode in result.modes.items()} == {
            "ds0": "connection_strictly", "ds1": "connection_strictly",
            "ds2": "memory_strictly", "ds3": "memory_strictly"}
        assert in_use(sources) == 0


# -- (f) one way to wait ------------------------------------------------------------

GONE = ("_StealScheduler", "submit_helpers", "fanout_workers", "SubmitHelpers",
        "caller_only", "coalesce_timers", "precise_timers", "ThreadPoolExecutor",
        "def submit(", "commit_async", "_RowBudget", "ss-exec",
        "pay_all", "_pay_traced", "acquisition_lock", "clock.sleep(0.001)",
        "_run_on_batch", "def _traced", "finalizers", "execution.release(")


def test_no_blocking_fan_out_machinery_is_left():
    """Every statement unit, every federated pull and every transaction
    verb is issued by its caller and awaited: the scheduler, the commit
    helpers, the timer roles they needed, the engine's worker pool and
    BASE's asynchronous commit are gone, and stay gone. So is the release
    protocol of held connections: the executor returns every one itself."""
    package = Path(repro.__file__).resolve().parent
    found = [f"{path.relative_to(package.parent)}:{lineno}: {name}"
             for path in sorted(package.rglob("*.py"))
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             for name in GONE if name in line]
    assert found == []


def test_the_harness_finds_every_executor_counter_it_reads(monkeypatch):
    """``benchmarks/perf/metrics.py`` reads executor counters by key with
    ``delta("executor", key)``; a key missing from the snapshot would be a
    ``KeyError`` in every traced run. Loaded by path, changed in nothing."""
    perf = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"
    monkeypatch.syspath_prepend(str(perf))
    for name in ("counting", "tracing"):  # what metrics.py imports by bare name
        monkeypatch.delitem(sys.modules, name, raising=False)
    spec = importlib.util.spec_from_file_location("perf_metrics_under_test", perf / "metrics.py")
    metrics = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(metrics)
    read = [call.args[1].value for call in ast.walk(ast.parse(inspect.getsource(metrics)))
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "delta"
            and isinstance(call.args[0], ast.Constant) and call.args[0].value == "executor"]
    assert read == ["queued_tasks", "steals"]
    snapshot = ExecutionEngine({}).metrics.snapshot()
    assert {key: snapshot[key] for key in read} == {"queued_tasks": 0, "steals": 0}


# -- (g) one way to settle: storage verbs book, the session boundary pays ----------

#: what only issues or books, and so takes no ``wait``: (file under repro/,
#: qualified name)
ISSUE_ONLY = [
    ("storage/connection.py", "Connection._run"),
    ("storage/transaction.py", "Transaction.commit"),
    ("storage/transaction.py", "Transaction.prepare"),
    ("storage/transaction.py", "commit_prepared"),
    ("storage/latency.py", "LatencyModel.charge_commit"),
    ("storage/executor.py", "QueryResult.execute"),
    ("storage/connection.py", "Connection.execute"),
    ("storage/connection.py", "Connection.commit"),
    ("storage/connection.py", "Connection.xa_prepare"),
    ("storage/connection.py", "Connection.xa_commit"),
]


def definitions(path):
    """Qualified name -> function node, for module functions and methods."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[f"{node.name}.{item.name}"] = item
    return found


def test_storage_verbs_below_the_public_boundary_only_issue():
    """Neither the storage verbs nor what is under them take ``wait``: a
    verb books its window in the open scope, which pays at the session
    boundary (or at once, with none open). The cursor's and connection's
    own payers stay gone, and the implicit-transaction / write-lock / undo
    block of a write exists once."""
    package = Path(repro.__file__).resolve().parent
    for relative, name in ISSUE_ONLY:
        function = definitions(package / relative)[name]
        arguments = function.args.args + function.args.kwonlyargs
        assert "wait" not in [argument.arg for argument in arguments], f"{relative}: {name}"
    connection = package / "storage" / "connection.py"
    methods = definitions(connection)
    assert not {"Connection._pay", "Connection._pay_commit", "Cursor.wait"} & methods.keys()
    assert connection.read_text().count("write_lock()") == 1


def priced_fleet(names, commit):
    """Servers whose commit and prepare cost ``commit`` each and whose
    statements are free, loaded with one account each."""
    fleet = {name: DataSource(name, latency=LatencyModel(
        base=0.0, index_io=0.0, row_cost=0.0, commit_io=commit)) for name in names}
    for source in fleet.values():
        source.execute("CREATE TABLE acct (id INT PRIMARY KEY, balance INT NOT NULL)")
        source.execute("INSERT INTO acct (id, balance) VALUES (1, 100)")
    return fleet


def test_xa_recover_commits_every_in_doubt_branch_and_sleeps_once(fake):
    """Two in-doubt transactions, four pending branches: recovery issues
    the four phase-2 commits and sleeps once, for the window that ends
    last — not once per branch."""
    commit = 2e-3
    sources = priced_fleet(["ds0", "ds1", "ds2", "ds3"], commit)
    log = XATransactionLog()
    manager = TransactionManager(sources, TransactionType.XA, xa_log=log)
    for names in (("ds0", "ds1"), ("ds2", "ds3")):
        txn = manager.begin()
        for name in names:
            txn.connection_for(name).execute("UPDATE acct SET balance = balance + 5 WHERE id = 1")
            sources[name].database.fail_next("commit")  # phase 2 is lost on every branch
        with pytest.raises(repro.exceptions.XATransactionError, match="will be recovered"):
            txn.commit()
    assert sorted(name for record in log.in_doubt() for name in record.pending) == [
        "ds0", "ds1", "ds2", "ds3"]
    fake.sleeps.clear()
    assert recover(log, sources) == 2
    assert fake.sleeps == [approx(commit)]
    assert log.in_doubt() == []
    assert {name: source.execute("SELECT balance FROM acct WHERE id = 1")
            for name, source in sources.items()} == dict.fromkeys(sources, [(105,)])


def test_every_wait_of_a_base_transaction_is_a_pay(fake, monkeypatch):
    """BASE's coordinator round trips are simulated cost like any other:
    every ``clock.sleep`` made from under ``repro.storage`` or
    ``repro.transaction`` across begin, a write on every branch and the
    commit is reached through ``pay``, where the harness prices it."""
    sleep = clock.sleep  # the fake one
    callers = []

    def recording(seconds):
        frame = sys._getframe(1)
        callers.append((frame.f_globals["__name__"], frame.f_code.co_name))
        sleep(seconds)

    sources = priced_fleet(["ds0", "ds1"], 2e-3)
    monkeypatch.setattr(clock, "sleep", recording)
    manager = TransactionManager(sources, TransactionType.BASE,
                                 coordinator=TransactionCoordinator(rpc_delay=1e-3))
    txn = manager.begin()
    for name in sources:
        txn.connection_for(name).execute("UPDATE acct SET balance = balance + 5 WHERE id = 1")
    txn.commit()
    ours = [caller for caller in callers
            if caller[0].startswith(("repro.storage", "repro.transaction"))]
    assert len(ours) >= 6  # begin, two registrations, phase 1, three phase-2 calls
    assert ours == [("repro.storage.latency", "pay")] * len(ours)
    assert callers == ours
