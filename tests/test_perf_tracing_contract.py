"""Guard for the benchmark's per-layer attribution (``benchmarks/perf``).

The harness records spans from *outside* the program by replacing the
stage functions as bound in ``repro.engine.pipeline``'s module globals and
wrapping ``ExecutionEngine.execute(units, ...)`` /
``execute_pipeline(ds_name, statements, ...)`` by position
(``benchmarks/perf/tracing.py``). A refactor that moves a stage call out
of those globals, or reshapes those signatures, would not fail anything —
it would silently zero per-layer metrics in a ten-minute benchmark run.
This test fails in a second instead. It reads ``benchmarks/perf`` and
changes nothing there.

The same goes for simulated cost: the harness replaces ``pay`` as bound in
three modules of ``repro.storage`` and calls what passes through them
"everything that was waited for" (``storage.latency.priced_ms_per_op``).
A wait that reached ``repro.clock`` around ``pay`` would be paid and
never priced. Through a session, every window is booked and the session
call pays once, through ``repro.storage.latency.pay``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import repro.storage.connection
import repro.storage.engine
import repro.storage.latency
from repro import clock
from repro.adaptors import ShardingDataSource, ShardingRuntime
from repro.storage import DataSource, LatencyModel

from .conftest import starts_no_thread

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "tracing.py"

STAGE_LAYERS = {
    "sql.parse", "engine.plan", "engine.context", "engine.router",
    "engine.rewriter", "engine.executor", "engine.merger",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perf_tracing_under_test", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_harness_sees_every_stage_of_a_statement(fleet, paper_rule):
    tracing = load_tracing()
    runtime = ShardingRuntime(fleet, paper_rule, max_connections_per_query=2)
    conn = ShardingDataSource(runtime).get_connection()
    conn.execute(
        "INSERT INTO t_user (uid, name, age) VALUES "
        "(1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35), (4, 'dave', 28)"
    )
    point = conn.prepare("SELECT name FROM t_user WHERE uid = ?")
    assert point.execute((3,)).fetchall() == [("carol",)]  # compiles the plan, unrecorded

    recorder = tracing.Recorder()
    recorder.install()
    try:
        recorder.begin_op()  # cold literal fan-out: every stage runs
        fanout = conn.execute("SELECT uid FROM t_user WHERE age > 26 ORDER BY uid")
        fanout_rows = fanout.fetchall()
        recorder.end_op()
        recorder.begin_op()  # prepared point select: plan hit
        hot = point.execute((3,))
        hot_rows = hot.fetchall()
        recorder.end_op()
    finally:
        recorder.uninstall()
        conn.close()
        runtime.close()

    assert fanout_rows == [(1,), (3,), (4,)] and hot_rows == [("carol",)]
    assert tracing.check_tree(recorder.spans) == []
    ops = sorted({span[tracing.OP] for span in recorder.spans})
    assert len(ops) == 2
    for op, statement in zip(ops, (fanout, hot)):
        spans = [span for span in recorder.spans if span[tracing.OP] == op]
        layers = {span[tracing.LAYER] for span in spans}
        executed = [span[tracing.VALUE] for span in spans
                    if span[tracing.LAYER] == "engine.executor"]
        assert executed == [statement.diagnostics.unit_count]
        assert {"engine.pipeline", "engine.executor", "engine.merger"} <= layers
        if statement is fanout:
            assert statement.diagnostics.unit_count == 2
            assert STAGE_LAYERS <= layers
        else:
            assert not layers & {"sql.parse", "engine.plan", "engine.router"}
    assert recorder.merge_rows_in == len(fanout_rows) + len(hot_rows)


def test_commit_spans_sit_under_the_transactions_commit(fleet, paper_rule, monkeypatch):
    """A transaction's end is issued and booked by the committing thread
    (DESIGN.md "Transaction end"): both ``Connection.commit`` spans sit
    under ``LocalTransaction.commit``, and the JDBC commit pays once — one
    ``pay`` span, under the ``ShardingConnection.commit`` span, after both
    commits are back, priced at the windows they booked.
    ``TransactionManager.begin`` / ``LocalTransaction.commit`` are still
    the names the harness wraps."""
    from repro.storage.connection import Connection

    for source in fleet.values():  # only a commit costs anything
        source.database.latency = LatencyModel(base=0.0, index_io=0.0, row_cost=0.0,
                                               commit_io=1e-3)
    windows = []
    storage_commit = Connection.commit

    def remembering(self):
        windows.append(storage_commit(self))
        return windows[-1]

    monkeypatch.setattr(Connection, "commit", remembering)
    tracing = load_tracing()
    runtime = ShardingRuntime(fleet, paper_rule)
    conn = ShardingDataSource(runtime).get_connection()
    recorder = tracing.Recorder()
    recorder.install()
    try:
        recorder.begin_op()
        conn.begin()
        conn.execute("INSERT INTO t_user (uid, name, age) VALUES (1, 'a', 1), (2, 'b', 2)")
        assert sorted(conn._transaction.connections) == ["ds0", "ds1"]
        conn.commit()
        recorder.end_op()
    finally:
        recorder.uninstall()
        conn.close()
        runtime.close()

    assert tracing.check_tree(recorder.spans) == []
    (op,) = {span[tracing.OP] for span in recorder.spans}
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span[tracing.NAME], []).append(span)
    assert len(by_name["TransactionManager.begin"]) == 1
    (txn_commit,) = by_name["LocalTransaction.commit"]
    commits = by_name["Connection.commit"]
    assert [span[tracing.PARENT] for span in commits] == [txn_commit[tracing.ID]] * 2
    pays = [span for span in recorder.spans if span[tracing.LAYER] == "storage.latency"]
    (jdbc_commit,) = by_name["ShardingConnection.commit"]
    (pay,) = pays
    assert pay[tracing.NAME] == "latency.pay" and pay[tracing.PARENT] == jdbc_commit[tracing.ID]
    # issued and booked, then paid: both commits are back before the pay starts
    assert max(span[tracing.END] for span in commits) <= pay[tracing.START]
    assert len(windows) == 2 and pay[tracing.VALUE] == pytest.approx(
        sum(priced for priced, _ in windows))


def test_the_three_pay_names_the_harness_replaces_are_module_globals():
    """``pay`` stays bound in all three modules, called or not."""
    tracing = load_tracing()
    replaced = [owner for owner, attr, layer, *_ in tracing.BOUNDARIES
                if layer == "storage.latency"]
    assert replaced == [repro.storage.connection, repro.storage.engine, repro.storage.latency]
    for module in replaced:
        assert vars(module)["pay"] is repro.storage.latency.pay


def test_every_simulated_wait_goes_through_a_pay_the_harness_sees(paper_rule, monkeypatch):
    """With the Recorder installed, a prepared point select, an autocommit
    UPDATE, a two-source LOCAL commit and a blocking statement straight on
    a networked source produce exactly as many
    ``storage.latency`` spans as ``clock.sleep`` calls made from under
    ``repro.storage`` — through the bindings in ``connection`` and
    ``latency`` — and nothing sleeps: the counter stands in for the clock."""
    callers = []
    now = [100.0]

    def counted_sleep(seconds):
        callers.append(sys._getframe(1).f_globals["__name__"])
        now[0] += seconds

    # time passes only in a sleep, so no reserved I/O window is over before
    # its statement comes to wait for it, however slow the host
    monkeypatch.setattr(clock, "now", lambda: now[0])
    monkeypatch.setattr(clock, "sleep", counted_sleep)
    tracing = load_tracing()
    latency = LatencyModel(write_io=2e-4)
    # ds0 is across a network hop. Every statement on it, issued by the
    # engine or blocking on the source itself, books the hop as its delay
    # and waits through ``repro.storage.connection.pay``; nothing calls
    # ``repro.storage.engine.pay`` (bound there for the harness alone)
    sources = {"ds0": DataSource("ds0", latency=latency, network_hop=1e-4),
               "ds1": DataSource("ds1", latency=latency)}
    for i, source in enumerate(sources.values()):
        source.execute(f"CREATE TABLE t_user_h{i} (uid INT PRIMARY KEY, name VARCHAR(64), age INT)")
    runtime = ShardingRuntime(sources, paper_rule)
    conn = ShardingDataSource(runtime).get_connection()
    conn.execute("INSERT INTO t_user (uid, name, age) VALUES (2, 'bob', 25), (3, 'carol', 35)")
    point = conn.prepare("SELECT name FROM t_user WHERE uid = ?")
    assert point.execute((2,)).fetchall() == [("bob",)]

    recorder = tracing.Recorder()
    recorder.install()
    try:
        callers.clear()
        recorder.begin_op()
        assert point.execute((2,)).fetchall() == [("bob",)]
        assert point.execute((3,)).fetchall() == [("carol",)]
        assert conn.execute("UPDATE t_user SET age = 36 WHERE uid = 3").rowcount == 1
        conn.begin()
        conn.execute("INSERT INTO t_user (uid, name, age) VALUES (4, 'dave', 28), (5, 'eve', 41)")
        conn.commit()
        assert sources["ds0"].execute("SELECT name FROM t_user_h0 WHERE uid = 2") == [("bob",)]
        recorder.end_op()
        waited = list(callers)
    finally:
        recorder.uninstall()
        conn.close()
        runtime.close()

    pays = [span for span in recorder.spans if span[tracing.LAYER] == "storage.latency"]
    assert {span[tracing.NAME] for span in pays} == {"connection.pay", "latency.pay"}
    assert all(span[tracing.VALUE] > 0 for span in pays)  # each one priced, so each one slept
    under_storage = [name for name in waited if name.startswith("repro.storage")]
    assert under_storage == ["repro.storage.latency"] * len(pays)
    assert waited == under_storage  # and nothing else in the program waited at all


def test_an_issued_fan_out_is_still_seen_unit_by_unit(monkeypatch):
    """A 16-unit literal SELECT on the non-sharding column is issued and
    booked by the calling thread (DESIGN.md "Issue and await"). The
    harness must still see it whole: ``Connection.execute`` is the door
    every unit goes through, under the ``engine.executor`` span, and every
    unit's price passes through the one ``pay`` of the session call."""
    from repro.sharding import ShardingRule, build_auto_table_rule
    from repro.storage.connection import Connection

    tracing = load_tracing()
    names = [f"ds{i}" for i in range(4)]
    sources = {name: DataSource(name, latency=LatencyModel()) for name in names}
    table_rule = build_auto_table_rule(
        "t_big", names, sharding_column="id", algorithm_type="MOD",
        properties={"sharding-count": 16})
    for index, node in enumerate(table_rule.data_nodes):
        sources[node.data_source].execute(
            f"CREATE TABLE {node.table} (id INT PRIMARY KEY, v INT)")
        sources[node.data_source].execute(
            f"INSERT INTO {node.table} (id, v) VALUES ({index}, {index * 10})")
    runtime = ShardingRuntime(
        sources, ShardingRule([table_rule], default_data_source="ds0"),
        max_connections_per_query=4)
    conn = ShardingDataSource(runtime).get_connection()

    cursors = []
    storage_execute = Connection.execute

    def remembering(self, *args, **kwargs):
        cursors.append(storage_execute(self, *args, **kwargs))
        return cursors[-1]

    monkeypatch.setattr(Connection, "execute", remembering)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        recorder.begin_op()
        with starts_no_thread():
            rows = conn.execute("SELECT id FROM t_big WHERE v >= 0 ORDER BY id").fetchall()
        recorder.end_op()
    finally:
        recorder.uninstall()
        conn.close()
        runtime.close()

    assert rows == [(i,) for i in range(16)] and len(cursors) == 16
    assert tracing.check_tree(recorder.spans) == []
    (executor,) = [s for s in recorder.spans if s[tracing.LAYER] == "engine.executor"]
    (boundary,) = [s for s in recorder.spans if s[tracing.NAME] == "ShardingConnection.execute"]
    doors = [s for s in recorder.spans if s[tracing.LAYER] == "storage.connection"]
    pays = [s for s in recorder.spans if s[tracing.LAYER] == "storage.latency"]
    assert [s[tracing.NAME] for s in doors] == ["Connection.execute"] * 16
    # ...under the executor's span, and on the thread that opened it: there is no other
    assert {s[tracing.PARENT] for s in doors} == {executor[tracing.ID]}
    (pay,) = pays
    assert pay[tracing.NAME] == "latency.pay" and pay[tracing.PARENT] == boundary[tracing.ID]
    assert pay[tracing.VALUE] == pytest.approx(sum(c.cost for c in cursors))
    assert min(c.cost for c in cursors) > 0
    # issued first, paid after: every door and the executor are done before the pay
    assert max(s[tracing.END] for s in doors + [executor]) <= pay[tracing.START]


def test_pay_sleeps_at_most_once_and_never_for_a_window_that_is_over(monkeypatch):
    slept = []
    monkeypatch.setattr(clock, "now", lambda: 100.0)
    monkeypatch.setattr(clock, "sleep", slept.append)
    pay = repro.storage.latency.pay
    pay(0.5)
    assert slept == [0.5]
    pay(0.5, 100.2)  # behind nobody: what is left of the window
    pay(0.5, until=103.0)  # behind a queue: longer than the price
    assert slept == [0.5, 100.2 - 100.0, 3.0]
    pay(0.5, until=100.0)
    pay(0.5, until=99.0)  # over before anybody came to wait for it: asked, for nothing
    pay(0.0)
    assert slept[3:] == [0.0, -1.0]  # what `clock.sleep` returns from at once
