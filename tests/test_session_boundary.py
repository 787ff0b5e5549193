"""Only the JDBC session boundary sleeps: everything below it books.

A session call (``ShardingConnection.execute``, ``begin``, ``commit``,
``rollback``, ``execute_pipeline``) opens one booking scope; storage, the
execution engine and transaction end book their priced windows in it, and
the call pays once, through ``repro.storage.latency.pay``, on the way out
(DESIGN.md "Issue and await"). The timing tests run on the ``fake`` clock of
``conftest.py``: time passes only in a sleep.
"""

import sys
import threading

import pytest

from repro import clock
from repro.adaptors import ShardingConnection, ShardingDataSource, ShardingRuntime
from repro.engine import SQLEngine
from repro.sharding import DataNode, ShardingRule, TableRule, build_auto_table_rule
from repro.storage import DataSource, LatencyModel
from repro.transaction import TransactionCoordinator

from .conftest import elsewhere, session_call
from .test_issue_await import approx

NAMES = [f"ds{i}" for i in range(4)]


def session_runtime(pool_size=8):
    """Four priced servers: ``t_big`` in 16 shards (id MOD 16, one row
    each), and two single-node tables on different servers, ``t_dim`` and
    ``t_fact``, whose join only federation can answer. BASE's coordinator
    round trip costs 1 ms."""
    sources = {name: DataSource(name, latency=LatencyModel(write_io=1e-3, commit_io=2e-3),
                                pool_size=pool_size) for name in NAMES}
    big = build_auto_table_rule("t_big", NAMES, sharding_column="id", algorithm_type="MOD",
                                properties={"sharding-count": 16})
    for i, node in enumerate(big.data_nodes):
        sources[node.data_source].execute(f"CREATE TABLE {node.table} (id INT PRIMARY KEY, v INT)")
        sources[node.data_source].execute(
            f"INSERT INTO {node.table} (id, v) VALUES ({i}, {i * 10})")
    sources["ds1"].execute("CREATE TABLE t_dim (k INT PRIMARY KEY, label VARCHAR(16))")
    sources["ds1"].execute("INSERT INTO t_dim (k, label) VALUES (0, 'zero'), (10, 'ten')")
    sources["ds2"].execute("CREATE TABLE t_fact (id INT PRIMARY KEY, k INT)")
    sources["ds2"].execute("INSERT INTO t_fact (id, k) VALUES (1, 10), (2, 0), (3, 10)")
    rule = ShardingRule([big, TableRule("t_dim", [DataNode("ds1", "t_dim")]),
                         TableRule("t_fact", [DataNode("ds2", "t_fact")])],
                        default_data_source="ds0")
    runtime = ShardingRuntime(sources, rule, max_connections_per_query=4)
    runtime.transaction_manager.coordinator = TransactionCoordinator(rpc_delay=1e-3)
    return runtime


def transaction(kind):
    return [
        (f"SET {kind}", lambda c, p: c.execute(f"SET VARIABLE transaction_type = {kind}")),
        (f"{kind} begin", lambda c, p: c.begin()),
        (f"{kind} write", lambda c, p: c.execute(
            "UPDATE t_big SET v = v + 1 WHERE id IN (0, 1)")),  # two servers
        (f"{kind} read", lambda c, p: c.execute("SELECT v FROM t_big WHERE id = 1").fetchall()),
        (f"{kind} commit", lambda c, p: c.commit()),
    ]


#: (name, call, instant it returns at, seconds after the first call starts).
#: The instants are those of the program before the session boundary became
#: the only sleeper, when every layer below waited in place.
SESSION = [
    ("point select", lambda c, p: p.execute((3,)).fetchall(), 0.0000346),
    ("16-unit fan-out", lambda c, p: c.execute(
        "SELECT id FROM t_big WHERE v >= 0 ORDER BY id").fetchall(), 0.0000658),
    ("autocommit update", lambda c, p: c.execute(
        "UPDATE t_big SET v = v + 1 WHERE id = 5"), 0.003101),
    *[step + (at,) for step, at in zip(transaction("LOCAL"), (
        0.003101, 0.003101, 0.0041362, 0.0041708, 0.0061708))],
    *[step + (at,) for step, at in zip(transaction("XA"), (
        0.0061708, 0.0061708, 0.007206, 0.0072406, 0.0112406))],
    *[step + (at,) for step, at in zip(transaction("BASE"), (
        0.0112406, 0.0122406, 0.0152758, 0.0153104, 0.0213104))],
    ("federated join", lambda c, p: c.execute(
        "SELECT f.id, d.label FROM t_fact f JOIN t_dim d ON f.k = d.k ORDER BY f.id"), 0.021344),
    ("pipeline over two servers", lambda c, p: c.execute_pipeline([
        ("UPDATE t_big SET v = v + 1 WHERE id = 2", ()),
        ("UPDATE t_big SET v = v + 1 WHERE id = 6", ()),
        ("UPDATE t_big SET v = v + 1 WHERE id = 3", ()),
        ("SELECT v FROM t_big WHERE id = 2", ())]), 0.0304842),
    ("BEGIN via execute", lambda c, p: c.execute("BEGIN"), 0.0314842),
    ("write via execute", lambda c, p: c.execute(
        "UPDATE t_big SET v = 0 WHERE id IN (8, 9)"), 0.0345194),
    ("COMMIT via execute", lambda c, p: c.execute("COMMIT"), 0.0405194),
]


def test_one_sleep_per_session_call_and_only_at_the_boundary(fake, monkeypatch):
    """A scripted session — a prepared point select, a 16-unit fan-out, an
    autocommit UPDATE, LOCAL, XA and BASE transactions over two servers, a
    federated join and a pipeline over two servers — returns from every
    call at the instant it did when each layer waited in place. Every call
    that booked anything sleeps exactly once, reached through
    ``latency.pay`` from the JDBC adaptor; nothing below the adaptors
    reaches ``clock.sleep``."""
    runtime = session_runtime()
    conn = ShardingDataSource(runtime).get_connection()
    point = conn.prepare("SELECT v FROM t_big WHERE id = ?")
    sleep = clock.sleep  # the fake one
    stacks = []

    def recording(seconds):
        frames, frame = [], sys._getframe(1)
        while frame is not None and len(frames) < 2:
            frames.append((frame.f_globals["__name__"], frame.f_code.co_name))
            frame = frame.f_back
        stacks.append(frames)
        sleep(seconds)

    monkeypatch.setattr(clock, "sleep", recording)
    fake.sleeps.clear()
    start = fake.t
    for name, call, at in SESSION:
        before, was = len(stacks), fake.t
        result = call(conn, point)
        assert fake.t - start == approx(at), name
        # time passes only in a sleep: a call that booked anything moved it
        assert len(stacks) - before == (fake.t > was), name
        if name == "federated join":
            assert result.diagnostics.route_type == "federation"
            assert result.fetchall() == [(1, "ten"), (2, "zero"), (3, "ten")]
    assert len(stacks) == len(SESSION) - 5  # the three SETs and the LOCAL and XA begin
    assert all(frames[0] == ("repro.storage.latency", "pay")
               and frames[1][0] == "repro.adaptors.jdbc" for frames in stacks), stacks
    conn.close()
    runtime.close()


def test_work_after_a_statement_runs_after_its_windows(fake, monkeypatch):
    """What a call does after its units' windows were booked — merging,
    wrapping the result — runs in the call's time after the last window
    ends, as when the statement slept before merging: the call sleeps the
    whole window, once, and returns that work's time after it. Had that
    work overlapped the window, the one sleep would shrink with the host's
    speed, and whether an op slept at all would depend on it too."""
    runtime = session_runtime()
    conn = ShardingDataSource(runtime).get_connection()
    fan_out = "SELECT id FROM t_big WHERE v >= 0 ORDER BY id"
    wrap = ShardingConnection._wrap
    fake.sleeps.clear()
    conn.execute(fan_out).fetchall()
    (window,) = fake.sleeps
    for cpu in (0.1 * window, 3 * window):  # shorter and longer than the window

        def slow_wrap(self, result, cpu=cpu):
            fake.t += cpu  # CPU work: the clock moves, nobody sleeps
            return wrap(self, result)

        monkeypatch.setattr(ShardingConnection, "_wrap", slow_wrap)
        fake.sleeps.clear()
        start = fake.t
        assert len(conn.execute(fan_out).fetchall()) == 16
        assert fake.sleeps == [approx(window)]
        assert fake.t - start == approx(window + cpu)
    conn.close()
    runtime.close()


def test_a_connection_handed_back_mid_window_queues_the_next_statement(fake):
    """The pool hand-back rule: a statement's scope releases its
    connection while the connection's window still runs; another session
    that takes it starts at ``Connection.free_at``, not when it issues."""
    source = DataSource("ds0", latency=LatencyModel(write_io=2e-3, commit_io=1e-3), pool_size=1)
    source.execute("CREATE TABLE acc (id INT PRIMARY KEY, bal INT)")
    source.execute("INSERT INTO acc (id, bal) VALUES (1, 100)")
    engine = SQLEngine({"ds0": source}, ShardingRule(default_data_source="ds0"))
    read = "SELECT bal FROM acc WHERE id = 1"
    fake.sleeps.clear()
    assert engine.execute(read).fetchall() == [(100,)]
    alone = fake.slept  # what the read costs on an idle server
    fake.sleeps.clear()
    start = fake.t
    with session_call():
        engine.execute("UPDATE acc SET bal = bal + 1 WHERE id = 1")
        (connection,) = source.pool._idle  # back in the pool, its window running
        first_ends = connection.free_at
        assert first_ends > fake.t == start and source.pool.in_use == 0
        rows = elsewhere(lambda: engine.execute(read).fetchall())
    assert rows == [(101,)]
    assert fake.t == approx(first_ends + alone) == approx(connection.free_at)
    assert fake.sleeps == [approx(first_ends + alone - start)]  # the scope's pay found it over
    engine.close()


def test_the_pool_hands_out_a_free_connection_before_a_busy_one(fake):
    """Handed back mid-window, a connection goes behind the free ones: the
    next checkout need not queue behind a window when it does not have to."""
    source = DataSource("ds0", latency=LatencyModel(write_io=2e-3), pool_size=2)
    source.execute("CREATE TABLE acc (id INT PRIMARY KEY, bal INT)")
    source.execute("INSERT INTO acc (id, bal) VALUES (1, 100)")
    free, busy = source.connect(), source.connect()
    with session_call():
        busy.execute("UPDATE acc SET bal = bal + 1 WHERE id = 1")
        assert busy.free_at > fake.t
        source.release(free)
        source.release(busy)  # last in, but still busy
        assert source.connect() is free
        assert source.connect() is busy


# -- batch checkout -----------------------------------------------------------------


def wait_until(condition):
    """Spin (on the real clock, briefly) until ``condition()`` holds."""
    done = threading.Event()
    for _ in range(2000):
        if condition():
            return
        done.wait(0.001)
    raise AssertionError("condition never held")


def test_a_blocked_batch_is_woken_by_a_release(fake):
    """A fan-out group that needs both connections of a full pool waits on
    the pool's condition — no polling sleep — and goes on when they come
    back."""
    runtime = session_runtime(pool_size=2)
    engine = runtime.engine
    engine.executor.max_connections_per_query = 2
    pool = runtime.data_sources["ds3"].pool
    held = [pool.acquire(), pool.acquire()]
    fake.sleeps.clear()
    out = []
    worker = threading.Thread(target=lambda: out.append(engine.execute(
        "SELECT id FROM t_big WHERE id IN (3, 7)").fetchall()))
    worker.start()
    wait_until(lambda: pool._available._waiters)
    assert out == []
    pool.release_many(held)
    worker.join(timeout=10)
    assert not worker.is_alive() and sorted(out[0]) == [(3,), (7,)]
    assert len(fake.sleeps) == 1  # the statement's own pay, after the batch: no polling
    assert pool.in_use == 0
    runtime.close()


def test_a_batch_checkout_reports_its_wait():
    """``pool_checkout_wait_seconds`` sees a fan-out group's batch checkout
    (``try_acquire_many``), not only single ones."""
    runtime = session_runtime()
    histogram = runtime.observability.registry.get("pool_checkout_wait_seconds")
    before = {name: histogram.count(source=name) for name in NAMES}
    conn = ShardingDataSource(runtime).get_connection()
    assert len(conn.execute("SELECT id FROM t_big WHERE v >= 0").fetchall()) == 16
    # four units per server, MaxCon 4: one batch of four per server
    assert {name: histogram.count(source=name) - before[name] for name in NAMES} == \
        dict.fromkeys(NAMES, 1)
    conn.close()
    runtime.close()


@pytest.mark.concurrency
def test_two_sessions_interleave_fan_outs_and_writes_over_pools_of_two():
    """Two JDBC sessions on real threads, each alternating a 16-unit
    fan-out (a batch of two per server, MaxCon 2, so lanes) with autocommit
    writes, over pools of two connections: every read is whole, no write
    is lost, every pool is idle afterwards and no thread is left behind."""
    runtime = session_runtime(pool_size=2)
    for source in runtime.data_sources.values():
        source.database.latency = LatencyModel(scale=0.01)  # real sleeps, kept short
    runtime.engine.executor.max_connections_per_query = 2
    before = set(threading.enumerate())
    errors = []
    rounds = 15

    def session(offset):
        conn = ShardingDataSource(runtime).get_connection()
        try:
            for i in range(rounds):
                rows = conn.execute("SELECT id FROM t_big WHERE v >= 0 ORDER BY id").fetchall()
                assert rows == [(k,) for k in range(16)]
                assert conn.execute(
                    f"UPDATE t_big SET v = v + 1 WHERE id = {(offset + i) % 16}").rowcount == 1
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=session, args=(offset,)) for offset in (0, 8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: more interleavings
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and not any(thread.is_alive() for thread in threads)
    conn = ShardingDataSource(runtime).get_connection()
    total = conn.execute("SELECT SUM(v) FROM t_big").fetchall()[0][0]
    conn.close()
    assert total == sum(k * 10 for k in range(16)) + 2 * rounds
    assert all((source.pool.in_use, source.pool.idle) == (0, 2)
               for source in runtime.data_sources.values())
    runtime.close()
    assert set(threading.enumerate()) <= before
