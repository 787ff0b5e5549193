"""Transaction end fans out: commit / prepare / rollback reach every
participant at once (DESIGN.md "Transaction end").

None of these tests reads a clock: overlap is shown by a barrier that a
serial round could never pass, saturation by pool workers parked on an
event, and the protocol guarantees by what is left in the databases, the
pools and the coordinator's log.
"""

import threading

import pytest

from repro.adaptors import ShardingDataSource, ShardingRuntime
from repro.distsql import execute_distsql
from repro.engine.executor import ExecutionEngine
from repro.exceptions import BaseTransactionError, XATransactionError
from repro.storage import DataSource
from repro.transaction import (
    TransactionCoordinator,
    TransactionManager,
    TransactionType,
    XATransactionLog,
    recover,
)

NAMES = ["ds0", "ds1", "ds2", "ds3"]


@pytest.fixture
def sources():
    fleet = {name: DataSource(name) for name in NAMES}
    for ds in fleet.values():
        ds.execute("CREATE TABLE acct (id INT PRIMARY KEY, balance INT NOT NULL)")
        ds.execute("INSERT INTO acct (id, balance) VALUES (1, 100)")
    return fleet


@pytest.fixture
def engine(sources):
    eng = ExecutionEngine(sources, worker_threads=4)
    yield eng
    eng.close()


@pytest.fixture(params=["caller_only", "engine"])
def submit(request, engine):
    """Both ways a manager is built: without an engine, and on one."""
    return {} if request.param == "caller_only" else {"submit": engine.submit_helpers}


def balances(sources):
    return {
        name: ds.execute("SELECT balance FROM acct WHERE id = 1")[0][0]
        for name, ds in sources.items()
    }


def write_all(txn, names=NAMES, delta=5):
    for name in names:
        txn.connection_for(name).execute(
            f"UPDATE acct SET balance = balance + {delta} WHERE id = 1")


def pools_idle(sources):
    return all(ds.pool.in_use == 0 for ds in sources.values())


def record_threads(txn, verb, seen, before=None):
    """Make ``verb`` of each pinned connection note the thread it ran on."""
    for name, connection in txn.connections.items():
        def noting(name=name, original=getattr(connection, verb)):
            if before is not None:
                before()
            seen.append((name, threading.get_ident()))
            return original()
        setattr(connection, verb, noting)


# ---------------------------------------------------------------------------
# The fan-out itself
# ---------------------------------------------------------------------------


@pytest.mark.concurrency
class TestFanOut:
    def test_commits_overlap(self, sources, engine):
        """Every participant's commit waits for all the others to have
        started: a serial round would sit in the first one until the
        barrier broke."""
        manager = TransactionManager(sources, submit=engine.submit_helpers)
        txn = manager.begin()
        write_all(txn)
        barrier = threading.Barrier(len(NAMES))
        seen = []
        record_threads(txn, "commit", seen, before=lambda: barrier.wait(timeout=10))
        txn.commit()
        assert txn.failures == []  # nobody saw a BrokenBarrierError
        assert balances(sources) == dict.fromkeys(NAMES, 105)
        assert pools_idle(sources)
        # the caller took the first participant itself
        assert dict(seen)["ds0"] == threading.get_ident()
        assert len({thread for _, thread in seen}) == len(NAMES)

    def test_width_is_capped_by_fanout_workers(self, sources, engine):
        engine.fanout_workers = 2
        manager = TransactionManager(sources, submit=engine.submit_helpers)
        txn = manager.begin()
        write_all(txn)
        barrier = threading.Barrier(2)  # caller + the one helper allowed
        seen = []
        first_two = iter([True, True])
        record_threads(
            txn, "commit", seen,
            before=lambda: next(first_two, False) and barrier.wait(timeout=10))
        txn.commit()
        assert txn.failures == []
        assert len({thread for _, thread in seen}) == 2
        assert balances(sources) == dict.fromkeys(NAMES, 105)

    def test_saturated_pool_commits_on_the_caller(self, sources, engine):
        """All four pool workers are busy: the helpers queue behind them,
        the caller asks every participant itself, in order, and does not
        wait for a helper that never got to run."""
        release = threading.Event()
        parked = threading.Barrier(5)

        def hog():
            parked.wait(timeout=10)
            release.wait(timeout=30)

        hogs = [engine.submit(hog) for _ in range(4)]
        parked.wait(timeout=10)  # every worker is inside hog() now
        try:
            manager = TransactionManager(sources, submit=engine.submit_helpers)
            txn = manager.begin()
            write_all(txn)
            seen = []
            record_threads(txn, "commit", seen)
            txn.commit()
            me = threading.get_ident()
            assert seen == [(name, me) for name in NAMES]
            assert balances(sources) == dict.fromkeys(NAMES, 105)
            assert pools_idle(sources)
        finally:
            release.set()
        for future in hogs:
            future.result(timeout=10)
        # the late helpers now run, find nothing to claim, and change nothing
        engine.submit(lambda: None).result(timeout=10)
        assert len(seen) == len(NAMES)

    def test_commit_after_runtime_close(self):
        runtime = ShardingRuntime({name: DataSource(name) for name in NAMES})
        execute_distsql(
            "CREATE SHARDING TABLE RULE t_user (RESOURCES(ds0, ds1, ds2, ds3), "
            "SHARDING_COLUMN=uid, TYPE=hash_mod, PROPERTIES('sharding-count'=4))",
            runtime,
        )
        runtime.engine.execute("CREATE TABLE t_user (uid INT PRIMARY KEY, v INT)")
        conn = ShardingDataSource(runtime).get_connection()
        conn.begin()
        for uid in range(4):
            conn.execute("INSERT INTO t_user (uid, v) VALUES (?, ?)", (uid, uid))
        assert [ds.pool.in_use for ds in runtime.data_sources.values()] == [1] * 4
        runtime.close()
        conn.commit()  # the pool is gone: the caller reaches all four itself
        assert pools_idle(runtime.data_sources)
        tables = [(ds, ds.database.table_names()[0]) for ds in runtime.data_sources.values()]
        assert [ds.execute(f"SELECT COUNT(*) FROM {table}")[0][0]
                for ds, table in tables] == [1, 1, 1, 1]


# ---------------------------------------------------------------------------
# Protocol guarantees, with and without helpers
# ---------------------------------------------------------------------------


class TestProtocolsUnderFailure:
    def test_local_ignores_one_failed_commit(self, sources, submit):
        manager = TransactionManager(sources, TransactionType.LOCAL, **submit)
        txn = manager.begin()
        write_all(txn)
        sources["ds2"].database.fail_next("commit")
        txn.commit()  # best effort: no raise
        assert [name for name, _ in txn.failures] == ["ds2"]
        got = balances(sources)
        assert {n: got[n] for n in NAMES if n != "ds2"} == dict.fromkeys(
            ["ds0", "ds1", "ds3"], 105)
        assert pools_idle(sources)

    def test_local_failures_are_in_participant_order(self, sources, submit):
        manager = TransactionManager(sources, TransactionType.LOCAL, **submit)
        txn = manager.begin()
        write_all(txn)
        for name in ("ds3", "ds1"):
            sources[name].database.fail_next("commit")
        txn.commit()
        assert [name for name, _ in txn.failures] == ["ds1", "ds3"]
        assert all(isinstance(exc, Exception) for _, exc in txn.failures)

    def test_xa_failed_prepare_applies_nothing(self, sources, submit):
        log = XATransactionLog()
        manager = TransactionManager(sources, TransactionType.XA, xa_log=log, **submit)
        txn = manager.begin()
        write_all(txn)
        sources["ds1"].database.fail_next("prepare")
        with pytest.raises(XATransactionError, match="prepare failed on 'ds1'"):
            txn.commit()
        assert balances(sources) == dict.fromkeys(NAMES, 100)
        assert [ds.database.prepared_xids() for ds in sources.values()] == [[]] * 4
        assert log.get(txn.xid) is None
        assert pools_idle(sources)

    def test_xa_failed_phase2_is_exactly_what_recover_finishes(self, sources, submit):
        log = XATransactionLog()
        manager = TransactionManager(sources, TransactionType.XA, xa_log=log, **submit)
        txn = manager.begin()
        write_all(txn)
        sources["ds2"].database.fail_next("commit")
        with pytest.raises(XATransactionError, match="commit incomplete"):
            txn.commit()
        assert log.get(txn.xid).pending == ["ds2"]
        assert sources["ds2"].database.prepared_xids() == [f"{txn.xid}:ds2"]
        assert [ds.database.prepared_xids() for ds in sources.values()].count([]) == 3
        assert pools_idle(sources)
        assert recover(log, sources) == 1
        assert balances(sources) == dict.fromkeys(NAMES, 105)
        assert log.in_doubt() == []

    def test_xa_writes_prepared_only_after_every_prepare_answered(self, sources, submit):
        """PREPARING is on the log while any prepare is out; PREPARED and
        COMMITTING appear only once all four have answered."""
        states = []

        class Log(XATransactionLog):
            def update(self, xid, state, pending=None):
                states.append((state.value, prepares_answered[0]))
                super().update(xid, state, pending)

        log = Log()
        manager = TransactionManager(sources, TransactionType.XA, xa_log=log, **submit)
        txn = manager.begin()
        write_all(txn)
        prepares_answered = [0]
        lock = threading.Lock()
        for connection in txn.connections.values():
            def counting(xid, original=connection.xa_prepare):
                assert log.get(txn.xid).state.value == "preparing"
                answer = original(xid)
                with lock:
                    prepares_answered[0] += 1
                return answer
            connection.xa_prepare = counting
        txn.commit()
        assert states == [("prepared", 4), ("committing", 4), ("committed", 4)]

    def test_base_failed_phase1_compensates_every_branch(self, sources, submit):
        coordinator = TransactionCoordinator(rpc_delay=0.0)
        manager = TransactionManager(
            sources, TransactionType.BASE, coordinator=coordinator, **submit)
        txn = manager.begin()
        write_all(txn)
        sources["ds3"].database.fail_next("commit")
        with pytest.raises(BaseTransactionError):
            txn.commit()
        assert [name for name, _ in txn.failures] == ["ds3"]
        assert balances(sources) == dict.fromkeys(NAMES, 100)
        assert coordinator._globals == {}
        assert pools_idle(sources)

    @pytest.mark.parametrize("verb", ["commit", "rollback"])
    @pytest.mark.parametrize("type_", list(TransactionType))
    def test_rollback_and_commit_reach_everyone(self, sources, submit, type_, verb):
        manager = TransactionManager(
            sources, type_, coordinator=TransactionCoordinator(rpc_delay=0.0), **submit)
        txn = manager.begin()
        write_all(txn)
        getattr(txn, verb)()
        assert balances(sources) == dict.fromkeys(NAMES, 105 if verb == "commit" else 100)
        assert pools_idle(sources)
        assert txn.finished


# ---------------------------------------------------------------------------
# Pinned connections always come back
# ---------------------------------------------------------------------------


class VanishingLog(XATransactionLog):
    """What a concurrent ``recover()`` does to a commit in flight: the
    record is gone when the coordinator comes to update it."""

    def update(self, xid, state, pending=None):
        self.remove(xid)
        super().update(xid, state, pending)


class TestConnectionsComeBack:
    def test_xa_log_failure_between_phases_releases_connections(self, sources, submit):
        """``update`` raises KeyError between the phases. The pools must
        not pay for it."""
        manager = TransactionManager(
            sources, TransactionType.XA, xa_log=VanishingLog(), **submit)
        txn = manager.begin()
        write_all(txn)
        with pytest.raises(KeyError):
            txn.commit()
        assert pools_idle(sources)
        assert txn.finished

        txn = manager.begin()
        write_all(txn, delta=1)
        with pytest.raises(KeyError):
            txn.rollback()
        assert pools_idle(sources)

    def test_base_coordinator_failure_releases_connections(self, sources, submit):
        class DownCoordinator(TransactionCoordinator):
            def branch_statuses(self, xid):
                raise ConnectionError("TC unreachable")

            def mark_global(self, xid, status):
                raise ConnectionError("TC unreachable")

        manager = TransactionManager(
            sources, TransactionType.BASE,
            coordinator=DownCoordinator(rpc_delay=0.0), **submit)
        for verb in ("commit", "rollback"):
            txn = manager.begin()
            write_all(txn)
            with pytest.raises(ConnectionError):
                getattr(txn, verb)()
            assert pools_idle(sources)

    def test_sharding_connection_survives_a_failed_commit(self):
        """End to end: the adaptor drops its reference to the transaction,
        so the transaction itself must have given the connections back."""
        fleet = {name: DataSource(name) for name in NAMES[:2]}
        runtime = ShardingRuntime(fleet, transaction_type=TransactionType.XA)
        try:
            execute_distsql(
                "CREATE SHARDING TABLE RULE t_user (RESOURCES(ds0, ds1), "
                "SHARDING_COLUMN=uid, TYPE=hash_mod, PROPERTIES('sharding-count'=2))",
                runtime,
            )
            runtime.engine.execute("CREATE TABLE t_user (uid INT PRIMARY KEY, v INT)")
            runtime.transaction_manager.xa_log = VanishingLog()
            conn = ShardingDataSource(runtime).get_connection()
            conn.begin()
            conn.execute("INSERT INTO t_user (uid, v) VALUES (0, 0), (1, 1)")
            with pytest.raises(KeyError):
                conn.commit()
            assert pools_idle(fleet)
            assert not conn.in_transaction
        finally:
            runtime.close()


# ---------------------------------------------------------------------------
# XA's read-only vote
# ---------------------------------------------------------------------------


class TestXAReadOnlyVote:
    def begin(self, sources, submit, log):
        manager = TransactionManager(sources, TransactionType.XA, xa_log=log, **submit)
        txn = manager.begin()
        for name in ("ds0", "ds1", "ds2"):
            assert txn.connection_for(name).execute(
                "SELECT balance FROM acct WHERE id = 1").fetchall() == [(100,)]
        write_all(txn, names=["ds3"])
        return txn

    def test_only_the_writer_is_parked(self, sources, submit):
        log = XATransactionLog()
        txn = self.begin(sources, submit, log)
        parked_during_phase2 = []
        connection = txn.connections["ds3"]
        original = connection.xa_commit

        def spying(xid):
            parked_during_phase2.extend(
                ds.database.prepared_xids() for ds in sources.values())
            original(xid)

        connection.xa_commit = spying
        txn.commit()
        assert parked_during_phase2 == [[], [], [], [f"{txn.xid}:ds3"]]
        assert balances(sources)["ds3"] == 105
        assert pools_idle(sources)

    def test_phase2_failure_leaves_exactly_the_writer_pending(self, sources, submit):
        log = XATransactionLog()
        txn = self.begin(sources, submit, log)
        sources["ds3"].database.fail_next("commit")
        with pytest.raises(XATransactionError):
            txn.commit()
        record = log.get(txn.xid)
        assert record.participants == NAMES
        assert record.pending == ["ds3"]
        assert [ds.database.prepared_xids() for ds in sources.values()] == [
            [], [], [], [f"{txn.xid}:ds3"]]
        assert recover(log, sources) == 1
        assert balances(sources)["ds3"] == 105

    def test_read_only_branch_pays_no_prepare(self, sources, submit):
        """A branch that only read is not asked to log a prepare: an armed
        prepare failure on it is never consumed, and the commit goes through."""
        log = XATransactionLog()
        txn = self.begin(sources, submit, log)
        sources["ds0"].database.fail_next("prepare")
        txn.commit()
        assert balances(sources)["ds3"] == 105
        assert sources["ds0"].database._fail_on.get("prepare") == 1

    def test_failed_prepare_with_read_only_branches(self, sources, submit):
        log = XATransactionLog()
        txn = self.begin(sources, submit, log)
        sources["ds3"].database.fail_next("prepare")
        with pytest.raises(XATransactionError):
            txn.commit()
        assert balances(sources) == dict.fromkeys(NAMES, 100)
        assert pools_idle(sources)
        assert all(not ds.pool.acquire().in_transaction for ds in sources.values())


# ---------------------------------------------------------------------------
# A lost participant is visible
# ---------------------------------------------------------------------------


def test_lost_participants_are_counted_by_transaction_type():
    fleet = {name: DataSource(name) for name in NAMES}
    runtime = ShardingRuntime(fleet)
    try:
        execute_distsql(
            "CREATE SHARDING TABLE RULE t_user (RESOURCES(ds0, ds1, ds2, ds3), "
            "SHARDING_COLUMN=uid, TYPE=hash_mod, PROPERTIES('sharding-count'=4))",
            runtime,
        )
        runtime.engine.execute("CREATE TABLE t_user (uid INT PRIMARY KEY, v INT)")
        conn = ShardingDataSource(runtime).get_connection()
        counter = runtime.observability.registry.get("transaction_failed_participants_total")

        conn.begin()
        conn.execute("INSERT INTO t_user (uid, v) VALUES (0, 0), (1, 1), (2, 2), (3, 3)")
        fleet["ds1"].database.fail_next("commit")
        fleet["ds2"].database.fail_next("commit")
        conn.commit()  # LOCAL: best effort, no raise
        assert counter.value(type="LOCAL") == 2
        assert counter.value(type="XA") == 0

        conn.set_transaction_type("XA")
        conn.begin()
        conn.execute("INSERT INTO t_user (uid, v) VALUES (4, 4), (5, 5)")
        fleet["ds0"].database.fail_next("commit")
        with pytest.raises(XATransactionError):
            conn.commit()
        assert counter.value(type="XA") == 1
        assert counter.value(type="LOCAL") == 2

        conn.begin()
        conn.execute("INSERT INTO t_user (uid, v) VALUES (8, 8)")
        conn.commit()  # a clean commit counts nothing
        assert counter.value(type="XA") == 1
        rows = conn.execute("SHOW METRICS LIKE 'transaction_failed%'").fetchall()
        assert len(rows) == 2
    finally:
        runtime.close()
