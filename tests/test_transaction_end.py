"""Transaction end is issued, then awaited: commit / prepare / rollback go
out to every participant from the committing thread, which then waits once,
for the window that ends last (DESIGN.md "Transaction end").

The timing tests run on the ``fake`` clock of ``conftest.py``: time passes
only in a sleep, so what is checked is what was slept for and when each
window was booked. The protocol guarantees are checked by what is left in
the databases, the pools and the coordinator's log.
"""

import sys
import threading

import pytest

from repro.adaptors import ShardingDataSource, ShardingRuntime
from repro.distsql import execute_distsql
from repro.exceptions import BaseTransactionError, XATransactionError
from repro.storage import DataSource, LatencyModel
from repro.transaction import (
    TransactionCoordinator,
    TransactionManager,
    TransactionType,
    XATransactionLog,
    recover,
)

NAMES = ["ds0", "ds1", "ds2", "ds3"]
COMMIT = 2e-3  # what one commit or prepare costs on a priced fleet


def make_fleet(**kwargs):
    fleet = {name: DataSource(name, **kwargs) for name in NAMES}
    for ds in fleet.values():
        ds.execute("CREATE TABLE acct (id INT PRIMARY KEY, balance INT NOT NULL)")
        ds.execute("INSERT INTO acct (id, balance) VALUES (1, 100)")
    return fleet


@pytest.fixture
def sources():
    return make_fleet()


@pytest.fixture
def priced(fake):
    """Four servers whose commit and prepare cost COMMIT each; statements
    are free, and what loading them slept is forgotten."""
    fleet = make_fleet(latency=LatencyModel(base=0.0, index_io=0.0, row_cost=0.0,
                                            commit_io=COMMIT))
    fake.sleeps.clear()
    return fleet


@pytest.fixture(params=["caller_only", "engine"])
def submit(request, sources):
    """Both ways a manager is built: bare, and by a runtime beside its
    execution engine. Either way the committing thread issues the round."""
    if request.param == "caller_only":
        yield {}
        return
    runtime = ShardingRuntime(sources)
    yield {"runtime": runtime}
    runtime.close()


def make_manager(sources, submit, type_=TransactionType.LOCAL, **kwargs):
    runtime = submit.get("runtime")
    if runtime is None:
        return TransactionManager(sources, type_, **kwargs)
    manager = runtime.transaction_manager
    assert manager.data_sources == sources
    manager.set_type(type_)
    for name, value in kwargs.items():  # xa_log=, coordinator=
        setattr(manager, name, value)
    return manager


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


def approx(value):
    return pytest.approx(value, abs=1e-9)


# ---------------------------------------------------------------------------
# One wait for N windows
# ---------------------------------------------------------------------------


class TestFanOut:
    def test_commits_overlap(self, fake, priced):
        """Four participants, 2 ms each: the commits are issued one after
        the other and awaited with exactly one sleep, to the latest window."""
        txn = TransactionManager(priced).begin()
        write_all(txn)
        fake.sleeps.clear()
        txn.commit()
        assert fake.sleeps == [approx(COMMIT)]
        assert txn.failures == []
        assert balances(priced) == dict.fromkeys(NAMES, 105)
        assert pools_idle(priced)

    def test_xa_phase2_is_issued_after_every_prepare_is_ready(self, fake, priced):
        txn = TransactionManager(priced, TransactionType.XA).begin()
        write_all(txn)
        prepared_at, committed_at = [], []
        for connection in txn.connections.values():
            def preparing(xid, wait=True, original=connection.xa_prepare):
                window = original(xid, wait)
                prepared_at.append(window[1])
                return window

            def committing(xid, wait=True, original=connection.xa_commit):
                committed_at.append(fake.t)
                return original(xid, wait)

            connection.xa_prepare = preparing
            connection.xa_commit = committing
        fake.sleeps.clear()
        txn.commit()
        assert len(prepared_at) == len(committed_at) == 4
        assert min(committed_at) >= max(prepared_at)
        assert fake.sleeps == [approx(COMMIT)] * 2  # one per phase
        assert balances(priced) == dict.fromkeys(NAMES, 105)
        assert pools_idle(priced)

    def test_base_costs_one_commit_and_one_rpc(self, fake, priced):
        """Phase 1 ends when the last branch's report is in: one commit plus
        one TC round trip, not four of each. Then come the three TC calls
        of phase 2 (status check, COMMITTING, COMMITTED)."""
        rpc = 1e-3
        manager = TransactionManager(priced, TransactionType.BASE,
                                     coordinator=TransactionCoordinator(rpc_delay=rpc))
        txn = manager.begin()
        write_all(txn)
        fake.sleeps.clear()
        txn.commit()
        assert fake.sleeps == [approx(COMMIT + rpc)] + [approx(rpc)] * 3
        assert balances(priced) == dict.fromkeys(NAMES, 105)
        assert pools_idle(priced)

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
        conn.commit()  # the engine is closed: the commit needs nothing of it
        assert pools_idle(runtime.data_sources)
        tables = [(ds, ds.database.table_names()[0]) for ds in runtime.data_sources.values()]
        assert [ds.execute(f"SELECT COUNT(*) FROM {table}")[0][0]
                for ds, table in tables] == [1, 1, 1, 1]


@pytest.mark.concurrency
def test_two_sessions_commit_over_overlapping_participants(sources):
    """Two sessions on real threads move money in LOCAL transactions over
    participants that overlap (ds1 and ds2 are in both): every total is
    conserved and every connection comes back."""
    manager = TransactionManager(sources)
    errors = []

    def session(names):
        try:
            for round_ in range(40):
                txn = manager.begin()
                giver, taker = names[round_ % 3], names[(round_ + 1) % 3]
                for name, delta in ((giver, -1), (taker, 1)):
                    txn.connection_for(name).execute(
                        f"UPDATE acct SET balance = balance + {delta} WHERE id = 1")
                txn.commit()
        except BaseException as exc:  # handed to the test thread below
            errors.append(exc)

    threads = [threading.Thread(target=session, args=(names,))
               for names in (NAMES[:3], NAMES[1:])]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL over as often as it can be
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sum(balances(sources).values()) == 100 * len(NAMES)
    assert pools_idle(sources)


# ---------------------------------------------------------------------------
# Protocol guarantees, on a bare manager and on a runtime's
# ---------------------------------------------------------------------------


class TestProtocolsUnderFailure:
    def test_local_ignores_one_failed_commit(self, sources, submit):
        manager = make_manager(sources, submit, TransactionType.LOCAL)
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
        manager = make_manager(sources, submit, TransactionType.LOCAL)
        txn = manager.begin()
        write_all(txn)
        for name in ("ds3", "ds1"):
            sources[name].database.fail_next("commit")
        txn.commit()
        assert [name for name, _ in txn.failures] == ["ds1", "ds3"]
        assert all(isinstance(exc, Exception) for _, exc in txn.failures)

    def test_xa_failed_prepare_applies_nothing(self, sources, submit):
        log = XATransactionLog()
        manager = make_manager(sources, submit, TransactionType.XA, xa_log=log)
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
        manager = make_manager(sources, submit, TransactionType.XA, xa_log=log)
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
        manager = make_manager(sources, submit, TransactionType.XA, xa_log=log)
        txn = manager.begin()
        write_all(txn)
        prepares_answered = [0]
        for connection in txn.connections.values():
            def counting(xid, wait=True, original=connection.xa_prepare):
                assert log.get(txn.xid).state.value == "preparing"
                answer = original(xid, wait)
                prepares_answered[0] += 1
                return answer
            connection.xa_prepare = counting
        txn.commit()
        assert states == [("prepared", 4), ("committing", 4), ("committed", 4)]

    def test_base_failed_phase1_compensates_every_branch(self, sources, submit):
        coordinator = TransactionCoordinator(rpc_delay=0.0)
        manager = make_manager(
            sources, submit, TransactionType.BASE, coordinator=coordinator)
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
        manager = make_manager(
            sources, submit, type_, coordinator=TransactionCoordinator(rpc_delay=0.0))
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
        manager = make_manager(
            sources, submit, TransactionType.XA, xa_log=VanishingLog())
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

        manager = make_manager(
            sources, submit, TransactionType.BASE,
            coordinator=DownCoordinator(rpc_delay=0.0))
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
        manager = make_manager(sources, submit, TransactionType.XA, xa_log=log)
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

        def spying(xid, wait=True):
            parked_during_phase2.extend(
                ds.database.prepared_xids() for ds in sources.values())
            return original(xid, wait)

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
