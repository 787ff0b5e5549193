"""SessionContext: thread-portable session state.

The refactor's contract: causal replication tokens, primary pinning,
transaction pinning and the metadata/publish guards belong to a *session*
(one SessionContext object), not to whichever OS thread happens to run a
statement. These tests drive every thread boundary — a session resumed
on another thread, ``execute_pipeline`` flushes — and the fan-outs the
calling thread issues itself, and check the session state lands where it
must.
"""

import itertools
import threading

import pytest

from repro import clock
from repro.adaptors import ShardingDataSource, ShardingRuntime
from repro.distsql import execute_distsql
from repro.session import SessionContext, activate, current_session, try_current
from repro.storage import DataSource, ReplicaGroup
from repro.storage.replication import (
    primary_pinned,
    reset_session,
    session_token,
)

from .conftest import starts_no_thread


@pytest.fixture(autouse=True)
def fresh_session():
    reset_session()
    yield
    reset_session()


# ---------------------------------------------------------------------------
# The SessionContext object + contextvar plumbing
# ---------------------------------------------------------------------------


class TestSessionContext:
    def test_tokens_pin_and_describe(self):
        session = SessionContext(kind="jdbc")
        assert session.token("g") == 0
        session.note_write("g", 3)
        session.note_write("g", 2)  # never regresses
        assert session.token("g") == 3
        assert not session.pinned
        with session.pin():
            assert session.pinned
            with session.pin():
                assert session.pin_depth == 2
        assert not session.pinned
        info = session.describe()
        assert info["kind"] == "jdbc" and info["causal_groups"] == 1
        session.reset()
        assert session.token("g") == 0

    def test_guards_are_reentrant_and_keyed(self):
        session = SessionContext()
        key_a, key_b = object(), object()
        with session.guard(key_a):
            with session.guard(key_a):
                assert session.guard_depth(key_a) == 2
                assert session.guard_depth(key_b) == 0
        assert session.guard_depth(key_a) == 0

    def test_thread_root_sessions_are_per_thread(self):
        """Un-activated threads keep the old thread-local scoping."""
        current_session().note_write("g", 9)
        seen = {}

        def probe():
            seen["token"] = session_token("g")
            seen["session"] = current_session()

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert seen["token"] == 0
        assert seen["session"] is not current_session()

    def test_activate_makes_a_session_portable(self):
        session = SessionContext()
        seen = {}

        def worker():
            with activate(session):
                current_session().note_write("g", 5)
                with current_session().pin():
                    seen["pinned_inside"] = primary_pinned()
            # restored: the thread's own root session again
            seen["after"] = try_current() is not session

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert session.token("g") == 5
        assert seen["pinned_inside"] is True
        assert seen["after"] is True

    def test_metadata_guard_follows_the_session_not_the_thread(self):
        runtime = ShardingRuntime({"ds0": DataSource("ds0")})
        try:
            manager = runtime.metadata
            seen = {}

            def mutation(draft):
                writer_session = current_session()

                def probe():
                    # another thread resuming the writer's session sees
                    # the in-mutation flag; its own root session does not
                    seen["other_thread_own_session"] = manager.in_mutation
                    with activate(writer_session):
                        seen["other_thread_same_session"] = manager.in_mutation

                thread = threading.Thread(target=probe)
                thread.start()
                thread.join()
                seen["writer"] = manager.in_mutation

            manager.mutate(mutation, reason="test probe")
            assert seen["writer"] is True
            assert seen["other_thread_same_session"] is True
            assert seen["other_thread_own_session"] is False
            assert manager.in_mutation is False
        finally:
            runtime.close()


# ---------------------------------------------------------------------------
# Propagation through the execution stack (replicas + lag + fan-out)
# ---------------------------------------------------------------------------


def make_replicated_sharded_runtime(shards=4, lag=30.0):
    """4-shard table, each shard a replica group with one very-laggy
    replica: only causal tokens can make read-your-writes hold."""
    sources, groups = {}, {}
    for i in range(shards):
        primary = DataSource(f"ds{i}")
        group = ReplicaGroup(primary, seed=i)
        replica = DataSource(f"ds{i}_r0")
        group.add_replica(replica, lag=lag)
        sources[f"ds{i}"] = primary
        sources[f"ds{i}_r0"] = replica
        groups[f"ds{i}"] = group
    runtime = ShardingRuntime(sources)
    resources = ", ".join(f"ds{i}" for i in range(shards))
    execute_distsql(
        f"CREATE SHARDING TABLE RULE t_user (RESOURCES({resources}), "
        f"SHARDING_COLUMN=uid, TYPE=hash_mod, "
        f"PROPERTIES('sharding-count'={shards}))",
        runtime,
    )
    runtime.engine.execute("CREATE TABLE t_user (uid INT PRIMARY KEY, v INT)")
    for i in range(shards):
        runtime.apply_rule("readwrite_splitting", f"ds{i}", {
            "source": f"ds{i}", "primary": f"ds{i}", "replicas": [f"ds{i}_r0"]})
    for group in groups.values():
        group.sync()
    return runtime, groups


ALL_UIDS = "(0,1,2,3,4,5,6,7)"


class TestExecutorPropagation:
    def test_a_fan_out_write_stamps_the_callers_tokens(self):
        """A multi-shard UPDATE is issued unit by unit by the calling thread:
        every shard's commit stamps the session's token with its group's log
        tip, and no pool thread is involved."""
        runtime, groups = make_replicated_sharded_runtime()
        try:
            conn = ShardingDataSource(runtime).get_connection()
            for uid in range(8):
                conn.execute(f"INSERT INTO t_user (uid, v) VALUES ({uid}, 0)")
            with starts_no_thread():
                conn.execute(f"UPDATE t_user SET v = 42 WHERE uid IN {ALL_UIDS}")
            assert {name: conn.session.token(name) for name in groups} == {
                name: group.last_lsn() for name, group in groups.items()}
            # read-your-writes: 30s-laggy replicas cannot cover the token,
            # so the read falls back to the primary and sees the update
            assert conn.execute(
                "SELECT v FROM t_user WHERE uid = 3").fetchall() == [(42,)]
            # a brand-new session has no token: it is allowed the stale
            # replica, which hasn't even applied the inserts yet
            fresh = ShardingDataSource(runtime).get_connection()
            assert fresh.execute(
                "SELECT v FROM t_user WHERE uid = 3").fetchall() != [(42,)]
        finally:
            runtime.close()

    def test_pinned_transaction_survives_fanout(self):
        """A multi-shard statement inside a transaction pins one connection
        per source as it issues; the commit then stamps the session's
        tokens for every branch."""
        runtime, groups = make_replicated_sharded_runtime()
        try:
            conn = ShardingDataSource(runtime).get_connection()
            for uid in range(8):
                conn.execute(f"INSERT INTO t_user (uid, v) VALUES ({uid}, 0)")
            conn.begin()
            result = conn.execute(
                f"UPDATE t_user SET v = 7 WHERE uid IN {ALL_UIDS}")
            assert result.rowcount == 8
            assert conn.session.in_transaction
            # reads inside the transaction observe its uncommitted writes
            assert conn.execute(
                "SELECT v FROM t_user WHERE uid = 5").fetchall() == [(7,)]
            tokens_before = {n: conn.session.token(n) for n in groups}
            conn.commit()
            assert not conn.session.in_transaction
            for name, group in groups.items():
                assert conn.session.token(name) == group.last_lsn()
                assert conn.session.token(name) > tokens_before[name]
            # read-your-writes post-commit despite 30s replica lag
            assert conn.execute(
                "SELECT v FROM t_user WHERE uid = 5").fetchall() == [(7,)]
        finally:
            runtime.close()

    def test_commit_stamps_the_callers_tokens(self):
        """The transaction's end is issued to both groups by the committing
        thread itself, so both LSNs land in the committing session and the
        next read on it sees both writes through 30s of lag."""
        runtime, groups = make_replicated_sharded_runtime(shards=2)
        try:
            conn = ShardingDataSource(runtime).get_connection()
            for uid in range(4):
                conn.execute(f"INSERT INTO t_user (uid, v) VALUES ({uid}, 0)")
            conn.begin()
            conn.execute("UPDATE t_user SET v = 9 WHERE uid IN (0,1,2,3)")
            pinned = conn._transaction.connections
            assert sorted(pinned) == ["ds0", "ds1"]
            threads = {}

            def committing(name, original):
                def commit(*args, **kwargs):
                    threads[name] = threading.get_ident()
                    return original(*args, **kwargs)
                return commit

            for name, connection in pinned.items():
                connection.commit = committing(name, connection.commit)
            conn.commit()
            assert threads == dict.fromkeys(["ds0", "ds1"], threading.get_ident())
            for name, group in groups.items():
                assert conn.session.token(name) == group.last_lsn() > 0
            assert conn.execute(
                "SELECT v FROM t_user WHERE uid IN (0,1,2,3) ORDER BY uid"
            ).fetchall() == [(9,)] * 4
            fresh = ShardingDataSource(runtime).get_connection()
            assert fresh.execute(
                "SELECT v FROM t_user WHERE uid IN (0,1,2,3)").fetchall() == []
        finally:
            runtime.close()

    def test_execute_pipeline_flushes_keep_the_session(self):
        runtime, groups = make_replicated_sharded_runtime()
        try:
            conn = ShardingDataSource(runtime).get_connection()
            conn.execute_pipeline(
                [(f"INSERT INTO t_user (uid, v) VALUES ({u}, {u})", ())
                 for u in range(8)])
            for name, group in groups.items():
                assert conn.session.token(name) == group.last_lsn()
            # pipelined writes are immediately visible to their session
            assert conn.execute(
                "SELECT v FROM t_user WHERE uid = 6").fetchall() == [(6,)]
        finally:
            runtime.close()

    def test_tokens_stay_per_connection_not_per_thread(self):
        """Two connections driven from ONE thread: each session's tokens
        are its own (the thread-local design collapsed them)."""
        runtime, groups = make_replicated_sharded_runtime()
        try:
            writer = ShardingDataSource(runtime).get_connection()
            reader = ShardingDataSource(runtime).get_connection()
            writer.execute("INSERT INTO t_user (uid, v) VALUES (1, 10)")
            assert any(writer.session.token(n) for n in groups)
            assert all(reader.session.token(n) == 0 for n in groups)
        finally:
            runtime.close()


# ---------------------------------------------------------------------------
# SHOW SESSIONS / the registry
# ---------------------------------------------------------------------------


class TestSessionRegistry:
    def test_show_sessions_lists_and_drops_connections(self):
        runtime = ShardingRuntime({"ds0": DataSource("ds0")})
        try:
            conn = ShardingDataSource(runtime).get_connection()
            conn.execute("SELECT 1")
            result = execute_distsql("SHOW SESSIONS", runtime)
            assert result.columns[0] == "id"
            rows = {row[0]: row for row in result.rows}
            mine = rows[conn.session.session_id]
            assert mine[1] == "jdbc"
            assert mine[4] >= 1  # statements
            conn.close()
            result = execute_distsql("SHOW SESSIONS", runtime)
            assert conn.session.session_id not in {r[0] for r in result.rows}
        finally:
            runtime.close()

    def test_sessions_served_counts(self):
        runtime = ShardingRuntime({"ds0": DataSource("ds0")})
        try:
            before = runtime.sessions.sessions_served
            for _ in range(3):
                ShardingDataSource(runtime).get_connection().close()
            assert runtime.sessions.sessions_served == before + 3
            assert len(runtime.sessions) == 0
        finally:
            runtime.close()

    def test_age_does_not_follow_a_stepped_wall_clock(self, monkeypatch):
        """``age_s`` is a difference, so both readings come from the
        monotonic clock: an NTP step between them must not show."""
        wall = itertools.count(10**9, -3600)  # every look at the wall clock: an hour earlier
        monkeypatch.setattr(clock, "wall", lambda: float(next(wall)))
        monotonic = [100.0]
        monkeypatch.setattr(clock, "now", lambda: monotonic[0])
        session = SessionContext("jdbc")
        monotonic[0] = 100.25
        assert session.describe()["age_s"] == 0.25
        monotonic[0] = 101.5
        assert session.describe()["age_s"] == 1.5
