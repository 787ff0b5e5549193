"""Shared fixtures: the paper's running example topology.

Two data sources; ``t_user`` and ``t_order`` horizontally sharded by
``uid % 2`` (Fig. 3 of the paper); a broadcast ``t_dict`` table; binding
relationship between user and order.
"""

import contextlib
import threading

import pytest

from repro import clock
from repro.engine import SQLEngine
from repro.sharding import (
    DataNode,
    ShardingRule,
    StandardShardingStrategy,
    TableRule,
    create_algorithm,
)
from repro.storage import DataSource


#: where a :class:`FakeClock` starts
T0 = 1000.0


class FakeClock:
    """Time that passes only inside ``sleep``; every sleep is on record, and
    so is how long each thread slept in all."""

    def __init__(self):
        self.t = T0
        self.sleeps = []
        #: thread ident -> seconds it slept
        self.by_thread = {}
        self._lock = threading.Lock()

    def now(self):
        return self.t

    def sleep(self, seconds):
        if seconds > 0:  # like the real one: zero or less returns at once
            with self._lock:
                self.sleeps.append(seconds)
                me = threading.get_ident()
                self.by_thread[me] = self.by_thread.get(me, 0.0) + seconds
                self.t += seconds

    @property
    def slept(self):
        return sum(self.sleeps)


@contextlib.contextmanager
def starts_no_thread():
    """Fail unless every thread alive after the block was alive before it:
    the statements inside ran on the calling thread alone."""
    before = set(threading.enumerate())
    yield
    assert set(threading.enumerate()) <= before


@pytest.fixture
def fake(monkeypatch):
    """``clock.now`` / ``clock.sleep`` on a :class:`FakeClock`: nothing
    waits on a real clock, and what was slept for is on record."""
    fake = FakeClock()
    monkeypatch.setattr(clock, "now", fake.now)
    monkeypatch.setattr(clock, "sleep", fake.sleep)
    return fake


def mod2():
    return create_algorithm("MOD", {"sharding-count": 2})


@pytest.fixture
def fleet():
    """dict of two data sources with the paper's physical tables."""
    sources = {"ds0": DataSource("ds0"), "ds1": DataSource("ds1")}
    for i, ds in enumerate(sources.values()):
        ds.execute(f"CREATE TABLE t_user_h{i} (uid INT PRIMARY KEY, name VARCHAR(64), age INT)")
        ds.execute(f"CREATE TABLE t_order_h{i} (oid INT PRIMARY KEY, uid INT, amount FLOAT)")
        ds.execute("CREATE TABLE t_dict (k VARCHAR(16) , v VARCHAR(16))")
    return sources


@pytest.fixture
def paper_rule():
    t_user = TableRule(
        "t_user",
        [DataNode("ds0", "t_user_h0"), DataNode("ds1", "t_user_h1")],
        database_strategy=StandardShardingStrategy("uid", mod2()),
    )
    t_order = TableRule(
        "t_order",
        [DataNode("ds0", "t_order_h0"), DataNode("ds1", "t_order_h1")],
        database_strategy=StandardShardingStrategy("uid", mod2()),
    )
    return ShardingRule(
        [t_user, t_order],
        binding_groups=[["t_user", "t_order"]],
        broadcast_tables=["t_dict"],
        default_data_source="ds0",
    )


@pytest.fixture
def nonbinding_rule(paper_rule):
    rule = ShardingRule(
        [paper_rule.table_rule("t_user"), paper_rule.table_rule("t_order")],
        broadcast_tables=["t_dict"],
        default_data_source="ds0",
    )
    return rule


@pytest.fixture
def engine(fleet, paper_rule):
    eng = SQLEngine(fleet, paper_rule, max_connections_per_query=2)
    yield eng
    eng.close()


@pytest.fixture
def seeded_engine(engine):
    engine.execute(
        "INSERT INTO t_user (uid, name, age) VALUES "
        "(1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35), (4, 'dave', 28)"
    )
    engine.execute(
        "INSERT INTO t_order (oid, uid, amount) VALUES "
        "(10, 1, 5.0), (11, 2, 7.5), (12, 3, 3.0), (13, 1, 2.0)"
    )
    return engine


@pytest.fixture
def pipeline_calls(monkeypatch):
    """``pipeline_calls(name)`` starts recording the first argument of every
    call of ``repro.engine.pipeline.<name>`` — the module global, which is
    where the benchmark harness binds its spans too — and returns the list."""
    from repro.engine import pipeline

    def record(name):
        calls = []
        real = getattr(pipeline, name)

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
        return calls

    return record
