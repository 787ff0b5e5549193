"""``ExecutionEngine.execute`` gives back every pool connection it checked
out before it returns or raises. A query unit's outcome is its lazy cursor,
whose rows are computed at the merge's first read and need no connection,
so nothing is held for the merge and nothing is released after it.

Each case runs one statement through the SQL engine and looks at every pool
the moment each ``execute`` call returns or raises."""

import pytest

from repro.adaptors import ShardingRuntime
from repro.engine import ExecutionEngine
from repro.engine.resilience import ResiliencePolicy
from repro.exceptions import ExecutionError
from repro.sharding import ShardingRule, build_auto_table_rule
from repro.sharding.rule import DataNode, TableRule
from repro.storage import DataSource, FaultInjector
from repro.storage.faults import FaultKind

FANOUT = "SELECT id, v FROM t ORDER BY id"
ROWS = [(i, i * 10) for i in range(8)]
JOIN = "SELECT u.name, w.amount FROM u JOIN w ON u.id = w.uid ORDER BY w.amount"


def fleet(max_connections_per_query):
    """``t`` in four shards over ds0 and ds1 (two units per source), ``u``
    on ds0 only and ``w`` on ds1 only (a join of the two is federated)."""
    sources = {name: DataSource(name, pool_size=8) for name in ("ds0", "ds1")}
    t = build_auto_table_rule("t", list(sources), sharding_column="id",
                              algorithm_type="MOD", properties={"sharding-count": 4})
    for node in t.data_nodes:
        sources[node.data_source].execute(
            f"CREATE TABLE {node.table} (id INT PRIMARY KEY, v INT)")
    sources["ds0"].execute("CREATE TABLE u (id INT PRIMARY KEY, name VARCHAR(8))")
    sources["ds0"].execute("INSERT INTO u (id, name) VALUES (1, 'ann'), (2, 'bo')")
    sources["ds1"].execute("CREATE TABLE w (uid INT PRIMARY KEY, amount INT)")
    sources["ds1"].execute("INSERT INTO w (uid, amount) VALUES (1, 4), (2, 6)")
    rule = ShardingRule(
        [t, TableRule("u", [DataNode("ds0", "u")]), TableRule("w", [DataNode("ds1", "w")])],
        default_data_source="ds0")
    runtime = ShardingRuntime(sources, rule, max_connections_per_query=max_connections_per_query)
    runtime.engine.execute(
        "INSERT INTO t (id, v) VALUES " + ", ".join(f"({i}, {v})" for i, v in ROWS))
    return runtime


def modes(result):
    return {mode.value for mode in result.modes.values()}


def memory_strictly(runtime):
    result = runtime.engine.execute(FANOUT)
    assert modes(result) == {"memory_strictly"}
    assert result.fetchall() == ROWS


def connection_strictly(runtime):
    result = runtime.engine.execute(FANOUT)
    assert modes(result) == {"connection_strictly"}
    assert result.fetchall() == ROWS


def pinned_lane_beside_a_pool_group(runtime):
    ds0 = runtime.data_sources["ds0"]
    held = {"ds0": ds0.connect()}  # a transaction's connection: the caller's, not the engine's
    try:
        result = runtime.engine.execute(FANOUT, held_connections=held)
    finally:
        ds0.release(held["ds0"])
    assert result.modes["ds0"].value == "connection_strictly"
    assert result.modes["ds1"].value == "memory_strictly"
    assert result.fetchall() == ROWS


def traced(runtime):
    result = runtime.engine.execute(FANOUT, force_trace=True)
    assert result.fetchall() == ROWS
    assert len(result.trace.find_spans("storage")) == 4


def retried_transient_fault(runtime):
    executor = runtime.engine.executor
    executor.enable_resilience(ResiliencePolicy(max_retries=2, seed=7))
    injector = FaultInjector(seed=3)
    for source in runtime.data_sources.values():
        source.set_fault_injector(injector)
    injector.fail_once("ds1", "statement", FaultKind.TRANSIENT)
    assert runtime.engine.execute(FANOUT).fetchall() == ROWS
    assert executor.metrics.retries == 1


def a_unit_that_raises(runtime):
    runtime.data_sources["ds1"].database.fail_next("statement")
    with pytest.raises(ExecutionError, match="injected failure on statement"):
        runtime.engine.execute(FANOUT)


def federated_join(runtime):
    result = runtime.engine.execute(JOIN)
    assert result.route_type == "federation"
    assert result.fetchall() == [("ann", 4), ("bo", 6)]


@pytest.mark.parametrize("max_connections_per_query, drive", [
    (8, memory_strictly),
    (1, connection_strictly),
    (8, pinned_lane_beside_a_pool_group),
    (8, traced),
    (8, retried_transient_fault),
    (8, a_unit_that_raises),
    (8, federated_join),
], ids=lambda case: getattr(case, "__name__", str(case)))
def test_every_pool_is_idle_when_execute_returns_or_raises(
        monkeypatch, max_connections_per_query, drive):
    runtime = fleet(max_connections_per_query)
    checked_out = []  # per execute call: {source: connections the engine still has}
    execute = ExecutionEngine.execute

    def watched(self, units, is_query, held_connections=None, *args, **kwargs):
        try:
            return execute(self, units, is_query, held_connections, *args, **kwargs)
        finally:
            held = held_connections or {}
            checked_out.append({name: source.pool.in_use - (name in held)
                                for name, source in self.data_sources.items()})

    monkeypatch.setattr(ExecutionEngine, "execute", watched)
    try:
        drive(runtime)
    finally:
        runtime.close()
    assert checked_out and checked_out == [{"ds0": 0, "ds1": 0}] * len(checked_out)
