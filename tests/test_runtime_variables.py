"""Runtime variables: one table (``repro.adaptors.runtime.VARIABLES``).

Every variable is set, shown, persisted, replayed and applied by a peer
through that table; a value it does not accept is rejected with a
DistSQLError on every path and changes nothing.
"""

import pytest

from repro.adaptors import ShardingDataSource, ShardingRuntime
from repro.adaptors.runtime import VARIABLES
from repro.distsql import execute_distsql
from repro.exceptions import DistSQLError
from repro.governor import ConfigCenter
from repro.transaction import TransactionType


def _switch(enabled: bool) -> str:
    return "ON" if enabled else "OFF"


#: each variable's live object, read back as the stored value
LIVE = {
    "transaction_type": lambda rt: rt.transaction_manager.transaction_type.value,
    "max_connections_per_query": lambda rt: rt.engine.executor.max_connections_per_query,
    "tracing": lambda rt: _switch(rt.observability.tracer.enabled),
    "slow_query_threshold_ms": lambda rt: rt.observability.slow_log.threshold * 1000.0,
    "plan_cache": lambda rt: _switch(rt.engine.plan_cache.enabled),
    "workload_analytics": lambda rt: _switch(rt.observability.workload.enabled),
    "result_cache": lambda rt: _switch(rt.engine.result_cache.enabled),
}

#: a value other than the default, as typed, and as stored
CHANGED = {
    "transaction_type": ("xa", "XA"),
    "max_connections_per_query": ("7", 7),
    "tracing": ("yes", "ON"),
    "slow_query_threshold_ms": ("42.5", 42.5),
    "plan_cache": ("false", "OFF"),
    "workload_analytics": ("0", "OFF"),
    "result_cache": ("TRUE", "ON"),
}

SWITCHES = [name for name, variable in VARIABLES.items() if variable.default in ("ON", "OFF")]


def _set_distsql(runtime, name, value):
    execute_distsql(f"SET VARIABLE {name} = '{value}'", runtime)


def _set_plain(runtime, name, value):
    with ShardingDataSource(runtime).get_connection() as conn:
        conn.execute(f"SET {name} = '{value}'")


def _set_api(runtime, name, value):
    runtime.set_variable(name, value)


PATHS = {"distsql": _set_distsql, "plain_set": _set_plain, "set_variable": _set_api}


def test_the_tables_cover_every_variable():
    assert set(LIVE) == set(CHANGED) == set(VARIABLES)
    assert SWITCHES == ["tracing", "plan_cache", "workload_analytics", "result_cache"]


@pytest.mark.parametrize("name", sorted(VARIABLES))
def test_a_fresh_runtime_shows_what_its_live_objects_do(name):
    runtime = ShardingRuntime()
    shown = execute_distsql(f"SHOW VARIABLE {name}", runtime).rows
    assert shown == [(name, LIVE[name](runtime))]
    assert shown == [(name, VARIABLES[name].default)]
    runtime.close()


def test_constructor_arguments_override_the_defaults():
    runtime = ShardingRuntime(max_connections_per_query=4, transaction_type=TransactionType.XA)
    assert runtime.variable("max_connections_per_query") == 4 == LIVE[
        "max_connections_per_query"](runtime)
    assert runtime.variable("transaction_type") == "XA" == LIVE["transaction_type"](runtime)
    runtime.close()


@pytest.mark.parametrize("name", sorted(VARIABLES))
def test_round_trip(name):
    """DistSQL SET -> SHOW -> Governor prop -> restart replay -> peer."""
    typed, stored = CHANGED[name]
    center = ConfigCenter()
    runtime = ShardingRuntime(config_center=center)
    peer = ShardingRuntime(config_center=center)
    peer.enable_cluster_mode()

    execute_distsql(f"SET VARIABLE {name} = '{typed}'", runtime)
    assert execute_distsql(f"SHOW VARIABLE {name}", runtime).rows == [(name, stored)]
    assert LIVE[name](runtime) == stored
    assert center.get_prop(name) == stored

    assert peer.variable(name) == stored  # applied from the prop event
    assert LIVE[name](peer) == stored

    restarted = ShardingRuntime(config_center=center)
    assert restarted.variable(name) == VARIABLES[name].default
    restarted.load_rules_from_governor()
    assert restarted.variable(name) == stored
    assert LIVE[name](restarted) == stored
    for each in (runtime, peer, restarted):
        each.close()


@pytest.mark.parametrize("word", ["on", "OFF", "True", "false", "1", "0", "YES", "No"])
def test_every_switch_word_in_any_case(word):
    runtime = ShardingRuntime()
    expected = "ON" if word.lower() in ("on", "true", "1", "yes") else "OFF"
    for name in SWITCHES:
        runtime.set_variable(name, word)
        assert runtime.variable(name) == expected == LIVE[name](runtime)
    runtime.close()


REJECTED = [
    *[(name, value) for name in SWITCHES for value in ("maybe", "2", "nope", "")],
    ("max_connections_per_query", "abc"),
    ("max_connections_per_query", "0"),
    ("max_connections_per_query", "-3"),
    ("max_connections_per_query", "2.5"),
    ("slow_query_threshold_ms", "x"),
    ("slow_query_threshold_ms", "-1"),
    ("slow_query_threshold_ms", "nan"),
    ("transaction_type", "FOO"),
]


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize(("name", "value"), REJECTED)
def test_a_rejected_value_changes_nothing(path, name, value):
    runtime = ShardingRuntime()
    before = runtime.variable(name)
    invalidations = runtime.engine.plan_cache.invalidations
    clears = runtime.engine.result_cache.clears
    with pytest.raises(DistSQLError, match=rf"^{name} accepts "):
        PATHS[path](runtime, name, value)
    assert runtime.variable(name) == before == LIVE[name](runtime)
    assert runtime.engine.plan_cache.invalidations == invalidations
    assert runtime.engine.result_cache.clears == clears
    assert runtime.config_center.get_prop(name) is None
    runtime.close()


def test_unknown_name_is_rejected_alike_by_set_and_show():
    runtime = ShardingRuntime()
    with pytest.raises(DistSQLError) as by_api:
        runtime.set_variable("Nope", 1)
    with pytest.raises(DistSQLError) as by_show:
        execute_distsql("SHOW VARIABLE nope", runtime)
    assert str(by_api.value) == str(by_show.value)
    assert str(by_api.value).startswith("unknown variable 'nope'; known variables: ")
    runtime.close()
