"""A batched INSERT runs from the plan cache: rows bound by parameter.

A plan hit binds each values row's parameters, routes each row through
the table rule and runs one row template per node, with the node's rows as
:class:`~repro.storage.Bindings` (DESIGN.md "Plan cache"). These tests
hold a hit to what the slow path (the plan cache off) does — the rows on
every node, the row count, each unit's storage price, the seconds booked
and the units — and cover a duplicate key mid-batch, shadow routing, the
hot-key sketch, the encrypt feature and a shard's CREATE INDEX.
"""

import sys
import threading

import pytest

from repro.adaptors import ShardingDataSource, ShardingRuntime
from repro.engine import SQLEngine
from repro.exceptions import DuplicateKeyError
from repro.features import (
    EncryptColumn,
    EncryptFeature,
    EncryptRule,
    ShadowFeature,
    ShadowRule,
    XorStreamEncryptor,
)
from repro.observability import Observability
from repro.sharding import DataNode, ShardingRule, StandardShardingStrategy, TableRule
from repro.storage import Bindings, DataSource, LatencyModel
from repro.storage.connection import Connection

from .conftest import mod2, session_call

#: prices every statement, writes and commits included
LATENCY = LatencyModel(write_io=2e-3, commit_io=2e-3)

ORDER = "CREATE TABLE {} (oid INT PRIMARY KEY, uid INT, amount FLOAT{})"


def order_rule(sources=("ds0", "ds1")) -> ShardingRule:
    """``t_order`` sharded by ``uid % 2`` over ``t_order_h0`` / ``t_order_h1``."""
    nodes = [DataNode(name, f"t_order_h{i}") for i, name in enumerate(sources)]
    return ShardingRule(
        [TableRule("t_order", nodes, database_strategy=StandardShardingStrategy("uid", mod2()))],
        default_data_source=sources[0])


def order_fleet(names=("ds0", "ds1"), extra_column="") -> dict[str, DataSource]:
    sources = {}
    for i, name in enumerate(names):
        sources[name] = DataSource(name, latency=LATENCY)
        sources[name].execute(ORDER.format(f"t_order_h{i % 2}", extra_column))
    return sources


def stored(sources) -> dict[str, list[tuple]]:
    """Every node's rows, in key order."""
    return {name: sorted(source.execute(f"SELECT * FROM t_order_h{i % 2}"))
            for i, (name, source) in enumerate(sources.items())}


def insert(rows, literal=False) -> tuple[str, tuple]:
    """One INSERT of ``rows`` into ``t_order``: prepared, or literal text."""
    head = "INSERT INTO t_order (oid, uid, amount) VALUES "
    if literal:
        return head + ", ".join(f"({oid}, {uid}, {amount})" for oid, uid, amount in rows), ()
    return head + ", ".join(["(?, ?, ?)"] * len(rows)), tuple(v for row in rows for v in row)


@pytest.fixture
def issued(monkeypatch):
    """Every statement the storage door issues: (source, rowcount, cost, delay)."""
    log = []
    real = Connection.execute

    def execute(self, sql, params=()):
        result = real(self, sql, params)
        log.append((self.data_source.name, result.rowcount, result.cost, result.delay))
        return result

    monkeypatch.setattr(Connection, "execute", execute)
    return log


# ---------------------------------------------------------------------------
# A hit is the slow path
# ---------------------------------------------------------------------------

CASES = {
    "one row": ([(30, 3, 3.0)], [(20, 1, 1.5)], False),
    "rows over two nodes": ([(30, 1, 1.0), (31, 2, 2.0), (32, 3, 3.0)],
                            [(20, 1, 1.5), (21, 2, 2.5), (23, 3, 3.5)], False),
    "literal rows": ([(30, 1, 1.0), (31, 2, 2.0), (32, 3, 3.0)],
                     [(20, 1, 1.5), (21, 2, 2.5), (23, 3, 3.5)], True),
}


@pytest.mark.parametrize("warm, rows, literal", CASES.values(), ids=CASES.keys())
def test_a_hit_stores_prices_and_cuts_what_the_slow_path_does(fake, issued, warm, rows, literal):
    outcomes = []
    for cached in (True, False):
        sources = order_fleet()
        engine = SQLEngine(sources, order_rule(), max_connections_per_query=2)
        engine.plan_cache.enabled = cached
        engine.execute(*insert(warm, literal))  # compiles the plan
        hits = engine.plan_cache.hits
        issued.clear()
        with session_call() as booked:
            result = engine.execute(*insert(rows, literal))
        assert engine.plan_cache.hits == hits + cached
        units = [(u.data_source, u.unit.table_map, u.unit.row_indexes) for u in result.units]
        if not literal:  # a literal text's slow path keeps its literals in the units
            units += [(u.sql, u.params) for u in result.units]
        issues = list(issued)
        outcomes.append((stored(sources), result.update_count, issues, booked.priced, units))
        engine.close()
    assert outcomes[0] == outcomes[1]
    _, count, issued_units, priced, _ = outcomes[0]
    assert count == len(rows) and priced > 0
    assert len(issued_units) == len({uid % 2 for _, uid, _ in rows})


def test_a_node_with_several_rows_runs_one_template_with_its_rows_as_bindings(fake):
    sources = order_fleet()
    engine = SQLEngine(sources, order_rule(), max_connections_per_query=2)
    sql, params = insert([(20, 1, 1.5), (21, 2, 2.5), (23, 3, 3.5)])
    engine.execute(sql, params)
    engine.execute("DELETE FROM t_order WHERE oid > 0")
    result = engine.execute(sql, params)
    by_source = {unit.data_source: unit for unit in result.units}
    several, one = by_source["ds1"], by_source["ds0"]
    assert type(several.params) is Bindings
    assert several.params == ((20, 1, 1.5), (23, 3, 3.5))
    assert several.statement.storage_plan_key == (
        "INSERT INTO t_order_h1 (oid, uid, amount) VALUES (?, ?, ?)")
    assert several.sql == "INSERT INTO t_order_h1 (oid, uid, amount) VALUES (?, ?, ?), (?, ?, ?)"
    assert one.params == (21, 2, 2.5)
    assert one.sql == "INSERT INTO t_order_h0 (oid, uid, amount) VALUES (?, ?, ?)"
    # one storage plan per node, compiled by the first execution and hit after it
    for source in sources.values():
        stats = source.database.plan_cache.stats()
        assert (stats["size"], stats["misses"], stats["hits"]) == (1, 2, 1)
    engine.close()


def test_a_pipelined_insert_runs_its_bindings_through_the_many_door(fake):
    """A one-node batch of several rows is one pipelined statement: its
    bindings reach storage's ``many`` door there too."""
    outcomes = []
    for cached in (True, False):
        sources = order_fleet()
        engine = SQLEngine(sources, order_rule())
        engine.plan_cache.enabled = cached
        sql, params = insert([(20, 1, 1.5), (23, 3, 3.5)])
        engine.execute(*insert([(30, 1, 1.0), (33, 3, 3.0)]))
        (result,) = engine.execute_pipeline([(sql, params)])
        assert type(result.units[0].params) is Bindings
        outcomes.append((stored(sources), result.update_count))
        engine.close()
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == 2


# ---------------------------------------------------------------------------
# A duplicate key mid-batch
# ---------------------------------------------------------------------------

#: oid 10 is taken on ds1: the ds1 unit fails at its second row, after 40
FAILING = [(40, 1, 4.0), (10, 1, 1.0), (42, 2, 4.2)]
SEED = [(10, 1, 1.0), (11, 2, 2.0), (12, 3, 3.0)]


@pytest.mark.parametrize("cached", [True, False], ids=["hit", "slow path"])
def test_a_duplicate_key_mid_batch_in_autocommit(fake, cached):
    """The failing unit's rows are all undone; another node's unit, in its
    own autocommit transaction, stays."""
    sources = order_fleet()
    engine = SQLEngine(sources, order_rule(), max_connections_per_query=2)
    engine.plan_cache.enabled = cached
    engine.execute(*insert(SEED))
    hits = engine.plan_cache.hits
    with pytest.raises(DuplicateKeyError):
        engine.execute(*insert(FAILING))
    assert engine.plan_cache.hits == hits + cached
    assert stored(sources) == {"ds0": [(11, 2, 2.0), (42, 2, 4.2)],
                               "ds1": [(10, 1, 1.0), (12, 3, 3.0)]}
    engine.close()


@pytest.mark.parametrize("cached", [True, False], ids=["hit", "slow path"])
def test_a_duplicate_key_mid_batch_in_a_transaction(fake, cached):
    """The rows before the duplicate stay in the open transaction, as any
    statement's writes before its error do; the rollback undoes them."""
    sources = order_fleet()
    runtime = ShardingRuntime(sources, order_rule(), max_connections_per_query=2)
    runtime.engine.plan_cache.enabled = cached
    conn = ShardingDataSource(runtime).get_connection()
    try:
        conn.execute(*insert(SEED))
        conn.begin()
        with pytest.raises(DuplicateKeyError):
            conn.execute(*insert(FAILING))
        seen = conn.execute("SELECT oid FROM t_order ORDER BY oid").fetchall()
        assert seen == [(10,), (11,), (12,), (40,), (42,)]
        conn.rollback()
        assert stored(sources) == {"ds0": [(11, 2, 2.0)], "ds1": [(10, 1, 1.0), (12, 3, 3.0)]}
        assert runtime.engine.plan_cache.hits >= cached
    finally:
        conn.close()
        runtime.close()


# ---------------------------------------------------------------------------
# Hooks see the slow path's context
# ---------------------------------------------------------------------------


def test_shadow_redirects_by_an_insert_column(fake):
    sources = order_fleet(("ds0", "ds1", "sh0", "sh1"), ", is_shadow BOOLEAN")
    feature = ShadowFeature(ShadowRule(mapping={"ds0": "sh0", "ds1": "sh1"}))
    engine = SQLEngine(sources, order_rule(), features=[feature])
    sql = "INSERT INTO t_order (oid, uid, amount, is_shadow) VALUES (?, ?, ?, ?), (?, ?, ?, ?)"
    engine.execute(sql, (1, 1, 1.0, False, 2, 2, 2.0, False))  # compiles the plan
    engine.execute(sql, (3, 1, 3.0, True, 4, 2, 4.0, True))
    engine.execute(sql, (5, 1, 5.0, False, 6, 2, 6.0, False))
    assert engine.plan_cache.hits == 2
    assert {name: [row[0] for row in rows] for name, rows in stored(sources).items()} == {
        "ds0": [2, 6], "ds1": [1, 5], "sh0": [4], "sh1": [3]}
    engine.close()


def test_the_hot_key_sketch_gets_the_same_keys_on_both_paths(fake):
    sketches = []
    for cached in (True, False):
        engine = SQLEngine(order_fleet(), order_rule())
        engine.attach_observability(Observability())
        engine.plan_cache.enabled = cached
        for start in (10, 20, 30):
            engine.execute(*insert([(start, 7, 1.0), (start + 1, 7, 1.0), (start + 2, 8, 1.0)]))
        sketches.append({key: sketch.top()
                         for key, sketch in engine.observability.workload.hot_keys.items()})
        assert engine.plan_cache.hits == 2 * cached
        engine.close()
    assert sketches[0] == sketches[1]
    assert sketches[0][("t_order", "uid")][0][:2] == (7, 6)


def test_with_encrypt_registered_an_insert_is_still_encrypted(fake):
    """Encrypt rewrites the statement in ``on_context``: it turns the plan
    cache off engine-wide, so the INSERT runs on the slow path."""
    sources = order_fleet(extra_column=", amount_cipher VARCHAR(64)")
    rule = EncryptRule()
    rule.add("t_order", EncryptColumn("amount", "amount_cipher", XorStreamEncryptor("k")))
    engine = SQLEngine(sources, order_rule(), features=[EncryptFeature(rule)])
    sql = "INSERT INTO t_order (oid, uid, amount) VALUES (?, ?, ?), (?, ?, ?)"
    engine.execute(sql, (1, 1, 1.5, 3, 1, 2.5))
    engine.execute(sql, (5, 1, 3.5, 7, 1, 4.5))
    assert engine.plan_cache.hits == 0 and len(engine.plan_cache) == 0
    rows = sources["ds1"].execute("SELECT oid, amount, amount_cipher FROM t_order_h1 ORDER BY oid")
    assert [row[0] for row in rows] == [1, 3, 5, 7]
    assert all(amount is None and cipher for _, amount, cipher in rows)
    (amount,), = engine.execute("SELECT amount FROM t_order WHERE oid = ?", (7,)).fetchall()
    assert float(amount) == 4.5  # decrypted
    engine.close()


def test_create_index_on_a_shard_recompiles_the_bound_storage_plan(fake):
    sources = order_fleet()
    engine = SQLEngine(sources, order_rule())
    for start in (10, 20):
        engine.execute(*insert([(start, 1, 1.0), (start + 2, 1, 2.0)]))
    cache = sources["ds1"].database.plan_cache
    before = cache.stats()
    assert (before["misses"], before["hits"]) == (1, 1)
    sources["ds1"].execute("CREATE INDEX idx_amount ON t_order_h1 (amount)")
    engine.execute(*insert([(30, 1, 1.0), (32, 1, 2.0)]))
    after = cache.stats()
    assert (after["misses"], after["invalidations"]) == (2, before["invalidations"] + 1)
    assert engine.execute("SELECT COUNT(*) FROM t_order WHERE amount = ?", (2.0,)).fetchall() == [(3,)]
    engine.close()


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


@pytest.mark.concurrency
def test_two_sessions_bulk_insert_through_one_plan_while_a_shard_gains_an_index():
    """Two JDBC sessions insert disjoint id ranges through the one cached
    INSERT text while a third creates indexes, which bumps the shards'
    schema epochs: every row lands exactly once and every pool connection
    goes back."""
    sources = {name: DataSource(name) for name in ("ds0", "ds1")}
    for i, source in enumerate(sources.values()):
        source.execute(ORDER.format(f"t_order_h{i}", ""))
    runtime = ShardingRuntime(sources, order_rule(), max_connections_per_query=2)
    data_source = ShardingDataSource(runtime)
    batch, batches = 20, 15
    sql = insert([(0, 0, 0.0)] * batch)[0]
    errors: list[BaseException] = []

    def load(first: int) -> None:
        try:
            with data_source.get_connection() as conn:
                for b in range(batches):
                    start = first + b * batch
                    conn.execute(sql, [v for oid in range(start, start + batch)
                                       for v in (oid, oid, float(oid))])
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    def index() -> None:
        try:
            with data_source.get_connection() as conn:
                for n in range(3):
                    conn.execute(f"CREATE INDEX idx_{n} ON t_order (amount)")
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=load, args=(first,)) for first in (1, 10_001)]
    threads.append(threading.Thread(target=index))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: interleave the batches
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        oids = [oid for rows in stored(sources).values() for oid, _, _ in rows]
        expected = [first + n for first in (1, 10_001) for n in range(batch * batches)]
        assert sorted(oids) == expected  # every row exactly once
        assert runtime.engine.plan_cache.hits > 0
        for source in sources.values():
            assert source.pool.in_use == 0
    finally:
        data_source.close()
        for source in sources.values():
            source.pool.close()
