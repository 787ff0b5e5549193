"""NOT NULL ``CHAR`` / ``VARCHAR`` / ``TEXT`` columns sort by the stored
value itself: storage makes no ``sort_key`` call for them, and the order is
the one ``sort_key`` gives — ascending, descending, with ties — in storage
and across shards."""

import pytest

from repro.engine import SQLEngine
from repro.sharding import DataNode, ShardingRule, StandardShardingStrategy, TableRule, create_algorithm
from repro.storage import DataSource, expression
from repro.storage.expression import sort_key

SCHEMA = ("(id INT PRIMARY KEY, c CHAR(4) NOT NULL, v VARCHAR(8) NOT NULL, "
          "t TEXT NOT NULL, n VARCHAR(8))")
COLUMNS = ("id", "c", "v", "t", "n")
#: ties in every string column; upper before lower case, "10" before "9",
#: the empty string first; ``n`` holds NULLs
ROWS = [
    (i, ("b", "B", "a", "", "10", "9", "é")[i % 7], ("x", "y", "x", "Y")[i % 4],
     ("t", "tt", "")[i % 3], None if i % 5 == 0 else ("m", "M")[i % 2])
    for i in range(40)
]

#: (ORDER BY, whether storage sorts by the values themselves)
SORTS = [
    ("c", True),
    ("c DESC", True),
    ("v", True),
    ("v DESC", True),
    ("v, c", True),
    ("t DESC, v DESC, c DESC", True),
    ("c, id", True),  # the string and integer families, one per key position
    ("v DESC, id DESC", True),
    ("n", False),  # NULL-able: NULLs first, by sort_key
    ("c, v DESC", False),  # mixed directions
]


def expected(order_by):
    """``ROWS`` in insertion order, sorted stably by ``sort_key``."""
    keys = [item.split() for item in order_by.split(", ")]
    offsets = [COLUMNS.index(key[0]) for key in keys]
    rows = list(ROWS)
    for offset, key in reversed(list(zip(offsets, keys))):  # stable, last key first
        rows.sort(key=lambda row: sort_key(row[offset]), reverse=key[-1] == "DESC")
    return rows


def insert(target):
    placeholders = ", ".join("?" * len(COLUMNS))
    for row in ROWS:
        target.execute(f"INSERT INTO w ({', '.join(COLUMNS)}) VALUES ({placeholders})", row)


@pytest.fixture(scope="module")
def node():
    source = DataSource("one")
    source.execute(f"CREATE TABLE w {SCHEMA}")
    insert(source)
    return source


@pytest.mark.parametrize("order_by, native", SORTS)
def test_storage_sorts_strings_as_sort_key_does(node, monkeypatch, order_by, native):
    sql = f"SELECT * FROM w ORDER BY {order_by}"
    node.execute(sql)  # compile
    keyed = []
    real = expression.sort_key
    monkeypatch.setattr(expression, "sort_key", lambda value: keyed.append(value) or real(value))
    rows = node.execute(sql)
    monkeypatch.undo()
    assert (not keyed) == native
    assert rows == expected(order_by)


@pytest.fixture(scope="module")
def sharded():
    sources = {name: DataSource(name) for name in ("ds0", "ds1")}
    for i, source in enumerate(sources.values()):
        source.execute(f"CREATE TABLE w_{i} {SCHEMA}")
    rule = ShardingRule([TableRule(
        "w", [DataNode("ds0", "w_0"), DataNode("ds1", "w_1")],
        database_strategy=StandardShardingStrategy(
            "id", create_algorithm("MOD", {"sharding-count": 2})))])
    engine = SQLEngine(sources, rule, max_connections_per_query=2)
    insert(engine)
    yield engine
    engine.close()


@pytest.mark.parametrize("order_by, native", SORTS)
def test_sharded_string_sort_is_one_node_s(sharded, node, order_by, native):
    """Across shards, the ORDER BY keys come out in one node's order (rows
    with equal keys may interleave by shard), and the rows are the same."""
    sql = f"SELECT * FROM w ORDER BY {order_by}"
    rows, reference = sharded.execute(sql).fetchall(), node.execute(sql)
    offsets = [COLUMNS.index(item.split()[0]) for item in order_by.split(", ")]
    assert [[row[i] for i in offsets] for row in rows] == [
        [row[i] for i in offsets] for row in reference]
    assert sorted(rows, key=repr) == sorted(reference, key=repr)
