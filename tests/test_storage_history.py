"""A seeded random history on one data source: the row heap and both kinds
of sorted-index key against the reference interpreter.

The table has two indexed INT columns: ``a`` is NOT NULL, so its sorted
index keys by the value itself; ``b`` is NULL-able, so its index keys by
``sort_key``. Random INSERT / UPDATE / DELETE run in autocommit and inside
BEGIN ... COMMIT / ROLLBACK, with the odd statement that must fail (a
duplicate key, a NULL into ``a``) and change nothing. After every step the
whole table, read by the compiled plans in id order, must equal both a
Python model of the history and the interpreter under ``tests/oracle``
(which reads the heap and no index); and every index read — ``=``,
``BETWEEN``, ``<`` and ``>=`` with ``int``, ``float`` and ``bool`` bounds —
must equal the interpreter's answer.
"""

import random

import pytest

from repro.exceptions import DuplicateKeyError, TypeCheckError
from repro.storage import DataSource

from .oracle import OracleConnection

SEED = 36
STEPS = 300
COLUMNS = ("id", "a", "b", "c")
READS = (
    ("=", "SELECT * FROM h WHERE {col} = ? ORDER BY id", 1),
    ("BETWEEN", "SELECT * FROM h WHERE {col} BETWEEN ? AND ? ORDER BY id", 2),
    ("<", "SELECT * FROM h WHERE {col} < ? ORDER BY id", 1),
    (">=", "SELECT * FROM h WHERE {col} >= ? ORDER BY id", 1),
)


def bound(rng):
    """A bound of one of the three types an INT column's index answers."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-6, 6)
    if kind == 1:
        return rng.choice((-2.5, -1.0, 0.0, 0.5, 2.0, 3.5))
    return rng.choice((True, False))


class History:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.source = DataSource("hist")
        self.conn = self.source.connect()
        self.conn.execute("CREATE TABLE h (id INT PRIMARY KEY, a INT NOT NULL, b INT, "
                          "c VARCHAR(8))")
        self.conn.execute("CREATE INDEX h_a ON h (a)")
        self.conn.execute("CREATE INDEX h_b ON h (b)")
        self.oracle = OracleConnection(self.source)
        self.model: dict[int, tuple] = {}  # id -> row, as the connection sees it
        self.before_begin: dict[int, tuple] | None = None
        self.next_id = 1

    def value_b(self):
        return None if self.rng.random() < 0.3 else self.rng.randint(-5, 5)

    def step(self):
        rng, conn, model = self.rng, self.conn, self.model
        draw = rng.random()
        if self.before_begin is None and draw < 0.08:
            conn.execute("BEGIN")
            self.before_begin = dict(model)
        elif self.before_begin is not None and draw < 0.08:
            conn.execute("COMMIT")
            self.before_begin = None
        elif self.before_begin is not None and draw < 0.16:
            conn.execute("ROLLBACK")
            self.model = self.before_begin
            self.before_begin = None
        elif draw < 0.5 or not model:
            row = (self.next_id, rng.randint(-5, 5), self.value_b(), f"r{self.next_id}")
            conn.execute("INSERT INTO h (id, a, b, c) VALUES (?, ?, ?, ?)", row)
            model[row[0]] = row
            self.next_id += 1
        elif draw < 0.55:
            taken = rng.choice(sorted(model))
            with pytest.raises(DuplicateKeyError):
                conn.execute("INSERT INTO h (id, a, b, c) VALUES (?, 0, 0, 'dup')", (taken,))
        elif draw < 0.6:
            with pytest.raises(TypeCheckError):
                conn.execute("UPDATE h SET a = NULL WHERE id = ?", (rng.choice(sorted(model)),))
        elif draw < 0.7:
            row_id = rng.choice(sorted(model))
            a, b = rng.randint(-5, 5), self.value_b()
            conn.execute("UPDATE h SET a = ?, b = ? WHERE id = ?", (a, b, row_id))
            model[row_id] = (row_id, a, b, model[row_id][3])
        elif draw < 0.8:
            low = rng.randint(-5, 5)
            b = self.value_b()
            count = conn.execute("UPDATE h SET b = ? WHERE a BETWEEN ? AND ?",
                                 (b, low, low + 2)).rowcount
            hit = [i for i, row in model.items() if low <= row[1] <= low + 2]
            assert count == len(hit)
            for i in hit:
                model[i] = model[i][:2] + (b,) + model[i][3:]
        elif draw < 0.87:
            limit = rng.randint(-5, 5)
            conn.execute("UPDATE h SET a = a + 1 WHERE b < ?", (limit,))
            for i, row in list(model.items()):
                if row[2] is not None and row[2] < limit:
                    model[i] = (i, row[1] + 1) + row[2:]
        elif draw < 0.94:
            row_id = rng.choice(sorted(model))
            assert conn.execute("DELETE FROM h WHERE id = ?", (row_id,)).rowcount == 1
            del model[row_id]
        else:
            floor = rng.randint(0, 6)
            conn.execute("DELETE FROM h WHERE b >= ?", (floor,))
            for i in [i for i, row in model.items() if row[2] is not None and row[2] >= floor]:
                del model[i]

    def check(self):
        everything = "SELECT * FROM h ORDER BY id"
        got = self.conn.execute(everything).fetchall()
        assert got == [self.model[i] for i in sorted(self.model)]
        assert got == self.oracle.execute(everything).fetchall()
        for col in ("a", "b"):
            for _, template, arity in READS:
                sql = template.format(col=col)
                params = tuple(sorted(bound(self.rng) for _ in range(arity)))
                assert (self.conn.execute(sql, params).fetchall()
                        == self.oracle.execute(sql, params).fetchall()), (sql, params)


def test_a_seeded_history_matches_the_model_and_the_oracle():
    history = History(SEED)
    kinds = set()
    for _ in range(STEPS):
        history.step()
        kinds.add(history.before_begin is None)
        history.check()
    assert kinds == {True, False}  # autocommit and explicit transactions both ran
    if history.before_begin is not None:
        history.conn.execute("ROLLBACK")
        history.model = history.before_begin
        history.check()
    history.conn.close()


def test_the_two_columns_get_the_two_kinds_of_key():
    history = History(SEED)
    table = history.source.database.table("h")
    assert table.sorted_index("a")._key is None  # NOT NULL INT: the value itself
    assert table.sorted_index("b")._key is not None  # NULL-able: sort_key
    assert table.sorted_index("id")._key is None  # the primary key is NOT NULL
    history.conn.close()
