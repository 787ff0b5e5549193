"""The isolation storage gives two connections of one data source: none.

A statement reads the latest value written, committed or not, and a write
may overwrite another transaction's uncommitted write, which that
transaction's rollback then undoes (DESIGN.md "Isolation"). Both cases are
strict expected failures: each starts to pass, and so fails here, once
storage keeps transactions apart (ROADMAP direction 6, write intents, with
direction 5's declared level and checker)."""

import pytest

from repro.exceptions import ShardingSphereError
from repro.storage import DataSource


@pytest.fixture
def acct():
    source = DataSource("ds0")
    source.execute("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
    source.execute("INSERT INTO acct (id, bal) VALUES (1, 100)")
    t1, t2 = source.connect(), source.connect()
    yield source, t1, t2
    for connection in (t1, t2):
        source.release(connection)


def balance(source):
    return source.execute("SELECT bal FROM acct WHERE id = 1")[0][0]


@pytest.mark.xfail(strict=True, reason="dirty read: no transaction isolation in storage "
                                      "(ROADMAP direction 6)")
def test_a_reader_does_not_see_an_uncommitted_write(acct):
    source, t1, t2 = acct
    t1.begin()
    t1.execute("UPDATE acct SET bal = 99 WHERE id = 1")
    try:
        seen = t2.execute("SELECT bal FROM acct WHERE id = 1").fetchall()
    finally:
        t1.rollback()
    assert seen == [(100,)]


@pytest.mark.xfail(strict=True, reason="dirty write, then lost update: no write-write "
                                      "conflict in storage (ROADMAP direction 6)")
def test_an_acknowledged_write_survives_another_transactions_rollback(acct):
    source, t1, t2 = acct
    t1.begin()
    t1.execute("UPDATE acct SET bal = 50 WHERE id = 1")
    try:
        t2.execute("UPDATE acct SET bal = bal + 7 WHERE id = 1")  # autocommit
    except ShardingSphereError:
        acknowledged = False  # refused: a conflict, as wait-die's younger writer gets
    else:
        acknowledged = True
    t1.rollback()
    assert not acknowledged or balance(source) == 107
