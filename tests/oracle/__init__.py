"""Test oracles: reference implementations the differential suites compare
``src/repro`` with. Nothing under ``src/`` may import this package
(``tests/test_storage_one_path.py`` checks)."""

from types import SimpleNamespace

from repro.sql import parse
from repro.storage.transaction import Transaction

from .storage_interpreter import execute_statement


class OracleConnection:
    """``Connection.execute``-shaped front of the reference interpreter.

    Parses each statement and interprets it against the data source's
    database inside a transaction of its own, committed on success and
    rolled back on error — the reference twin of the differential tests.
    """

    def __init__(self, data_source):
        self.database = data_source.database

    def execute(self, sql, params=()):
        txn = Transaction(self.database)
        try:
            result = execute_statement(self.database, parse(sql), params, txn)
            rows = list(result.rows)
        except Exception:
            txn.rollback()
            raise
        txn.commit()
        return SimpleNamespace(fetchall=lambda: rows, rowcount=result.rowcount)

    def executemany(self, sql, seq_of_params):
        for params in seq_of_params:
            self.execute(sql, params)
