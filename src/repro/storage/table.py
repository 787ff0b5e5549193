"""Heap table with primary-key and secondary indexes."""

from __future__ import annotations

from typing import Any, Iterator

from ..exceptions import DuplicateKeyError, StorageError
from .index import HashIndex, SortedIndex
from .schema import TableSchema


class Table:
    """One physical table: row heap + indexes + auto-increment counters.

    Rows live in a dict keyed by an internal row id, so deletes are O(1)
    and row ids are stable for the undo log. Indexes are maintained on
    every mutation. All methods assume the caller holds the database's
    table lock (see :class:`repro.storage.database.Database`).
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        #: when (``clock.now()``) the last reserved write I/O of this table
        #: ends; the server's ``IOTimeline`` starts the next one no earlier
        #: and moves it, under its own lock. Concurrent writers to one hot
        #: table queue up here, which is the physical reason sharding a big
        #: table into many small ones raises write throughput (Table IV of
        #: the paper). Reads never look at it.
        self.io_free_at = 0.0
        self._rows: dict[int, dict[str, Any]] = {}
        self._next_row_id = 0
        self._auto_value = 0
        self._hash_indexes: dict[str, HashIndex] = {}
        self._sorted_indexes: dict[str, SortedIndex] = {}
        if schema.primary_key:
            self._hash_indexes["__pk__"] = HashIndex("__pk__", list(schema.primary_key), unique=True)
            if len(schema.primary_key) == 1:
                self._sorted_indexes[schema.primary_key[0].lower()] = SortedIndex(
                    "__pk_sorted__", schema.primary_key[0]
                )
        for col in schema.columns:
            if col.unique and [col.name] != schema.primary_key:
                self._hash_indexes[f"__uniq_{col.name}__"] = HashIndex(
                    f"__uniq_{col.name}__", [col.name], unique=True
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def scan(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """Iterate (row_id, row) pairs; snapshot to tolerate mutation."""
        return iter(list(self._rows.items()))

    def get(self, row_id: int) -> dict[str, Any]:
        return self._rows[row_id]

    def value_tuples(self, row_ids: list[int]) -> list[tuple[Any, ...]]:
        """The rows of ``row_ids`` as value tuples in schema column order,
        in the order given; an id deleted since it was looked up is
        skipped."""
        return [tuple(row.values()) for row in map(self._rows.get, row_ids)
                if row is not None]

    def indexed_columns(self) -> set[str]:
        """Columns with an equality index available (lower-cased)."""
        cols: set[str] = set()
        for index in self._hash_indexes.values():
            if len(index.columns) == 1:
                cols.add(index.columns[0].lower())
        return cols

    def row_ids(self) -> list[int]:
        """Snapshot of all live row ids (full-scan access path)."""
        return list(self._rows)

    # ------------------------------------------------------------------
    # Index handles (used by compiled storage plans)
    #
    # A plan binds a lookup closure to these index objects once instead of
    # re-running index selection per statement. TRUNCATE clears index
    # contents in place, so captured handles stay valid across it; CREATE
    # INDEX and DROP/CREATE TABLE change the candidate set, which the
    # schema version bump (see Database.bump_schema_version) turns into a
    # plan recompile.
    # ------------------------------------------------------------------

    def equality_index(self, column: str) -> HashIndex | None:
        """First single-column hash index on `column` (the primary key's
        before any unique or secondary one)."""
        lower = column.lower()
        for index in self._hash_indexes.values():
            if len(index.columns) == 1 and index.columns[0].lower() == lower:
                return index
        return None

    def sorted_index(self, column: str) -> SortedIndex | None:
        return self._sorted_indexes.get(column.lower())

    def covering_index(self, equality_columns: set[str]) -> HashIndex | None:
        """Most specific hash index fully covered by the given lower-cased
        equality columns, e.g. a composite primary key (w_id, d_id, o_id);
        of equally specific ones the first created wins."""
        best: tuple[int, HashIndex] | None = None
        for index in self._hash_indexes.values():
            columns = [c.lower() for c in index.columns]
            if all(c in equality_columns for c in columns):
                if best is None or len(columns) > best[0]:
                    best = (len(columns), index)
        return best[1] if best else None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, values: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        """Insert a row; returns (row_id, normalized_row)."""
        row = self.schema.normalize_row(values)
        for col in self.schema.columns:
            if col.auto_increment and row.get(col.name) is None:
                self._auto_value += 1
                row[col.name] = self._auto_value
            elif col.auto_increment and isinstance(row.get(col.name), int):
                self._auto_value = max(self._auto_value, row[col.name])
        row_id = self._next_row_id
        self._index_insert(row_id, row)
        self._rows[row_id] = row
        self._next_row_id += 1
        return row_id, row

    def delete(self, row_id: int) -> dict[str, Any]:
        """Delete by row id; returns the removed row (for the undo log)."""
        try:
            row = self._rows.pop(row_id)
        except KeyError:
            raise StorageError(f"row {row_id} not found in table {self.name}") from None
        self._index_remove(row_id, row)
        return row

    def update(self, row_id: int, changes: dict[str, Any]) -> dict[str, Any]:
        """Apply column changes; returns the previous row (for undo)."""
        old_row = self._rows[row_id]
        new_row = dict(old_row)
        for column, value in changes.items():
            col = self.schema.column(column)
            new_row[col.name] = col.type.coerce(value)
        self._index_remove(row_id, old_row)
        try:
            self._index_insert(row_id, new_row)
        except DuplicateKeyError:
            self._index_insert(row_id, old_row)  # restore
            raise
        self._rows[row_id] = new_row
        return old_row

    def truncate(self) -> int:
        """Remove all rows; returns how many were removed."""
        count = len(self._rows)
        self._rows.clear()
        for index in self._hash_indexes.values():
            index._map.clear()
        for index in self._sorted_indexes.values():
            index._keys.clear()
            index._row_ids.clear()
        return count

    # -- undo-log cooperation (raw operations bypass constraints) --------

    def raw_reinsert(self, row_id: int, row: dict[str, Any]) -> None:
        """Re-insert a previously deleted row under its old id (rollback)."""
        self._index_insert(row_id, row)
        self._rows[row_id] = row
        self._next_row_id = max(self._next_row_id, row_id + 1)

    def raw_remove(self, row_id: int) -> None:
        """Remove a row inserted by a rolled-back transaction."""
        row = self._rows.pop(row_id, None)
        if row is not None:
            self._index_remove(row_id, row)

    def raw_restore(self, row_id: int, row: dict[str, Any]) -> None:
        """Restore a row image overwritten by a rolled-back update."""
        current = self._rows.get(row_id)
        if current is not None:
            self._index_remove(row_id, current)
        self._index_insert(row_id, row)
        self._rows[row_id] = row

    def raw_put(self, row_id: int, row: dict[str, Any]) -> None:
        """Install a replicated row image under its primary-side row id.

        Replace-or-insert like :meth:`raw_restore`, but also advances
        ``_next_row_id`` and the auto-increment counter so a replica
        promoted to primary continues both sequences without collisions.
        """
        current = self._rows.get(row_id)
        if current is not None:
            self._index_remove(row_id, current)
        try:
            self._index_insert(row_id, row)
        except DuplicateKeyError:
            if current is not None:
                self._index_insert(row_id, current)  # restore
            raise
        self._rows[row_id] = row
        self._next_row_id = max(self._next_row_id, row_id + 1)
        for col in self.schema.columns:
            if col.auto_increment and isinstance(row.get(col.name), int):
                self._auto_value = max(self._auto_value, row[col.name])

    def conflicting_row_ids(self, row: dict[str, Any]) -> set[int]:
        """Row ids holding any unique key the given row image claims
        (replication uses this to evict stale occupants on re-apply)."""
        ids: set[int] = set()
        for index in self._hash_indexes.values():
            if not index.unique:
                continue
            try:
                key = index.key_of(row)
            except KeyError:
                continue
            ids.update(index._map.get(key, ()))
        return ids

    # ------------------------------------------------------------------
    # Secondary index DDL
    # ------------------------------------------------------------------

    def create_index(self, name: str, columns: list[str], unique: bool = False) -> None:
        for col in columns:
            self.schema.column(col)  # validates existence
        if name in self._hash_indexes:
            raise StorageError(f"index {name!r} already exists on {self.name}")
        index = HashIndex(name, columns, unique=unique)
        for row_id, row in self._rows.items():
            index.insert(row_id, row)
        self._hash_indexes[name] = index
        if len(columns) == 1 and columns[0].lower() not in self._sorted_indexes:
            sorted_index = SortedIndex(name + "_sorted", columns[0], unique=False)
            for row_id, row in self._rows.items():
                sorted_index.insert(row_id, row)
            self._sorted_indexes[columns[0].lower()] = sorted_index

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _index_insert(self, row_id: int, row: dict[str, Any]) -> None:
        inserted: list[HashIndex] = []
        try:
            for index in self._hash_indexes.values():
                index.insert(row_id, row)
                inserted.append(index)
        except DuplicateKeyError:
            for index in inserted:
                index.remove(row_id, row)
            raise
        for sorted_index in self._sorted_indexes.values():
            sorted_index.insert(row_id, row)

    def _index_remove(self, row_id: int, row: dict[str, Any]) -> None:
        for index in self._hash_indexes.values():
            index.remove(row_id, row)
        for sorted_index in self._sorted_indexes.values():
            sorted_index.remove(row_id, row)
