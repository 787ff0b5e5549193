"""Heap table with primary-key and secondary indexes."""

from __future__ import annotations

from typing import Any, Iterator

from ..exceptions import DuplicateKeyError, StorageError, TypeCheckError
from .expression import sort_key
from .index import HashIndex, SortedIndex
from .schema import TableSchema
from .types import FAMILY_OF_TYPE, NUMBER


class Table:
    """One physical table: row heap + indexes + auto-increment counters.

    The heap maps an internal row id to the row, so deletes are O(1) and
    row ids are stable for the undo log. A row is one tuple of its values
    in schema column order (:meth:`TableSchema.column_offset` positions);
    this module alone decides that format. Plans, DML candidates, joins and
    the indexes read it by column offset; a ``column -> value`` dict is
    built only by :meth:`scan` and :meth:`image` (replication row images).
    Rows are never mutated in place, so an undo entry holds the tuple it
    replaced. Indexes are maintained on every mutation. All methods assume
    the caller holds the database's table lock (see
    :class:`repro.storage.database.Database`).
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
        self._rows: dict[int, tuple[Any, ...]] = {}
        #: how many rows the heap holds; every mutation below keeps it
        #: (an attribute, not a property: a plan reads it per statement)
        self.row_count = 0
        self._names = tuple(schema.column_names)
        self._auto_offsets = tuple(i for i, col in enumerate(schema.columns)
                                   if col.auto_increment)
        self._next_row_id = 0
        self._auto_value = 0
        self._hash_indexes: dict[str, HashIndex] = {}
        self._sorted_indexes: dict[str, SortedIndex] = {}
        if schema.primary_key:
            self._hash_indexes["__pk__"] = self._hash_index(
                "__pk__", list(schema.primary_key), unique=True)
            if len(schema.primary_key) == 1:
                self._sorted_indexes[schema.primary_key[0].lower()] = self._sorted_index(
                    "__pk_sorted__", schema.primary_key[0])
        for col in schema.columns:
            if col.unique and [col.name] != schema.primary_key:
                self._hash_indexes[f"__uniq_{col.name}__"] = self._hash_index(
                    f"__uniq_{col.name}__", [col.name], unique=True)

    def _hash_index(self, name: str, columns: list[str], unique: bool) -> HashIndex:
        return HashIndex(name, columns, [self.schema.column_offset(c) for c in columns],
                         unique=unique)

    def _sorted_index(self, name: str, column: str) -> SortedIndex:
        """A sorted index on ``column``, keyed by the value itself when the
        column is declared NOT NULL in the numeric family, else by
        ``sort_key`` (see :class:`SortedIndex`)."""
        col = self.schema.column(column)
        native = col.not_null and FAMILY_OF_TYPE[col.type.name] is NUMBER
        return SortedIndex(name, self.schema.column_offset(column),
                           key=None if native else sort_key)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def scan(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """Iterate ``(row_id, column -> value)`` pairs of a snapshot taken
        now, so the caller may mutate the table while it iterates."""
        names = self._names
        return ((row_id, dict(zip(names, row))) for row_id, row in list(self._rows.items()))

    def image(self, row_id: int) -> dict[str, Any] | None:
        """The ``column -> value`` image of a live row, None if it is gone."""
        row = self._rows.get(row_id)
        return None if row is None else dict(zip(self._names, row))

    def value_tuples(self, row_ids: list[int]) -> list[tuple[Any, ...]]:
        """The rows of ``row_ids``, in the order given; an id deleted since
        it was looked up is skipped."""
        return list(filter(None, map(self._rows.get, row_ids)))

    def keyed_tuples(self, row_ids: list[int]) -> list[tuple[Any, ...]]:
        """:meth:`value_tuples` with each row's id appended one slot past
        its last column (a DML candidate)."""
        get = self._rows.get
        return [row + (row_id,) for row_id in row_ids
                if (row := get(row_id)) is not None]

    def tuples(self) -> list[tuple[Any, ...]]:
        """Every row now, in :meth:`scan` order (a join's build side)."""
        return list(self._rows.values())

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

    def insert(self, values: dict[str, Any]) -> int:
        """Insert a row given as ``column -> value``; returns its row id."""
        row = self.schema.normalize_row(values)
        for i in self._auto_offsets:
            value = row[i]
            if value is None:
                self._auto_value += 1
                row[i] = self._auto_value
            elif isinstance(value, int):
                self._auto_value = max(self._auto_value, value)
        stored = tuple(row)
        row_id = self._next_row_id
        self._index_insert(row_id, stored)
        self._rows[row_id] = stored
        self.row_count = len(self._rows)
        self._next_row_id += 1
        return row_id

    def delete(self, row_id: int) -> tuple[Any, ...]:
        """Delete by row id; returns the removed row (for the undo log)."""
        try:
            row = self._rows.pop(row_id)
        except KeyError:
            raise StorageError(f"row {row_id} not found in table {self.name}") from None
        self.row_count = len(self._rows)
        self._index_remove(row_id, row)
        return row

    def update(self, row_id: int, changes: dict[str, Any]) -> tuple[Any, ...]:
        """Apply ``column -> value`` changes; returns the previous row (for
        undo). A NULL into a NOT NULL column raises and changes nothing."""
        old_row = self._rows[row_id]
        values = list(old_row)
        schema = self.schema
        for column, value in changes.items():
            i = schema.column_offset(column)
            col = schema.columns[i]
            value = col.type.coerce(value)
            if value is None and col.not_null:
                raise TypeCheckError(f"column {col.name!r} of table {self.name} is NOT NULL")
            values[i] = value
        new_row = tuple(values)
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
        self.row_count = 0
        for index in self._hash_indexes.values():
            index._map.clear()
        for index in self._sorted_indexes.values():
            index._keys.clear()
            index._row_ids.clear()
        return count

    # -- undo-log cooperation (raw operations bypass constraints) --------

    def raw_reinsert(self, row_id: int, row: tuple[Any, ...]) -> None:
        """Re-insert a previously deleted row under its old id (rollback)."""
        self._index_insert(row_id, row)
        self._rows[row_id] = row
        self.row_count = len(self._rows)
        self._next_row_id = max(self._next_row_id, row_id + 1)

    def raw_remove(self, row_id: int) -> None:
        """Remove a row inserted by a rolled-back transaction."""
        row = self._rows.pop(row_id, None)
        if row is not None:
            self.row_count = len(self._rows)
            self._index_remove(row_id, row)

    def raw_restore(self, row_id: int, row: tuple[Any, ...]) -> None:
        """Restore a row overwritten by a rolled-back update."""
        current = self._rows.get(row_id)
        if current is not None:
            self._index_remove(row_id, current)
        self._index_insert(row_id, row)
        self._rows[row_id] = row
        self.row_count = len(self._rows)

    def raw_put(self, row_id: int, image: dict[str, Any]) -> None:
        """Install a replicated row image under its primary-side row id.

        Replace-or-insert like :meth:`raw_restore`, but also advances
        ``_next_row_id`` and the auto-increment counter so a replica
        promoted to primary continues both sequences without collisions.
        """
        row = self._from_image(image)
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
        self.row_count = len(self._rows)
        self._next_row_id = max(self._next_row_id, row_id + 1)
        for i in self._auto_offsets:
            if isinstance(row[i], int):
                self._auto_value = max(self._auto_value, row[i])

    def conflicting_row_ids(self, image: dict[str, Any]) -> set[int]:
        """Row ids holding any unique key the given row image claims
        (replication uses this to evict stale occupants on re-apply)."""
        row = self._from_image(image)
        ids: set[int] = set()
        for index in self._hash_indexes.values():
            if index.unique:
                ids.update(index._map.get(index.key_of(row), ()))
        return ids

    def _from_image(self, image: dict[str, Any]) -> tuple[Any, ...]:
        return tuple(image[name] for name in self._names)

    # ------------------------------------------------------------------
    # Secondary index DDL
    # ------------------------------------------------------------------

    def create_index(self, name: str, columns: list[str], unique: bool = False) -> None:
        for col in columns:
            self.schema.column(col)  # validates existence
        if name in self._hash_indexes:
            raise StorageError(f"index {name!r} already exists on {self.name}")
        index = self._hash_index(name, columns, unique)
        for row_id, row in self._rows.items():
            index.insert(row_id, row)
        self._hash_indexes[name] = index
        if len(columns) == 1 and columns[0].lower() not in self._sorted_indexes:
            sorted_index = self._sorted_index(name + "_sorted", columns[0])
            for row_id, row in self._rows.items():
                sorted_index.insert(row_id, row)
            self._sorted_indexes[columns[0].lower()] = sorted_index

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _index_insert(self, row_id: int, row: tuple[Any, ...]) -> None:
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

    def _index_remove(self, row_id: int, row: tuple[Any, ...]) -> None:
        for index in self._hash_indexes.values():
            index.remove(row_id, row)
        for sorted_index in self._sorted_indexes.values():
            sorted_index.remove(row_id, row)
