"""Direct unit tests for the index structures."""

import pytest

from repro.exceptions import DuplicateKeyError
from repro.storage.index import HashIndex, SortedIndex


class TestHashIndex:
    """A lookup returns the ascending ids of the rows holding the key; a
    miss returns the empty tuple."""

    def test_insert_and_lookup(self):
        index = HashIndex("i", ["k"], [0])
        index.insert(2, ("a",))
        index.insert(1, ("a",))
        index.insert(3, ("b",))
        assert index.lookup("a") == [1, 2]
        assert index.lookup("b") == [3]
        assert index.lookup("missing") == ()

    def test_unique_rejects_duplicates(self):
        index = HashIndex("u", ["k"], [0], unique=True)
        index.insert(1, (5,))
        with pytest.raises(DuplicateKeyError):
            index.insert(2, (5,))
        assert index.lookup(5) == [1]

    def test_remove_cleans_buckets(self):
        index = HashIndex("i", ["k"], [0])
        index.insert(1, ("x",))
        index.remove(1, ("x",))
        assert index.lookup("x") == ()
        assert len(index) == 0

    def test_remove_missing_is_noop(self):
        index = HashIndex("i", ["k"], [0])
        index.remove(9, ("ghost",))
        index.insert(1, ("x",))
        index.remove(9, ("x",))  # another row's key
        assert index.lookup("x") == [1]

    def test_composite_key(self):
        index = HashIndex("c", ["a", "b"], [0, 1], unique=True)
        index.insert(1, (1, 2))
        index.insert(2, (1, 3))
        assert index.lookup((1, 2)) == [1]
        assert index.lookup_values({"a": 1, "b": 3}) == [2]
        assert index.lookup_values({"a": 2, "b": 3}) == ()

    def test_unhashable_values_coerced(self):
        index = HashIndex("i", ["k"], [0])
        index.insert(1, ([1, 2],))
        assert index.lookup([1, 2]) == [1]
        assert index.lookup_values({"k": [1, 2]}) == [1]

    def test_a_key_switches_to_a_set_and_back(self):
        index = HashIndex("i", ["k"], [0])
        index.insert(7, ("a",))
        index.insert(7, ("a",))  # the same row again: still one id
        assert index._map["a"] == 7  # one row: its id, no set
        index.insert(3, ("a",))
        index.insert(5, ("a",))
        assert index._map["a"] == {3, 5, 7}
        assert index.lookup("a") == [3, 5, 7]
        index.remove(5, ("a",))
        assert index._map["a"] == {3, 7}
        index.remove(7, ("a",))
        assert index._map["a"] == 3
        assert index.lookup("a") == [3]
        index.remove(3, ("a",))
        assert "a" not in index._map

    def test_a_unique_index_never_holds_a_set(self):
        index = HashIndex("u", ["k"], [0], unique=True)
        for row_id in range(10):
            index.insert(row_id, (row_id,))
        for row_id in range(10, 50):
            with pytest.raises(DuplicateKeyError):
                index.insert(row_id, (row_id % 10,))
        index.remove(3, (3,))
        index.insert(33, (3,))
        assert all(type(held) is int for held in index._map.values())
        assert index.lookup(3) == [33]

    def test_a_readers_old_set_still_holds_the_survivor(self):
        """A key that drops back to one row gets a new entry; the set a
        lock-free reader fetched before is left as it was."""
        index = HashIndex("i", ["k"], [0])
        index.insert(1, ("a",))
        index.insert(2, ("a",))
        held = index._map["a"]  # what a reader got just before the delete
        index.remove(2, ("a",))
        assert held == {1, 2}  # the survivor is there (the heap skips row 2)
        index.insert(3, ("a",))
        assert held == {1, 2} and index._map["a"] == {1, 3}

    @pytest.mark.concurrency
    def test_readers_by_key_beside_writers_always_find_a_kept_row(self):
        """Two writers (serialized, as a table's writers are) make each key
        switch between one row id and a set of two to five; every key's
        first row is never deleted, so every lock-free lookup, taken at any
        moment, finds it."""
        import sys
        import threading
        import time

        keys = 8
        index = HashIndex("i", ["k"], [0])
        for key in range(keys):
            index.insert(key, (key,))  # the kept rows: ids 0..7
        stop = threading.Event()
        failures = []

        table_lock = threading.Lock()  # writers serialize, as on a table

        def writer(base):
            while not stop.is_set():
                for key in range(keys):
                    extra = (key,)
                    for change, row_id in ((index.insert, base + key),
                                           (index.insert, base + 100 + key),
                                           (index.remove, base + key),
                                           (index.remove, base + 100 + key)):
                        with table_lock:
                            change(row_id, extra)

        def reader():
            try:
                while not stop.is_set():
                    for key in range(keys):
                        found = index.lookup(key)
                        if key not in found or found != sorted(found):
                            failures.append((key, found))
                            return
            except Exception as exc:  # a set changed size under a reader
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=writer, args=(base,)) for base in (1000, 2000)] + [
            threading.Thread(target=reader) for _ in range(3)]
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.3)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert [index.lookup(key) for key in range(keys)] == [[key] for key in range(keys)]


class TestSortedIndex:
    def make(self):
        index = SortedIndex("s", 0)
        for row_id, value in enumerate([5, 1, 9, 5, 3]):
            index.insert(row_id, (value,))
        return index

    def test_full_range(self):
        assert sorted(self.make().range()) == [0, 1, 2, 3, 4]

    def test_closed_range(self):
        index = self.make()
        ids = list(index.range(3, 5))
        assert sorted(ids) == [0, 3, 4]  # values 3, 5, 5

    def test_open_bounds(self):
        index = self.make()
        assert sorted(index.range(3, 5, include_low=False)) == [0, 3]   # (3, 5]
        assert sorted(index.range(3, 5, include_high=False)) == [4]     # [3, 5)

    def test_half_unbounded(self):
        index = self.make()
        assert sorted(index.range(low=5)) == [0, 2, 3]
        assert sorted(index.range(high=3)) == [1, 4]

    def test_remove_specific_row_among_duplicates(self):
        index = self.make()
        index.remove(0, (5,))
        assert sorted(index.range(5, 5)) == [3]
        assert len(index) == 4

    def test_unique_sorted_index(self):
        index = SortedIndex("u", 0, unique=True)
        index.insert(1, (7,))
        with pytest.raises(DuplicateKeyError):
            index.insert(2, (7,))

    def test_nulls_ordered_first(self):
        index = SortedIndex("n", 0)
        index.insert(1, (None,))
        index.insert(2, (0,))
        assert list(index.range())[0] == 1


class TestRangeUnderAWriter:
    """Readers take no lock: a range must be one copy of the id list, not a
    walk over it while a writer inserts into and deletes from it."""

    STABLE = 200  # row ids 0..199, one per key, in key order
    HOT = 100  # the key the writer keeps adding equal keys to and removing

    def make(self):
        index = SortedIndex("s", 0)
        for row_id in range(self.STABLE):
            index.insert(row_id, (row_id,))
        return index

    def test_a_range_is_a_snapshot_of_the_moment_it_was_taken(self):
        index = self.make()
        taken = index.range(self.HOT - 2, self.HOT + 2)
        index.insert(1000, (self.HOT,))
        index.remove(self.HOT - 1, (self.HOT - 1,))
        assert list(taken) == list(range(self.HOT - 2, self.HOT + 3))
        del index._keys[10:], index._row_ids[10:]  # the list shrinks under an open range
        assert list(taken) == list(range(self.HOT - 2, self.HOT + 3))

    @pytest.mark.concurrency
    def test_ranges_beside_a_writer_never_raise_and_are_contiguous(self):
        import sys
        import threading
        import time

        index = self.make()
        stop = threading.Event()
        failures = []

        def writer():
            extra = (self.HOT,)
            while not stop.is_set():
                for row_id in (1000, 1001, 1002):
                    index.insert(row_id, extra)
                for row_id in (1001, 1000, 1002):
                    index.remove(row_id, extra)

        def reader():
            try:
                while not stop.is_set():
                    for low, high in ((self.HOT - 50, self.HOT + 50), (self.HOT, None), (None, None)):
                        stable = [row_id for row_id in index.range(low, high) if row_id < 1000]
                        # a contiguous run of the stable ids: none skipped, none
                        # repeated (its ends may be off by the writer's three)
                        if stable != list(range(stable[0], stable[0] + len(stable))):
                            failures.append(stable)
                            return
            except Exception as exc:  # an IndexError off the end of a shrunken list
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)]
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.3)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert index.range() == list(range(self.STABLE))


def sbtest():
    """A data source with an empty sysbench table: PRIMARY KEY (id) and an
    index on k, as the perf harness declares it."""
    from repro.storage import DataSource

    source = DataSource("ds0")
    source.execute("CREATE TABLE sbtest (id INT NOT NULL, k INT NOT NULL DEFAULT 0, "
                   "c CHAR(120) NOT NULL DEFAULT '', pad CHAR(60) NOT NULL DEFAULT '', "
                   "PRIMARY KEY (id))")
    source.execute("CREATE INDEX idx_sbtest_k ON sbtest (k)")
    return source


class TestTableUpdate:
    def indexes_called(self, table):
        """Record every insert/remove an index of ``table`` receives."""
        calls = []
        for index in [*table._hash_indexes.values(), *table._sorted_indexes.values()]:
            for verb in ("insert", "remove"):
                def record(row_id, row, index=index, verb=verb, real=getattr(index, verb)):
                    calls.append((index.name, verb))
                    real(row_id, row)
                setattr(index, verb, record)
        return calls

    def test_an_unindexed_column_update_leaves_the_indexes_untouched(self):
        source = sbtest()
        source.execute("INSERT INTO sbtest (id, k, c) VALUES (1, 10, 'a'), (2, 10, 'b')")
        table = source.database.table("sbtest")
        pk, k = table._hash_indexes["__pk__"], table.equality_index("k")
        held = dict(pk._map), dict(k._map), list(table.sorted_index("k")._row_ids)
        calls = self.indexes_called(table)
        assert source.execute("UPDATE sbtest SET c = ? WHERE id = ?", ("z", 2)) == 1
        source.execute("UPDATE sbtest SET k = 10 WHERE id = 1")  # assigned, not changed
        assert calls == []
        assert (pk._map, k._map, table.sorted_index("k")._row_ids) == held
        assert k._map[10] is held[1][10]  # the very set
        source.execute("UPDATE sbtest SET k = k + 1 WHERE id = 2")
        assert sorted(calls) == [("idx_sbtest_k", "insert"), ("idx_sbtest_k", "remove"),
                                 ("idx_sbtest_k_sorted", "insert"),
                                 ("idx_sbtest_k_sorted", "remove")]
        assert source.execute("SELECT id FROM sbtest WHERE k = 11") == [(2,)]
        assert source.execute("SELECT id, c FROM sbtest WHERE k = 10") == [(1, "a")]

    def test_a_duplicate_key_update_restores_every_index(self):
        source = sbtest()
        source.execute("CREATE UNIQUE INDEX uk ON sbtest (c)")
        source.execute("INSERT INTO sbtest (id, k, c) VALUES (1, 10, 'a'), (2, 20, 'b')")
        table = source.database.table("sbtest")
        before = {name: dict(index._map) for name, index in table._hash_indexes.items()}
        with pytest.raises(DuplicateKeyError):
            source.execute("UPDATE sbtest SET k = 30, c = 'a' WHERE id = 2")
        assert {name: dict(index._map) for name, index in table._hash_indexes.items()} == before
        assert source.execute("SELECT id, k, c FROM sbtest WHERE k = 20") == [(2, 20, "b")]


def test_a_loaded_row_costs_at_most_350_bytes_of_storage():
    """tracemalloc bytes that ``repro.storage`` holds per sysbench row
    after a load by 500-row INSERTs, as the perf harness loads: about 276
    on CPython 3.11 (the row tuple 72, its id 28, the heap's and both hash
    indexes' dict slots, both sorted indexes' list slots). It was about 708
    while every hash-index key held a ``set`` of row ids."""
    import tracemalloc

    rows, batch = 4000, 500
    source = sbtest()
    sql = "INSERT INTO sbtest (id, k, c, pad) VALUES " + ", ".join(["(?, ?, ?, ?)"] * batch)
    batches = [[value for row_id in range(start, start + batch)
                for value in (row_id, row_id * 7919 % rows, "c" * 119, "p" * 59)]
               for start in range(1, rows + 1, batch)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for params in batches:
            source.execute(sql, params)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(stat.size_diff for stat in after.compare_to(before, "filename")
               if "repro/storage" in stat.traceback[0].filename.replace("\\", "/"))
    assert held / rows <= 350, held / rows
