"""Direct unit tests for the index structures."""

import pytest

from repro.exceptions import DuplicateKeyError
from repro.storage.index import HashIndex, SortedIndex


class TestHashIndex:
    def test_insert_and_lookup(self):
        index = HashIndex("i", ["k"], [0])
        index.insert(1, ("a",))
        index.insert(2, ("a",))
        index.insert(3, ("b",))
        assert index.lookup("a") == {1, 2}
        assert index.lookup("b") == {3}
        assert index.lookup("missing") == set()

    def test_unique_rejects_duplicates(self):
        index = HashIndex("u", ["k"], [0], unique=True)
        index.insert(1, (5,))
        with pytest.raises(DuplicateKeyError):
            index.insert(2, (5,))

    def test_remove_cleans_buckets(self):
        index = HashIndex("i", ["k"], [0])
        index.insert(1, ("x",))
        index.remove(1, ("x",))
        assert index.lookup("x") == set()
        assert len(index) == 0

    def test_remove_missing_is_noop(self):
        index = HashIndex("i", ["k"], [0])
        index.remove(9, ("ghost",))

    def test_composite_key(self):
        index = HashIndex("c", ["a", "b"], [0, 1], unique=True)
        index.insert(1, (1, 2))
        index.insert(2, (1, 3))
        assert index.lookup((1, 2)) == {1}
        assert index.lookup_values({"a": 1, "b": 3}) == {2}

    def test_unhashable_values_coerced(self):
        index = HashIndex("i", ["k"], [0])
        index.insert(1, ([1, 2],))
        assert index.lookup([1, 2]) == {1}


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
