"""The generator's own copy of ``sbtest``: what is loaded, and what every
reply is checked against. Imports nothing of the program, so it can be
made before the program's import is timed as part of ``setup_s``.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from itertools import accumulate

import config


def random_text(rng: random.Random, length: int) -> str:
    return f"{rng.getrandbits(4 * length):0{length}x}"


class Dataset:
    """The generator's model of ``sbtest``: what was loaded, by id."""

    def __init__(self, seed: int, rows: int = config.TABLE_ROWS):
        rng = random.Random(seed)
        self.rows = rows
        #: index 0 unused, ids are 1..rows
        self.k = [0] * (rows + 1)
        self.c = [""] * (rows + 1)
        self.pad = [""] * (rows + 1)
        for row_id in range(1, rows + 1):
            self.k[row_id] = rng.randint(1, rows)
            self.c[row_id] = random_text(rng, config.C_LENGTH)
            self.pad[row_id] = random_text(rng, config.PAD_LENGTH)
        # read-only views on k for the workloads that never write
        self.by_k = sorted((self.k[i], i) for i in range(1, rows + 1))
        self._k_sorted = [pair[0] for pair in self.by_k]
        self._k_prefix = [0, *accumulate(self._k_sorted)]

    def k_range(self, low: int, high: int) -> tuple[int, int]:
        """Slice bounds into ``by_k`` of the rows with low <= k <= high."""
        return bisect_left(self._k_sorted, low), bisect_right(self._k_sorted, high)

    def k_sum(self, start: int, stop: int) -> int:
        return self._k_prefix[stop] - self._k_prefix[start]
