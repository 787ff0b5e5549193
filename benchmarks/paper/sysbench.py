"""Sysbench-compatible OLTP workload generator.

Re-implements the classic sysbench ``oltp_*`` scripts at laptop scale:
the ``sbtest`` table (id, k, c, pad) and the four scenarios the paper's
Table III reports — Point Select, Read Only, Write Only and Read Write —
with the standard per-transaction query mix (10 point selects, 4 range
query flavours, index/non-index updates, delete+insert).

The paper's Java requester drives these through ShardingSphere-JDBC or
JDBC; ours drives them through any :class:`paper.base.SystemUnderTest`.
"""

from __future__ import annotations

import random
import string
from bisect import bisect_left
from dataclasses import dataclass

from .base import Session, SystemUnderTest


@dataclass
class SysbenchConfig:
    """Knobs mirroring sysbench's CLI options (scaled down; Table II)."""

    table_size: int = 10_000
    range_size: int = 20
    point_selects: int = 10
    simple_ranges: int = 1
    sum_ranges: int = 1
    order_ranges: int = 1
    distinct_ranges: int = 1
    index_updates: int = 1
    non_index_updates: int = 1
    delete_inserts: int = 1
    load_batch: int = 500
    seed: int = 42

    c_length: int = 119
    pad_length: int = 59

    #: how point/update row ids are drawn: "uniform" matches classic
    #: sysbench; "zipfian" skews toward low ids (sysbench's --rand-type
    #: equivalent) so hot-key detection has something to find.
    key_distribution: str = "uniform"
    zipf_exponent: float = 1.2


SCENARIOS = ("point_select", "read_only", "write_only", "read_write")

CREATE_SBTEST = (
    "CREATE TABLE sbtest ("
    "id INT NOT NULL, "
    "k INT NOT NULL DEFAULT 0, "
    "c CHAR(120) NOT NULL DEFAULT '', "
    "pad CHAR(60) NOT NULL DEFAULT '', "
    "PRIMARY KEY (id))"
)


def _random_text(rng: random.Random, length: int) -> str:
    return "".join(rng.choices(string.ascii_lowercase + string.digits, k=length))


class SysbenchWorkload:
    """Prepares the sbtest data set and runs scenario transactions."""

    def __init__(self, config: SysbenchConfig | None = None):
        self.config = config or SysbenchConfig()
        cfg = self.config
        if cfg.key_distribution not in ("uniform", "zipfian"):
            raise ValueError(
                f"unknown key_distribution {cfg.key_distribution!r}; "
                "known: uniform, zipfian"
            )
        self._zipf_cdf: list[float] = []
        self._zipf_total = 0.0
        if cfg.key_distribution == "zipfian":
            # Zipf over ids 1..table_size: P(id=i) ~ 1/i^s. Precompute the
            # cumulative weights once; sampling is then one bisect per id.
            total = 0.0
            cdf = []
            for i in range(1, cfg.table_size + 1):
                total += 1.0 / (i ** cfg.zipf_exponent)
                cdf.append(total)
            self._zipf_cdf = cdf
            self._zipf_total = total

    # ------------------------------------------------------------------
    # Prepare phase
    # ------------------------------------------------------------------

    def prepare(self, system: SystemUnderTest) -> None:
        """Create the sbtest table and load ``table_size`` rows."""
        cfg = self.config
        rng = random.Random(cfg.seed)
        session = system.session()
        try:
            session.execute(CREATE_SBTEST)
            batch: list[str] = []
            for row_id in range(1, cfg.table_size + 1):
                k = rng.randint(1, cfg.table_size)
                c = _random_text(rng, cfg.c_length)
                pad = _random_text(rng, cfg.pad_length)
                batch.append(f"({row_id}, {k}, '{c}', '{pad}')")
                if len(batch) >= cfg.load_batch:
                    session.execute(
                        "INSERT INTO sbtest (id, k, c, pad) VALUES " + ", ".join(batch)
                    )
                    batch.clear()
            if batch:
                session.execute("INSERT INTO sbtest (id, k, c, pad) VALUES " + ", ".join(batch))
        finally:
            session.close()

    # ------------------------------------------------------------------
    # Scenario transactions
    # ------------------------------------------------------------------

    def run_transaction(self, scenario: str, session: Session, rng: random.Random) -> None:
        if scenario == "point_select":
            self._point_select(session, rng)
        elif scenario == "read_only":
            self._read_only(session, rng, transactional=True)
        elif scenario == "write_only":
            self._write_only(session, rng)
        elif scenario == "read_write":
            self._read_write(session, rng)
        else:
            raise ValueError(f"unknown scenario {scenario!r}; known: {SCENARIOS}")

    def _rand_id(self, rng: random.Random) -> int:
        if self._zipf_cdf:
            u = rng.random() * self._zipf_total
            return bisect_left(self._zipf_cdf, u) + 1
        return rng.randint(1, self.config.table_size)

    def _range_bounds(self, rng: random.Random) -> tuple[int, int]:
        start = rng.randint(1, max(1, self.config.table_size - self.config.range_size))
        return start, start + self.config.range_size - 1

    # -- reads ------------------------------------------------------------

    def _point_select(self, session: Session, rng: random.Random) -> None:
        session.execute("SELECT c FROM sbtest WHERE id = ?", (self._rand_id(rng),))

    def _reads(self, session: Session, rng: random.Random) -> None:
        cfg = self.config
        for _ in range(cfg.point_selects):
            session.execute("SELECT c FROM sbtest WHERE id = ?", (self._rand_id(rng),))
        for _ in range(cfg.simple_ranges):
            low, high = self._range_bounds(rng)
            session.execute("SELECT c FROM sbtest WHERE id BETWEEN ? AND ?", (low, high))
        for _ in range(cfg.sum_ranges):
            low, high = self._range_bounds(rng)
            session.execute("SELECT SUM(k) FROM sbtest WHERE id BETWEEN ? AND ?", (low, high))
        for _ in range(cfg.order_ranges):
            low, high = self._range_bounds(rng)
            session.execute(
                "SELECT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c", (low, high)
            )
        for _ in range(cfg.distinct_ranges):
            low, high = self._range_bounds(rng)
            session.execute(
                "SELECT DISTINCT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c", (low, high)
            )

    def _read_only(self, session: Session, rng: random.Random, transactional: bool) -> None:
        if transactional:
            session.begin()
        try:
            self._reads(session, rng)
        finally:
            if transactional:
                session.commit()

    # -- writes --------------------------------------------------------------

    def _writes(self, session: Session, rng: random.Random) -> None:
        cfg = self.config
        for _ in range(cfg.index_updates):
            session.execute("UPDATE sbtest SET k = k + 1 WHERE id = ?", (self._rand_id(rng),))
        for _ in range(cfg.non_index_updates):
            c = _random_text(rng, cfg.c_length)
            session.execute("UPDATE sbtest SET c = ? WHERE id = ?", (c, self._rand_id(rng)))
        for _ in range(cfg.delete_inserts):
            row_id = self._rand_id(rng)
            session.execute("DELETE FROM sbtest WHERE id = ?", (row_id,))
            k = rng.randint(1, cfg.table_size)
            c = _random_text(rng, cfg.c_length)
            pad = _random_text(rng, cfg.pad_length)
            session.execute(
                "INSERT INTO sbtest (id, k, c, pad) VALUES (?, ?, ?, ?)", (row_id, k, c, pad)
            )

    def _write_only(self, session: Session, rng: random.Random) -> None:
        session.begin()
        try:
            self._writes(session, rng)
        except Exception:
            session.rollback()
            raise
        else:
            session.commit()

    def _read_write(self, session: Session, rng: random.Random) -> None:
        session.begin()
        try:
            self._reads(session, rng)
            self._writes(session, rng)
        except Exception:
            session.rollback()
            raise
        else:
            session.commit()
