"""The four workloads: what each client sends, and how each reply is checked.

A client works in three steps so that only the program is timed:

``prepare()``   draw the next request from the seeded stream (untimed);
``issue(req)``  send it and fetch the whole reply (timed, traced);
``check(req, reply)``  compare with the generator's model (untimed).

The program sees only SQL text and parameters. In ``txn_rw``, the one
workload with two clients, client *i* of *n* writes only ids congruent to
*i* mod *n*, so its model of those rows is exact whatever the other client
does; rows the other may be rewriting at that moment get a weaker,
race-free check.
"""

from __future__ import annotations

import random

from repro.protocol import ProxyClient

import config
from dataset import Dataset, random_text
from system import System

POINT_SELECT = "SELECT c FROM sbtest WHERE id = ?"


class Client:
    """One closed-loop caller; subclasses fill in the three steps."""

    uses_proxy = False
    statements_per_op = 1

    def __init__(self, data: Dataset, seed: int, index: int, count: int):
        self.data = data
        self.index = index
        self.count = count
        self.rng = random.Random(f"{seed}/{type(self).__name__}/{index}")

    # -- lifecycle -------------------------------------------------------

    def connect(self, system: System) -> None:
        self.conn = system.data_source.get_connection()

    def disconnect(self) -> None:
        self.conn.close()
        self.conn = None  # or the closed session keeps the whole old system alive

    def recover(self) -> None:
        """After ``issue`` raised: leave the session usable."""

    def final_check(self) -> bool:
        return True


class PointHot(Client):
    """Prepared point select on the sharding key, uniform ids."""

    def connect(self, system):
        super().connect(system)
        self.statement = self.conn.prepare(POINT_SELECT)

    def disconnect(self):
        super().disconnect()
        self.statement = None

    def prepare(self):
        return self.rng.randint(1, self.data.rows)

    def issue(self, row_id):
        return self.statement.execute((row_id,)).fetchall()

    def check(self, row_id, rows):
        return rows == [(self.data.c[row_id],)]


class AdhocFanout(Client):
    """Literal SQL on the non-sharding column k: every text is new and
    every statement goes to all 16 data nodes.

    Values come from one seeded permutation per statement shape, walked
    cyclically: a text can only repeat after ~40,000 other statements,
    far beyond the parse cache (2,048) and both plan caches (512).
    """

    POINT_SPAN, ORDERED_SPAN, AGGREGATE_SPAN = 0, 19, 199

    def __init__(self, data, seed, index, count):
        super().__init__(data, seed, index, count)
        self.values = {
            span: self.rng.sample(range(1, data.rows - span + 1), data.rows - span)
            for span in (self.POINT_SPAN, self.ORDERED_SPAN, self.AGGREGATE_SPAN)
        }
        self.cursor = dict.fromkeys(self.values, 0)

    def _next_value(self, span: int) -> int:
        values = self.values[span]
        position = self.cursor[span]
        self.cursor[span] = (position + 1) % len(values)
        return values[position]

    def prepare(self):
        draw = self.rng.random()
        if draw < 0.5:
            low = self._next_value(self.POINT_SPAN)
            return "point", low, low, f"SELECT id, c FROM sbtest WHERE k = {low}"
        if draw < 0.75:
            low = self._next_value(self.ORDERED_SPAN)
            high = low + self.ORDERED_SPAN
            return "ordered", low, high, (
                f"SELECT id, k FROM sbtest WHERE k BETWEEN {low} AND {high} "
                "ORDER BY k, id LIMIT 10")
        low = self._next_value(self.AGGREGATE_SPAN)
        high = low + self.AGGREGATE_SPAN
        return "aggregate", low, high, (
            f"SELECT COUNT(*), SUM(k) FROM sbtest WHERE k BETWEEN {low} AND {high}")

    def issue(self, request):
        return self.conn.execute(request[3]).fetchall()

    def check(self, request, rows):
        kind, low, high, _sql = request
        data = self.data
        start, stop = data.k_range(low, high)
        matches = data.by_k[start:stop]  # (k, id), sorted
        if kind == "point":
            return sorted(rows) == sorted((i, data.c[i]) for _k, i in matches)
        if kind == "ordered":
            return rows == [(i, k) for k, i in matches[:10]]
        total = data.k_sum(start, stop) if matches else None
        return rows == [(len(matches), total)]


class TxnRw(Client):
    """The sysbench ``oltp_read_write`` transaction, LOCAL, one op each."""

    statements_per_op = config.TXN_POINT_SELECTS + 4 + 4

    RANGE = "SELECT c FROM sbtest WHERE id BETWEEN ? AND ?"
    RANGE_SUM = "SELECT SUM(k) FROM sbtest WHERE id BETWEEN ? AND ?"
    RANGE_ORDER = "SELECT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c"
    RANGE_DISTINCT = "SELECT DISTINCT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c"
    UPDATE_INDEX = "UPDATE sbtest SET k = k + 1 WHERE id = ?"
    UPDATE_NON_INDEX = "UPDATE sbtest SET c = ? WHERE id = ?"
    DELETE = "DELETE FROM sbtest WHERE id = ?"
    INSERT = "INSERT INTO sbtest (id, k, c, pad) VALUES (?, ?, ?, ?)"

    def __init__(self, data, seed, index, count):
        super().__init__(data, seed, index, count)
        self.last_index_update = self.last_text_update = None

    def owned_id(self) -> int:
        """A uniform id among those this client alone writes."""
        row_id = self.rng.randint(1, self.data.rows)
        row_id -= (row_id - self.index) % self.count
        return row_id if row_id >= 1 else row_id + self.count

    def owns(self, row_id: int) -> bool:
        return row_id % self.count == self.index

    def prepare(self):
        rng, rows = self.rng, self.data.rows
        span = config.TXN_RANGE_SIZE
        return {
            "points": [rng.randint(1, rows) for _ in range(config.TXN_POINT_SELECTS)],
            "ranges": [rng.randint(1, rows - span + 1) for _ in range(4)],
            "index_update": self.owned_id(),
            "text_update": (self.owned_id(), random_text(rng, config.C_LENGTH)),
            "replace": (self.owned_id(), rng.randint(1, rows),
                        random_text(rng, config.C_LENGTH),
                        random_text(rng, config.PAD_LENGTH)),
        }

    def issue(self, request):
        conn = self.conn
        span = config.TXN_RANGE_SIZE - 1
        conn.begin()
        points = [conn.execute(POINT_SELECT, (i,)).fetchall() for i in request["points"]]
        ranges = [
            conn.execute(sql, (low, low + span)).fetchall()
            for sql, low in zip(
                (self.RANGE, self.RANGE_SUM, self.RANGE_ORDER, self.RANGE_DISTINCT),
                request["ranges"])
        ]
        text_id, text = request["text_update"]
        replace = request["replace"]
        written = [
            conn.execute(self.UPDATE_INDEX, (request["index_update"],)).rowcount,
            conn.execute(self.UPDATE_NON_INDEX, (text, text_id)).rowcount,
            conn.execute(self.DELETE, (replace[0],)).rowcount,
            conn.execute(self.INSERT, replace).rowcount,
        ]
        conn.commit()
        return points, ranges, written

    def recover(self):
        self.conn.rollback()

    def check(self, request, reply):
        points, ranges, written = reply
        data, span = self.data, config.TXN_RANGE_SIZE
        # reads first: they ran before this transaction's own writes
        ok = written == [1, 1, 1, 1]
        for row_id, rows in zip(request["points"], points):
            if self.owns(row_id):
                ok &= rows == [(data.c[row_id],)]
            else:  # the other client may have it deleted or rewritten just now
                ok &= len(rows) <= 1 and all(len(c) == config.C_LENGTH for (c,) in rows)
        plain, total, ordered, distinct = ranges
        lows = request["ranges"]
        if self.count == 1:
            texts = [sorted(data.c[low:low + span]) for low in lows]
            ok &= sorted(plain) == [(c,) for c in texts[0]]
            ok &= total == [(sum(data.k[lows[1]:lows[1] + span]),)]
            ok &= ordered == [(c,) for c in texts[2]]
            ok &= distinct == [(c,) for c in sorted(set(texts[3]))]
        else:
            floor = span - (self.count - 1)  # one row per other client mid-replace
            ok &= floor <= len(plain) <= span
            ok &= len(total) == 1 and type(total[0][0]) is int and total[0][0] > 0
            ok &= floor <= len(ordered) <= span and ordered == sorted(ordered)
            ok &= 1 <= len(distinct) <= span and distinct == sorted(set(distinct))
        # then this transaction's writes enter the model
        data.k[request["index_update"]] += 1
        text_id, text = request["text_update"]
        data.c[text_id] = text
        row_id, k, c, pad = request["replace"]
        data.k[row_id], data.c[row_id], data.pad[row_id] = k, c, pad
        self.last_index_update, self.last_text_update = request["index_update"], text_id
        return bool(ok)

    def final_check(self):
        if self.last_index_update is None:
            return True
        data, conn = self.data, self.conn
        k_id, c_id = self.last_index_update, self.last_text_update
        return (
            conn.execute("SELECT k FROM sbtest WHERE id = ?", (k_id,)).fetchall()
            == [(data.k[k_id],)]
            and conn.execute(POINT_SELECT, (c_id,)).fetchall() == [(data.c[c_id],)]
            and conn.execute("SELECT COUNT(*) FROM sbtest").fetchall() == [(data.rows,)]
        )


class ProxyMixed(Client):
    """Point selects, shard-local literal ranges and autocommit updates
    over one TCP connection to the proxy."""

    uses_proxy = True
    UPDATE = "UPDATE sbtest SET k = k + 1 WHERE id = ?"

    def __init__(self, data, seed, index, count):
        super().__init__(data, seed, index, count)
        if count != 1:  # its checks take the generator's copy of k as exact
            raise ValueError("proxy_mixed runs one connection (see config.CLIENTS)")
        self.last_update = None

    def connect(self, system):
        self.conn = ProxyClient("127.0.0.1", system.server.port)

    def prepare(self):
        rng = self.rng
        draw = rng.random()
        if draw < 0.8:
            return "point", rng.randint(1, self.data.rows), None
        if draw < 0.9:
            block = self.data.rows // (config.NUM_SOURCES * config.TABLES_PER_SOURCE)
            node = rng.randrange(config.NUM_SOURCES * config.TABLES_PER_SOURCE)
            low = node * block + 1 + rng.randrange(block - config.PROXY_RANGE_SIZE + 1)
            high = low + config.PROXY_RANGE_SIZE - 1
            return "range", low, f"SELECT id, k FROM sbtest WHERE id BETWEEN {low} AND {high}"
        return "update", rng.randint(1, self.data.rows), None

    def issue(self, request):
        kind, row_id, sql = request
        if kind == "point":
            return self.conn.execute(POINT_SELECT, (row_id,)).fetchall()
        if kind == "range":
            return self.conn.execute(sql).fetchall()
        return self.conn.execute(self.UPDATE, (row_id,)).rowcount

    def check(self, request, reply):
        kind, row_id, _sql = request
        data = self.data
        if kind == "point":
            return reply == [(data.c[row_id],)]
        if kind == "update":
            data.k[row_id] += 1
            self.last_update = row_id
            return reply == 1
        rows = sorted(reply)
        ids = range(row_id, row_id + config.PROXY_RANGE_SIZE)
        if [r[0] for r in rows] != list(ids):
            return False
        return all(type(k) is int and k == data.k[i] for i, k in rows)

    def final_check(self):
        if self.last_update is None:
            return True
        rows = self.conn.execute("SELECT k FROM sbtest WHERE id = ?",
                                 (self.last_update,)).fetchall()
        return rows == [(self.data.k[self.last_update],)]


WORKLOADS = {
    "point_hot": PointHot,
    "adhoc_fanout": AdhocFanout,
    "txn_rw": TxnRw,
    "proxy_mixed": ProxyMixed,
}


def make_clients(name: str, data: Dataset, seed: int, count: int) -> list[Client]:
    return [WORKLOADS[name](data, seed, index, count) for index in range(count)]
