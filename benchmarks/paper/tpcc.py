"""TPC-C workload generator (laptop scale).

Re-implements the TPC-C benchmark the paper uses (the "native TPCC",
BenchmarkSQL-style ``bmsql_*`` schema): the nine warehouse-centric tables
and the five transaction profiles with the standard mix — New-Order 45%,
Payment 43%, Order-Status 4%, Delivery 4%, Stock-Level 4%.

Scale is configurable; the defaults are laptop-sized (the paper uses 200
warehouses with ~600k rows each on a 12-server cluster). All tables are
sharded by warehouse id in the paper's layout; ``bmsql_item`` carries no
warehouse id and is treated as a broadcast (replicated) table.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from .base import Session, SystemUnderTest

#: the paper's sharding layout for TPC-C: (logic table, sharding column[, tables/source])
TPCC_SHARDED_TABLES = [
    ("bmsql_warehouse", "w_id", 1),
    ("bmsql_district", "d_w_id", 1),
    ("bmsql_customer", "c_w_id", 1),
    ("bmsql_history", "h_w_id", 1),
    ("bmsql_stock", "s_w_id", 1),
    ("bmsql_oorder", "o_w_id", 1),
    ("bmsql_new_order", "no_w_id", 1),
    ("bmsql_order_line", "ol_w_id", 10),  # biggest table: 10 tables per source
]

TPCC_BROADCAST_TABLES = ["bmsql_item"]

#: standard transaction mix
TRANSACTION_MIX = [
    ("new_order", 45),
    ("payment", 43),
    ("order_status", 4),
    ("delivery", 4),
    ("stock_level", 4),
]

_DDL = [
    "CREATE TABLE bmsql_warehouse (w_id INT NOT NULL, w_name VARCHAR(10), "
    "w_ytd FLOAT DEFAULT 0, PRIMARY KEY (w_id))",
    "CREATE TABLE bmsql_district (d_w_id INT NOT NULL, d_id INT NOT NULL, "
    "d_name VARCHAR(10), d_ytd FLOAT DEFAULT 0, d_next_o_id INT DEFAULT 1, "
    "PRIMARY KEY (d_w_id, d_id))",
    "CREATE TABLE bmsql_customer (c_w_id INT NOT NULL, c_d_id INT NOT NULL, "
    "c_id INT NOT NULL, c_name VARCHAR(16), c_balance FLOAT DEFAULT 0, "
    "c_ytd_payment FLOAT DEFAULT 0, c_payment_cnt INT DEFAULT 0, "
    "PRIMARY KEY (c_w_id, c_d_id, c_id))",
    "CREATE TABLE bmsql_history (h_w_id INT, h_d_id INT, h_c_id INT, "
    "h_amount FLOAT, h_data VARCHAR(24))",
    "CREATE TABLE bmsql_item (i_id INT NOT NULL, i_name VARCHAR(24), "
    "i_price FLOAT, PRIMARY KEY (i_id))",
    "CREATE TABLE bmsql_stock (s_w_id INT NOT NULL, s_i_id INT NOT NULL, "
    "s_quantity INT DEFAULT 0, s_ytd FLOAT DEFAULT 0, s_order_cnt INT DEFAULT 0, "
    "PRIMARY KEY (s_w_id, s_i_id))",
    "CREATE TABLE bmsql_oorder (o_w_id INT NOT NULL, o_d_id INT NOT NULL, "
    "o_id INT NOT NULL, o_c_id INT, o_carrier_id INT, o_ol_cnt INT, "
    "o_entry_d VARCHAR(20), PRIMARY KEY (o_w_id, o_d_id, o_id))",
    "CREATE TABLE bmsql_new_order (no_w_id INT NOT NULL, no_d_id INT NOT NULL, "
    "no_o_id INT NOT NULL, PRIMARY KEY (no_w_id, no_d_id, no_o_id))",
    "CREATE TABLE bmsql_order_line (ol_w_id INT NOT NULL, ol_d_id INT NOT NULL, "
    "ol_o_id INT NOT NULL, ol_number INT NOT NULL, ol_i_id INT, ol_quantity INT, "
    "ol_amount FLOAT, ol_delivery_d VARCHAR(20), "
    "PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number))",
]


@dataclass
class TPCCConfig:
    """Scale knobs (real TPC-C values in comments)."""

    warehouses: int = 2            # paper: 200
    districts: int = 4             # spec: 10
    customers_per_district: int = 20   # spec: 3000
    items: int = 100               # spec: 100_000
    initial_orders_per_district: int = 20  # spec: 3000
    max_lines_per_order: int = 10  # spec: 5-15
    min_lines_per_order: int = 5
    seed: int = 7
    load_batch: int = 200
    #: ship independent statement runs through the session's fused
    #: pipeline (one storage round trip, write-I/O coalesced per table);
    #: False forces the serial statement-at-a-time path on every session
    use_pipeline: bool = True


def _name(rng: random.Random, length: int) -> str:
    return "".join(rng.choices(string.ascii_uppercase, k=length))


class TPCCWorkload:
    """Prepares the TPC-C data set and runs the five transactions."""

    def __init__(self, config: TPCCConfig | None = None):
        self.config = config or TPCCConfig()
        names = [name for name, _ in TRANSACTION_MIX]
        weights = [weight for _, weight in TRANSACTION_MIX]
        self._mix_names = names
        self._mix_weights = weights

    # ------------------------------------------------------------------
    # Prepare phase
    # ------------------------------------------------------------------

    def prepare(self, system: SystemUnderTest) -> None:
        cfg = self.config
        rng = random.Random(cfg.seed)
        session = system.session()
        try:
            for ddl in _DDL:
                session.execute(ddl)
            self._load_items(session, rng)
            for w_id in range(1, cfg.warehouses + 1):
                self._load_warehouse(session, rng, w_id)
        finally:
            session.close()

    def _load_items(self, session: Session, rng: random.Random) -> None:
        cfg = self.config
        rows = [
            f"({i}, '{_name(rng, 12)}', {round(rng.uniform(1, 100), 2)})"
            for i in range(1, cfg.items + 1)
        ]
        for start in range(0, len(rows), cfg.load_batch):
            chunk = rows[start : start + cfg.load_batch]
            session.execute(
                "INSERT INTO bmsql_item (i_id, i_name, i_price) VALUES " + ", ".join(chunk)
            )

    def _load_warehouse(self, session: Session, rng: random.Random, w_id: int) -> None:
        cfg = self.config
        session.execute(
            f"INSERT INTO bmsql_warehouse (w_id, w_name) VALUES ({w_id}, '{_name(rng, 6)}')"
        )
        stock_rows = [
            f"({w_id}, {i_id}, {rng.randint(10, 100)})" for i_id in range(1, cfg.items + 1)
        ]
        for start in range(0, len(stock_rows), cfg.load_batch):
            chunk = stock_rows[start : start + cfg.load_batch]
            session.execute(
                "INSERT INTO bmsql_stock (s_w_id, s_i_id, s_quantity) VALUES " + ", ".join(chunk)
            )
        for d_id in range(1, cfg.districts + 1):
            session.execute(
                "INSERT INTO bmsql_district (d_w_id, d_id, d_name, d_next_o_id) "
                f"VALUES ({w_id}, {d_id}, '{_name(rng, 6)}', "
                f"{cfg.initial_orders_per_district + 1})"
            )
            customers = [
                f"({w_id}, {d_id}, {c_id}, '{_name(rng, 10)}', {round(rng.uniform(-10, 10), 2)})"
                for c_id in range(1, cfg.customers_per_district + 1)
            ]
            session.execute(
                "INSERT INTO bmsql_customer (c_w_id, c_d_id, c_id, c_name, c_balance) "
                "VALUES " + ", ".join(customers)
            )
            self._load_orders(session, rng, w_id, d_id)

    def _load_orders(self, session: Session, rng: random.Random, w_id: int, d_id: int) -> None:
        cfg = self.config
        order_rows = []
        line_rows = []
        new_order_rows = []
        for o_id in range(1, cfg.initial_orders_per_district + 1):
            c_id = rng.randint(1, cfg.customers_per_district)
            ol_cnt = rng.randint(cfg.min_lines_per_order, cfg.max_lines_per_order)
            carrier = rng.randint(1, 10) if o_id <= cfg.initial_orders_per_district * 0.7 else "NULL"
            order_rows.append(
                f"({w_id}, {d_id}, {o_id}, {c_id}, {carrier}, {ol_cnt}, '2021-11-10')"
            )
            if carrier == "NULL":
                new_order_rows.append(f"({w_id}, {d_id}, {o_id})")
            for number in range(1, ol_cnt + 1):
                i_id = rng.randint(1, cfg.items)
                amount = round(rng.uniform(1, 200), 2)
                line_rows.append(
                    f"({w_id}, {d_id}, {o_id}, {number}, {i_id}, "
                    f"{rng.randint(1, 10)}, {amount}, '2021-11-10')"
                )
        session.execute(
            "INSERT INTO bmsql_oorder (o_w_id, o_d_id, o_id, o_c_id, o_carrier_id, "
            "o_ol_cnt, o_entry_d) VALUES " + ", ".join(order_rows)
        )
        if new_order_rows:
            session.execute(
                "INSERT INTO bmsql_new_order (no_w_id, no_d_id, no_o_id) VALUES "
                + ", ".join(new_order_rows)
            )
        for start in range(0, len(line_rows), cfg.load_batch):
            chunk = line_rows[start : start + cfg.load_batch]
            session.execute(
                "INSERT INTO bmsql_order_line (ol_w_id, ol_d_id, ol_o_id, ol_number, "
                "ol_i_id, ol_quantity, ol_amount, ol_delivery_d) VALUES " + ", ".join(chunk)
            )

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def pick_transaction(self, rng: random.Random) -> str:
        return rng.choices(self._mix_names, weights=self._mix_weights, k=1)[0]

    def _run_batch(self, session: Session, statements):
        """Run a batch of independent statements, pipelined when possible.

        Sessions exposing ``execute_pipeline`` get the fused path (one
        connection checkout + one storage round trip per same-shard run);
        anything else — or ``use_pipeline=False`` — runs the statements
        serially. Results are identical either way: one rows-list per
        query, one rowcount per write, in statement order.
        """
        runner = getattr(session, "execute_pipeline", None)
        if self.config.use_pipeline and runner is not None:
            return runner(statements)
        return [session.execute(sql, params) for sql, params in statements]

    def run_transaction(self, name: str, session: Session, rng: random.Random) -> None:
        handler = getattr(self, f"txn_{name}", None)
        if handler is None:
            raise ValueError(f"unknown TPC-C transaction {name!r}")
        handler(session, rng)

    # -- New-Order (45%) ----------------------------------------------------

    def txn_new_order(self, session: Session, rng: random.Random) -> None:
        """New-Order with bounded retry: two concurrent orders in the same
        district race on d_next_o_id (we have no SELECT ... FOR UPDATE row
        locks), so a duplicate order id aborts and retries — the standard
        TPC-C driver behaviour for serialization failures."""
        for attempt in range(5):
            try:
                self._new_order_once(session, rng)
                return
            except Exception:
                if attempt == 4:
                    raise

    def _new_order_once(self, session: Session, rng: random.Random) -> None:
        """One New-Order attempt: claim phase -> read phase -> write phase.

        The claim phase pairs the d_next_o_id read with its increment in
        one autocommit batch (both route to the district's shard, so a
        pipelining session ships them as a single round trip) *before*
        the transaction opens: without SELECT ... FOR UPDATE row locks a
        rollback restores the district row's before-image, so claiming
        inside the transaction lets an aborted order rewind a concurrent
        committed increment and wedge the district on a used order id.
        Claiming outside means an aborted order burns its id (a gap,
        which Delivery's MIN(no_o_id) scan tolerates) and the race
        window shrinks to the two adjacent claim statements. The order
        lines are independent of each other, so the per-line price/stock
        lookups form one read batch and the per-line stock/order-line
        writes join the order inserts in one write batch — the whole
        transaction is three round trips instead of 3 + 4·lines statement
        trips, with every write's I/O coalesced per table. A duplicate
        order id still aborts on the oorder insert, unchanged.
        """
        cfg = self.config
        w_id = rng.randint(1, cfg.warehouses)
        d_id = rng.randint(1, cfg.districts)
        c_id = rng.randint(1, cfg.customers_per_district)
        ol_cnt = rng.randint(cfg.min_lines_per_order, cfg.max_lines_per_order)
        lines = [
            (rng.randint(1, cfg.items), rng.randint(1, 10)) for _ in range(ol_cnt)
        ]
        claim = self._run_batch(session, [
            (
                "SELECT d_next_o_id FROM bmsql_district WHERE d_w_id = ? AND d_id = ?",
                (w_id, d_id),
            ),
            (
                "UPDATE bmsql_district SET d_next_o_id = d_next_o_id + 1 "
                "WHERE d_w_id = ? AND d_id = ?",
                (w_id, d_id),
            ),
        ])
        o_id = claim[0][0][0]
        session.begin()
        try:
            reads = []
            for i_id, _quantity in lines:
                reads.append(
                    ("SELECT i_price FROM bmsql_item WHERE i_id = ?", (i_id,))
                )
                reads.append((
                    "SELECT s_quantity FROM bmsql_stock WHERE s_w_id = ? AND s_i_id = ?",
                    (w_id, i_id),
                ))
            rows = self._run_batch(session, reads)
            writes = [
                (
                    "INSERT INTO bmsql_oorder (o_w_id, o_d_id, o_id, o_c_id, o_ol_cnt, "
                    "o_entry_d) VALUES (?, ?, ?, ?, ?, ?)",
                    (w_id, d_id, o_id, c_id, ol_cnt, "2021-11-11"),
                ),
                (
                    "INSERT INTO bmsql_new_order (no_w_id, no_d_id, no_o_id) VALUES (?, ?, ?)",
                    (w_id, d_id, o_id),
                ),
            ]
            for number, (i_id, quantity) in enumerate(lines, start=1):
                price = rows[2 * number - 2][0][0]
                s_quantity = rows[2 * number - 1][0][0]
                new_quantity = (
                    s_quantity - quantity
                    if s_quantity > quantity + 10
                    else s_quantity - quantity + 91
                )
                writes.append((
                    "UPDATE bmsql_stock SET s_quantity = ?, s_ytd = s_ytd + ?, "
                    "s_order_cnt = s_order_cnt + 1 WHERE s_w_id = ? AND s_i_id = ?",
                    (new_quantity, quantity, w_id, i_id),
                ))
                writes.append((
                    "INSERT INTO bmsql_order_line (ol_w_id, ol_d_id, ol_o_id, ol_number, "
                    "ol_i_id, ol_quantity, ol_amount) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (w_id, d_id, o_id, number, i_id, quantity, round(price * quantity, 2)),
                ))
            self._run_batch(session, writes)
        except Exception:
            session.rollback()
            raise
        else:
            session.commit()

    # -- Payment (43%) -------------------------------------------------------

    def txn_payment(self, session: Session, rng: random.Random) -> None:
        cfg = self.config
        w_id = rng.randint(1, cfg.warehouses)
        d_id = rng.randint(1, cfg.districts)
        c_id = rng.randint(1, cfg.customers_per_district)
        amount = round(rng.uniform(1, 5000), 2)
        session.begin()
        try:
            # all four writes shard by w_id -> one source: a pipelining
            # session ships them as one round trip (4 tables, 4 coalesced
            # write-I/O charges instead of 4 serial statement trips)
            self._run_batch(session, [
                (
                    "UPDATE bmsql_warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?",
                    (amount, w_id),
                ),
                (
                    "UPDATE bmsql_district SET d_ytd = d_ytd + ? WHERE d_w_id = ? AND d_id = ?",
                    (amount, w_id, d_id),
                ),
                (
                    "UPDATE bmsql_customer SET c_balance = c_balance - ?, "
                    "c_ytd_payment = c_ytd_payment + ?, c_payment_cnt = c_payment_cnt + 1 "
                    "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
                    (amount, amount, w_id, d_id, c_id),
                ),
                (
                    "INSERT INTO bmsql_history (h_w_id, h_d_id, h_c_id, h_amount, h_data) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (w_id, d_id, c_id, amount, "payment"),
                ),
            ])
        except Exception:
            session.rollback()
            raise
        else:
            session.commit()

    # -- Order-Status (4%, read-only) ------------------------------------------

    def txn_order_status(self, session: Session, rng: random.Random) -> None:
        cfg = self.config
        w_id = rng.randint(1, cfg.warehouses)
        d_id = rng.randint(1, cfg.districts)
        c_id = rng.randint(1, cfg.customers_per_district)
        session.execute(
            "SELECT c_name, c_balance FROM bmsql_customer "
            "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
            (w_id, d_id, c_id),
        )
        rows = session.execute(
            "SELECT MAX(o_id) FROM bmsql_oorder WHERE o_w_id = ? AND o_d_id = ? AND o_c_id = ?",
            (w_id, d_id, c_id),
        )
        o_id = rows[0][0]
        if o_id is not None:
            session.execute(
                "SELECT ol_i_id, ol_quantity, ol_amount, ol_delivery_d FROM bmsql_order_line "
                "WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
                (w_id, d_id, o_id),
            )

    # -- Delivery (4%) -------------------------------------------------------------

    def txn_delivery(self, session: Session, rng: random.Random) -> None:
        """Delivery in three phases: oldest-order lookups, order details,
        then every district's writes in one cross-district batch.

        The per-district work is independent (one order per district), so
        the serial statement interleaving can be regrouped: a pipelining
        session pays the write I/O once per *table* for the whole batch
        (new_order, oorder, order_line, customer) instead of once per
        district per table. The SUM(ol_amount) read moves ahead of the
        ol_delivery_d update — it does not read that column, so the total
        is unchanged.
        """
        cfg = self.config
        w_id = rng.randint(1, cfg.warehouses)
        carrier = rng.randint(1, 10)
        session.begin()
        try:
            mins = self._run_batch(session, [
                (
                    "SELECT MIN(no_o_id) FROM bmsql_new_order WHERE no_w_id = ? AND no_d_id = ?",
                    (w_id, d_id),
                )
                for d_id in range(1, cfg.districts + 1)
            ])
            targets = [
                (d_id, rows[0][0])
                for d_id, rows in enumerate(mins, start=1)
                if rows[0][0] is not None
            ]
            details = self._run_batch(session, [
                stmt
                for d_id, o_id in targets
                for stmt in (
                    (
                        "SELECT o_c_id FROM bmsql_oorder "
                        "WHERE o_w_id = ? AND o_d_id = ? AND o_id = ?",
                        (w_id, d_id, o_id),
                    ),
                    (
                        "SELECT SUM(ol_amount) FROM bmsql_order_line "
                        "WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
                        (w_id, d_id, o_id),
                    ),
                )
            ])
            writes = []
            for index, (d_id, o_id) in enumerate(targets):
                customer = details[2 * index]
                total = details[2 * index + 1][0][0] or 0
                writes.append((
                    "DELETE FROM bmsql_new_order "
                    "WHERE no_w_id = ? AND no_d_id = ? AND no_o_id = ?",
                    (w_id, d_id, o_id),
                ))
                writes.append((
                    "UPDATE bmsql_oorder SET o_carrier_id = ? "
                    "WHERE o_w_id = ? AND o_d_id = ? AND o_id = ?",
                    (carrier, w_id, d_id, o_id),
                ))
                writes.append((
                    "UPDATE bmsql_order_line SET ol_delivery_d = ? "
                    "WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
                    ("2021-11-12", w_id, d_id, o_id),
                ))
                if customer:
                    writes.append((
                        "UPDATE bmsql_customer SET c_balance = c_balance + ? "
                        "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
                        (total, w_id, d_id, customer[0][0]),
                    ))
            if writes:
                self._run_batch(session, writes)
        except Exception:
            session.rollback()
            raise
        else:
            session.commit()

    # -- Stock-Level (4%, read-only) ---------------------------------------------

    def txn_stock_level(self, session: Session, rng: random.Random) -> None:
        cfg = self.config
        w_id = rng.randint(1, cfg.warehouses)
        d_id = rng.randint(1, cfg.districts)
        threshold = rng.randint(10, 20)
        rows = session.execute(
            "SELECT d_next_o_id FROM bmsql_district WHERE d_w_id = ? AND d_id = ?",
            (w_id, d_id),
        )
        next_o_id = rows[0][0]
        lines = session.execute(
            "SELECT DISTINCT ol_i_id FROM bmsql_order_line "
            "WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id BETWEEN ? AND ?",
            (w_id, d_id, max(1, next_o_id - 20), next_o_id),
        )
        item_ids = sorted({row[0] for row in lines if row[0] is not None})
        if not item_ids:
            return
        placeholders = ", ".join("?" for _ in item_ids)
        session.execute(
            f"SELECT COUNT(*) FROM bmsql_stock WHERE s_w_id = ? AND s_i_id IN ({placeholders}) "
            "AND s_quantity < ?",
            (w_id, *item_ids, threshold),
        )
