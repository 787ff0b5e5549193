"""E-commerce credit-payment scenario (the paper's JD Baitiao application).

Section VII-B: JD Baitiao sharded by *hash on user id* to avoid hot
access; nearly 10,000 data nodes; scaling "by simply adding more
machines". This example reproduces that shape at laptop scale:

1. orders sharded by HASH_MOD on ``user_id`` over 4 data sources,
   with SNOWFLAKE distributed key generation for order ids;
2. a shopping-festival burst of concurrent writers;
3. online scaling: the order table is resharded from 8 to 16 shards onto
   4 additional data sources with zero logical-SQL changes.
"""

import random
import threading

from repro.adaptors import ShardingDataSource, ShardingRuntime
from repro.sharding import ShardingRule, build_auto_table_rule, create_physical_tables
from repro.storage import Column, DataSource, TableSchema, make_type

USERS = 200
ORDERS_PER_WORKER = 50
WORKERS = 8

ORDER_SCHEMA = TableSchema(
    "t_baitiao_order",
    [
        Column("order_id", make_type("BIGINT"), not_null=True),
        Column("user_id", make_type("INT"), not_null=True),
        Column("amount", make_type("FLOAT")),
        Column("status", make_type("VARCHAR", 16), default="created"),
    ],
    primary_key=["order_id"],
)


def build_runtime() -> ShardingRuntime:
    sources = {f"ds{i}": DataSource(f"ds{i}") for i in range(8)}
    rule_obj = build_auto_table_rule(
        "t_baitiao_order",
        [f"ds{i}" for i in range(4)],  # first 4 machines initially
        sharding_column="user_id",
        algorithm_type="HASH_MOD",
        properties={"sharding-count": 8},
        key_generate_column="order_id",
    )
    create_physical_tables(rule_obj, ORDER_SCHEMA, sources)
    rule = ShardingRule([rule_obj], default_data_source="ds0")
    return ShardingRuntime(sources, rule, max_connections_per_query=8)


def shopping_festival(data_source: ShardingDataSource) -> int:
    """Concurrent order creation burst (hash on user id spreads the load)."""
    errors = []

    def worker(worker_id: int) -> None:
        rng = random.Random(worker_id)
        conn = data_source.get_connection()
        try:
            for _ in range(ORDERS_PER_WORKER):
                user_id = rng.randint(1, USERS)
                amount = round(rng.uniform(5, 500), 2)
                conn.execute(
                    "INSERT INTO t_baitiao_order (user_id, amount) VALUES (?, ?)",
                    (user_id, amount),
                )
        except Exception as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(WORKERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return WORKERS * ORDERS_PER_WORKER


def main() -> None:
    runtime = build_runtime()
    data_source = ShardingDataSource(runtime)
    conn = data_source.get_connection()

    created = shopping_festival(data_source)
    total = conn.execute("SELECT COUNT(*) FROM t_baitiao_order").fetchall()[0][0]
    print(f"festival burst: {created} orders created, {total} visible logically")

    print("\nper-shard distribution (hash on user_id avoids hot shards):")
    for name, source in sorted(runtime.data_sources.items()):
        for table in source.database.table_names():
            count = source.database.table(table).row_count
            print(f"  {name}.{table}: {count}")

    result = conn.execute(
        "SELECT user_id, COUNT(*) AS orders, SUM(amount) AS spent "
        "FROM t_baitiao_order GROUP BY user_id ORDER BY spent DESC LIMIT 3"
    )
    print("\ntop spenders (cross-shard group-by + pagination):")
    for row in result:
        print("  ", row)

    # ---- scale out: 8 -> 16 shards over all 8 machines -------------------
    resources = ", ".join(f"ds{i}" for i in range(8))
    ((_, migrated, source_nodes, target_nodes, consistent),) = conn.execute(
        f"MIGRATE TABLE t_baitiao_order (RESOURCES({resources}), SHARDING_COLUMN=user_id, "
        "TYPE=hash_mod, PROPERTIES('sharding-count'=16))"
    ).fetchall()
    print(
        f"\nscaled out: {source_nodes} -> {target_nodes} shards, "
        f"{migrated} rows migrated, consistent={consistent}"
    )

    total_after = conn.execute("SELECT COUNT(*) FROM t_baitiao_order").fetchall()[0][0]
    print(f"logical view unchanged after scaling: {total_after} orders")

    conn.close()
    data_source.close()


if __name__ == "__main__":
    main()
