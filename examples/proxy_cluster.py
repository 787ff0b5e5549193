"""Proxy-mode deployment with Governor-backed high availability.

Section VII-A: ShardingSphere-Proxy is a standalone server speaking a
database wire protocol, so "any programming language" can use the sharded
fleet; Section V-B: the Governor health-checks proxies and databases and
fails over automatically. This example:

1. starts a real TCP proxy over a sharded fleet and talks to it through
   the wire-protocol client (as `mysql`/Navicat would);
2. registers proxy instances as ephemeral nodes in the Governor registry
   and watches one "crash";
3. shows primary failover driven by health detection.
"""

from repro.adaptors import ShardingProxyServer, ShardingRuntime
from repro.governor import ConfigCenter, HealthDetector, ReplicaGroup
from repro.governor.config import INSTANCES_PATH
from repro.protocol import ProxyClient
from repro.sharding import ShardingRule, build_auto_table_rule, create_physical_tables
from repro.storage import Column, DataSource, TableSchema, make_type


def main() -> None:
    # --- a sharded fleet plus one replica for failover --------------------
    sources = {name: DataSource(name) for name in ("ds0", "ds1", "ds0_replica")}
    schema = TableSchema(
        "t_session",
        [Column("sid", make_type("INT"), not_null=True), Column("user", make_type("VARCHAR", 32))],
        primary_key=["sid"],
    )
    rule_obj = build_auto_table_rule(
        "t_session", ["ds0", "ds1"], sharding_column="sid",
        properties={"sharding-count": 4},
    )
    create_physical_tables(rule_obj, schema, sources)

    config = ConfigCenter()
    runtime = ShardingRuntime(
        sources, ShardingRule([rule_obj], default_data_source="ds0"),
        config_center=config, max_connections_per_query=4,
    )

    # --- proxy instances register as ephemeral governor nodes --------------
    with ShardingProxyServer(runtime) as proxy:
        session_a = config.register_instance("proxy-1", {"port": proxy.port})
        session_b = config.register_instance("proxy-2", {"port": 13307})
        print("online proxy instances:", config.online_instances())

        events = []
        config.registry.watch_children(
            INSTANCES_PATH, lambda event, path, value: events.append(value))
        session_b.close()  # proxy-2 "crashes": its ephemeral node vanishes
        print("after crash:", config.online_instances(), "| watch saw:", events)

        # --- any client, any language: just the wire protocol ---------------
        with ProxyClient("127.0.0.1", proxy.port) as client:
            print("\nconnected to", client.server_info["server"])
            client.execute(
                "INSERT INTO t_session (sid, user) VALUES (1, 'ann'), (2, 'bo'), (3, 'che')"
            )
            rows = client.execute("SELECT sid, user FROM t_session ORDER BY sid").fetchall()
            print("rows via proxy:", rows)
            rules = client.execute("SHOW SHARDING TABLE RULES").fetchall()
            print("DistSQL via proxy:", rules)

        session_a.close()

    # --- health detection + automatic primary switch ----------------------
    group = ReplicaGroup("ds0", primary="ds0", replicas=["ds0_replica"])
    detector = HealthDetector(sources, config, groups=[group], interval=0.05)
    promoted = []
    detector.add_failover_listener(lambda g, old, new: promoted.append((old, new)))
    sources["ds0"].database.fail_next("statement", times=10)
    detector.check_once()
    print("\nhealth detection:", config.get_status("datasource/ds0"),
          "| failover:", promoted, "| new primary:", group.primary)

    runtime.close()


if __name__ == "__main__":
    main()
