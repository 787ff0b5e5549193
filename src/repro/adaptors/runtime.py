"""ShardingRuntime: the shared state behind both adaptors.

One runtime bundles the fleet of data sources, the versioned metadata
contexts, the SQL engine, the transaction manager, the session variables
and the Governor's config center. ShardingSphere-JDBC embeds a runtime
in-process; ShardingSphere-Proxy hosts one behind a TCP server. Deploying
both against the same Governor is the paper's "share the same Governor"
deployment — and with :meth:`enable_cluster_mode` each member watches the
Governor's rule/prop nodes, so a DistSQL statement executed on one member
reconfigures every member without restarts.

All configuration mutations funnel through the runtime's
:class:`~repro.metadata.ContextManager`: each one produces the next
immutable snapshot, which the engine pins per statement. The runtime's
``data_sources``/``rule``/``variables`` attributes are therefore *views*
of the current snapshot (or the manager's live maps), not storage.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Callable, Mapping, Sequence

from ..engine import Feature, ResiliencePolicy, SQLEngine
from ..engine.context import build_context
from ..engine.rewriter import rewrite
from ..engine.router import route
from ..exceptions import DistSQLError, GovernanceError, ShardingConfigError
from ..features import ReadWriteGroup, ReadWriteSplittingFeature
from ..governor import ConfigCenter
from ..metadata import KNOWN_VARIABLES, ContextManager
from ..observability import Observability
from ..session import SessionRegistry, current_session
from ..sharding import ShardingRule, TableRule
from ..sql import parse
from ..sql.dialects import get_dialect
from ..storage import DataSource, LatencyModel
from ..transaction import TransactionManager, TransactionType

_instance_ids = itertools.count(1)


class ShardingRuntime:
    """Live configuration + engine of one ShardingSphere deployment."""

    def __init__(
        self,
        data_sources: Mapping[str, DataSource] | None = None,
        rule: ShardingRule | None = None,
        max_connections_per_query: int = 1,
        features: Sequence[Feature] = (),
        config_center: ConfigCenter | None = None,
        transaction_type: TransactionType = TransactionType.LOCAL,
        default_latency: LatencyModel | None = None,
        worker_threads: int = 32,
        resilience: ResiliencePolicy | None = None,
    ):
        self.default_latency = default_latency
        self.config_center = config_center if config_center is not None else ConfigCenter()
        #: tracer + metrics registry + slow-query log (the Agent analogue);
        #: the tracer stays disabled until SET VARIABLE tracing = on (or a
        #: one-shot TRACE), so the hot path only pays the stage histograms.
        self.observability = Observability()
        bootstrap_rule = rule if rule is not None else ShardingRule()
        bootstrap_sources = dict(data_sources or {})
        if bootstrap_rule.default_data_source is None and bootstrap_sources:
            bootstrap_rule.default_data_source = next(iter(bootstrap_sources))
        #: the single writer of versioned config snapshots
        self.metadata = ContextManager(
            bootstrap_sources,
            bootstrap_rule,
            features=list(features),
            variables={
                "transaction_type": transaction_type.value,
                "max_connections_per_query": max_connections_per_query,
                "tracing": "OFF",
                "slow_query_threshold_ms": self.observability.slow_log.threshold * 1000.0,
                "plan_cache": "ON",
                "workload_analytics": "ON",
                "result_cache": "OFF",
            },
            config_center=self.config_center,
        )
        self.engine = SQLEngine(
            max_connections_per_query=max_connections_per_query,
            worker_threads=worker_threads,
            resilience=resilience,
            metadata=self.metadata,
        )
        #: Governor health detector, once attached (health-aware routing)
        self.health_detector = None
        self.engine.attach_observability(self.observability)
        self.transaction_manager = TransactionManager(
            self.metadata.live_sources, transaction_type,
            submit=self.engine.executor.submit_helpers,
        )
        self._rwsplit_feature: ReadWriteSplittingFeature | None = None
        # cluster mode state (enable_cluster_mode)
        self._cluster_session = None
        self._cluster_unwatch: list[Callable[[], None]] = []
        self._seen_rules: dict[str, dict[str, str]] = {}
        #: live logical sessions (JDBC connections + proxy clients) for
        #: SHOW SESSIONS and the proxy's session metrics
        self.sessions = SessionRegistry()
        for name, source in self.metadata.live_sources.items():
            self.config_center.register_data_source(name, {"dialect": source.dialect.name})

    # -- snapshot views -----------------------------------------------------

    @property
    def data_sources(self) -> dict[str, DataSource]:
        """The live (manager-synced) data-source map, shared with the
        execution engine and the transaction manager."""
        return self.metadata.live_sources

    @property
    def rule(self) -> ShardingRule:
        """The current snapshot's rule (frozen once any mutation ran)."""
        return self.metadata.current().rule

    @property
    def variables(self) -> dict[str, Any]:
        return dict(self.metadata.current().variables)

    def close(self) -> None:
        self.disable_cluster_mode()
        self.engine.close()

    # ------------------------------------------------------------------
    # Resilience + health (Governor integration)
    # ------------------------------------------------------------------

    def enable_resilience(self, policy: ResiliencePolicy) -> None:
        """Turn on retries/deadlines/per-source breakers for this runtime."""
        self.engine.executor.enable_resilience(policy)

    def attach_health_detector(self, detector) -> None:
        """Wire a Governor :class:`HealthDetector` into execution/routing.

        The executor then skips DOWN sources for degradable broadcast reads
        and fails writes to DOWN sources fast; read-write splitting (when
        configured) also steers replica reads through :meth:`_source_is_up`.
        """
        self.health_detector = detector
        self.engine.executor.set_health_check(detector.is_up)
        detector.add_failover_listener(self._on_failover)

    def _on_failover(self, group_name: str, old_primary: str,
                     new_primary: str) -> None:
        """Re-point the read-write group after a Governor-driven promotion.

        Groups are keyed by the *original* primary's name — the name the
        router emits — so the promoted group must replace the entry under
        its existing key, not appear under a new one. The result cache is
        cleared wholesale: entries created before the promotion guard
        against the fenced primary's now-frozen data versions and would
        otherwise keep validating forever.
        """
        feature = self._rwsplit_feature
        if feature is None:
            return
        group = feature.groups.get(group_name) or next(
            (g for g in feature.groups.values() if g.primary == old_primary),
            None)
        if group is None:
            return
        replicas = [r for r in group.replicas if r != new_primary]
        source = self.data_sources.get(new_primary)
        feature.replace_group(ReadWriteGroup(
            name=group.name,
            primary=new_primary,
            replicas=replicas,
            load_balancer=group.load_balancer,
            replication=getattr(source, "replica_group", None)
            or group.replication,
        ))
        self.engine.result_cache.clear(f"failover of {old_primary}")
        self.metadata.touch(f"failover: {old_primary} -> {new_primary}")

    def _source_is_up(self, name: str) -> bool:
        """UP per the Governor AND admitted by the source's breaker."""
        if self.health_detector is not None and not self.health_detector.is_up(name):
            return False
        breakers = self.engine.executor.breakers
        if breakers is not None and not breakers.available(name):
            return False
        return True

    # ------------------------------------------------------------------
    # Resource management (DistSQL RDL)
    # ------------------------------------------------------------------

    def register_resource(self, name: str, props: dict[str, Any] | None = None) -> DataSource:
        props = dict(props or {})
        dialect = get_dialect(str(props.get("dialect", "MySQL")))
        source = DataSource(
            name,
            dialect=dialect,
            latency=self.default_latency,
            pool_size=int(props.get("pool_size", 64)),
        )
        self.add_resource(name, source)
        return source

    def add_resource(self, name: str, source: DataSource) -> None:
        """Register an already-built DataSource object."""
        self.metadata.add_data_source(name, source)
        with self._publishing():
            self.config_center.register_data_source(
                name, {"dialect": source.dialect.name}
            )
        self.observability.watch_pool(name, source.pool)
        self.observability.register_storage_plan_cache(name, source.database.plan_cache)

    def unregister_resource(self, name: str) -> None:
        removed = self.metadata.remove_data_source(name)
        if removed is not None:
            removed.pool.close()
            # drop the source's gauges and storage plan-cache collector so
            # SHOW METRICS / Prometheus stop reporting a ghost source
            self.observability.unwatch_pool(name, removed.pool)
            self.observability.unregister_storage_plan_cache(
                name, removed.database.plan_cache
            )
        with self._publishing():
            try:
                self.config_center.remove_data_source(name)
            except GovernanceError:
                pass  # never registered with the Governor; nothing to remove

    # ------------------------------------------------------------------
    # Variables (DistSQL RAL)
    # ------------------------------------------------------------------

    def set_variable(self, name: str, value: Any, persist: bool = True) -> None:
        name = name.lower()
        if name not in KNOWN_VARIABLES:
            raise DistSQLError(
                f"unknown variable {name!r}; known variables: "
                f"{', '.join(sorted(KNOWN_VARIABLES))}"
            )
        if name == "transaction_type":
            self.transaction_manager.set_type(str(value))
            stored: Any = str(value).upper()
        elif name == "max_connections_per_query":
            count = int(value)
            if count < 1:
                raise DistSQLError("max_connections_per_query must be >= 1")
            self.engine.executor.max_connections_per_query = count
            stored = count
        elif name == "tracing":
            enabled = str(value).strip().lower() in ("1", "true", "on", "yes")
            self.observability.tracer.enabled = enabled
            stored = "ON" if enabled else "OFF"
        elif name == "slow_query_threshold_ms":
            millis = float(value)
            if millis < 0:
                raise DistSQLError("slow_query_threshold_ms must be >= 0")
            self.observability.slow_log.threshold = millis / 1000.0
            stored = millis
        elif name == "workload_analytics":
            enabled = str(value).strip().lower() in ("1", "true", "on", "yes")
            self.observability.workload.enabled = enabled
            stored = "ON" if enabled else "OFF"
        elif name == "result_cache":
            enabled = str(value).strip().lower() in ("1", "true", "on", "yes")
            self.engine.result_cache.enabled = enabled
            if not enabled:
                self.engine.result_cache.clear("SET VARIABLE result_cache = off")
            stored = "ON" if enabled else "OFF"
        else:  # plan_cache
            enabled = str(value).strip().lower() in ("1", "true", "on", "yes")
            self.engine.plan_cache.enabled = enabled
            if not enabled:
                self.engine.plan_cache.invalidate("SET VARIABLE plan_cache = off")
            stored = "ON" if enabled else "OFF"
        self.metadata.set_variable(name, stored)
        if persist:
            with self._publishing():
                self.config_center.set_prop(name, stored)

    # ------------------------------------------------------------------
    # Rule mutation + persistence + preview (DistSQL)
    # ------------------------------------------------------------------

    def apply_table_rule(self, table_rule: TableRule) -> None:
        """Install/replace one sharding table rule (next snapshot)."""
        self.metadata.apply_table_rule(table_rule)

    def drop_table_rule(self, logic_table: str) -> None:
        self.metadata.drop_table_rule(logic_table)

    def add_binding_group(self, tables: Sequence[str]) -> None:
        self.metadata.add_binding_group(tables)

    def add_broadcast_table(self, table: str) -> None:
        self.metadata.add_broadcast_table(table)

    def persist_rule(self, kind: str, name: str, config: dict[str, Any]) -> None:
        with self._publishing():
            self.config_center.store_rule(kind, name, config)
        if self._cluster_session is not None:
            # Our own watcher skipped this write (self-event); record the
            # fingerprint anyway so a later peer-triggered reconcile doesn't
            # mistake our rule for a fresh one and re-apply it.
            self._seen_rules.setdefault(kind, {})[name] = self._fingerprint(
                self.config_center.load_rule(kind, name)
            )

    def unpersist_rule(self, kind: str, name: str) -> None:
        if self._cluster_session is not None:
            self._seen_rules.get(kind, {}).pop(name, None)
        with self._publishing():
            try:
                self.config_center.drop_rule(kind, name)
            except GovernanceError:
                pass  # rule was never persisted

    def preview(self, sql: str) -> list[tuple[str, str]]:
        """Route+rewrite without executing (DistSQL PREVIEW)."""
        snap = self.metadata.current()
        statement = parse(sql)
        context = build_context(statement, sql, (), snap.rule)
        route_result = route(context, snap.rule)
        rewritten = rewrite(context, route_result, snap.dialect_of)
        return [(u.data_source, u.sql) for u in rewritten.execution_units]

    def load_rules_from_governor(self) -> int:
        """Rebuild sharding state from the config center (restart recovery).

        A runtime created against an existing Governor — e.g. a proxy
        instance rejoining the cluster, or a restart after a crash —
        replays the persisted sharding, binding, broadcast and
        read-write-splitting rules plus *all* persisted props. Returns how
        many rules were applied.
        """
        applied = 0
        for kind in ("sharding", "binding", "broadcast", "readwrite_splitting"):
            for name in self.config_center.rule_names(kind):
                if self._apply_governor_rule(kind, name, self.config_center.load_rule(kind, name)):
                    applied += 1
        for variable in sorted(KNOWN_VARIABLES):
            value = self.config_center.get_prop(variable)
            if value is not None:
                self.set_variable(variable, value, persist=False)
        return applied

    def _apply_governor_rule(self, kind: str, name: str, config: dict[str, Any]) -> bool:
        """Apply one persisted rule config locally; True when it changed state."""
        from ..sharding import build_auto_table_rule

        if kind == "sharding":
            missing = [r for r in config["resources"] if r not in self.data_sources]
            for resource in missing:
                self.register_resource(resource)
            table_rule = build_auto_table_rule(
                name,
                config["resources"],
                sharding_column=config["sharding_column"],
                algorithm_type=config.get("type", "HASH_MOD"),
                properties=config.get("props", {}),
            )
            self.apply_table_rule(table_rule)
            return True
        if kind == "binding":
            try:
                self.add_binding_group(config["tables"])
                return True
            except ShardingConfigError:
                return False  # already bound or member rules missing
        if kind == "broadcast":
            self.add_broadcast_table(config["table"])
            return True
        if kind == "readwrite_splitting":
            return self.apply_rwsplit_rule(name, config["primary"], config["replicas"])
        return False

    def apply_rwsplit_rule(self, name: str, primary: str, replicas: list[str]) -> bool:
        group = ReadWriteGroup(
            name=primary, primary=primary, replicas=list(replicas),
            replication=getattr(
                self.data_sources.get(primary), "replica_group", None),
        )
        feature = self._rwsplit_feature
        if feature is None:
            self._rwsplit_feature = ReadWriteSplittingFeature(
                [group], is_up=self._source_is_up,
                breakers=self.engine.executor.breakers,
            )
            self.engine.add_feature(self._rwsplit_feature)
            return True
        existing = feature.groups.get(group.name)
        if existing is not None and (existing.primary, list(existing.replicas)) == (
            group.primary, group.replicas
        ):
            return False  # replayed config; no version churn
        feature.replace_group(group)
        # in-place feature reconfiguration: bump the version so watchers
        # (and SHOW METADATA) still observe the change
        self.metadata.touch(f"readwrite_splitting group {group.name}")
        return True

    # ------------------------------------------------------------------
    # Cluster mode: converge on peers' Governor writes (Section V-A)
    # ------------------------------------------------------------------

    def enable_cluster_mode(self, instance_id: str | None = None) -> str:
        """Register as a cluster member and watch the Governor for changes.

        After this, a rule created/dropped or a variable set on *any*
        runtime sharing this runtime's :class:`ConfigCenter` is applied
        here live — no restart, no polling. Returns the instance id.
        """
        if self._cluster_session is not None:
            raise GovernanceError("cluster mode is already enabled")
        if instance_id is None:
            instance_id = f"runtime-{next(_instance_ids)}"
        self.instance_id = instance_id
        self._cluster_session = self.config_center.register_instance(
            instance_id, {"kind": "runtime"}
        )
        for kind in ("sharding", "binding", "broadcast", "readwrite_splitting"):
            self._seen_rules[kind] = {
                name: self._fingerprint(self.config_center.load_rule(kind, name))
                for name in self.config_center.rule_names(kind)
            }
            self._cluster_unwatch.append(
                self.config_center.watch_rule_data(
                    kind, lambda e, p, v, kind=kind: self._on_rule_event(kind)
                )
            )
        self._cluster_unwatch.append(
            self.config_center.watch_props(self._on_prop_event)
        )
        return instance_id

    def disable_cluster_mode(self) -> None:
        for unwatch in self._cluster_unwatch:
            unwatch()
        self._cluster_unwatch.clear()
        self._seen_rules.clear()
        if self._cluster_session is not None:
            self._cluster_session.close()
            self._cluster_session = None

    def _publishing(self):
        """Mark the current session as writing to the Governor, so
        synchronously fired watch events don't loop back into this
        runtime. Session-scoped (keyed by this runtime object) rather
        than a thread-local: correct even when the write happens on a
        proxy worker executing some client session's DistSQL."""
        return current_session().guard((self, "publishing"))

    def _is_self_event(self) -> bool:
        return (
            self.metadata.in_mutation
            or current_session().guard_depth((self, "publishing")) > 0
        )

    @staticmethod
    def _fingerprint(config: dict[str, Any]) -> str:
        return json.dumps(config, sort_keys=True, default=str)

    def _on_rule_event(self, kind: str) -> None:
        """Reconcile one rule kind against the Governor (watch callback).

        Registry watches fire synchronously on the *writer's* thread: when
        the writer is this runtime itself (flagged by ``in_mutation`` or a
        ``_publishing`` guard), the change is already applied locally and
        replaying it would deadlock-or-echo — skip. Reconciliation is
        idempotent (fingerprint comparison), so the subtree watch firing
        once per touched node is harmless.
        """
        if self._is_self_event():
            return
        seen = self._seen_rules.setdefault(kind, {})
        fresh: dict[str, str] = {}
        for name in self.config_center.rule_names(kind):
            try:
                fresh[name] = self._fingerprint(self.config_center.load_rule(kind, name))
            except GovernanceError:
                continue  # deleted between listing and load
        for name in [n for n in seen if n not in fresh]:
            del seen[name]
            if kind == "sharding":
                try:
                    self.drop_table_rule(name)
                except ShardingConfigError:
                    pass  # never applied locally
        for name, fingerprint in fresh.items():
            if seen.get(name) == fingerprint:
                continue
            try:
                self._apply_governor_rule(kind, name, self.config_center.load_rule(kind, name))
                seen[name] = fingerprint
            except (GovernanceError, ShardingConfigError):
                pass  # partial peer write; the next event retries

    def _on_prop_event(self, event: str, path: str, value: Any) -> None:
        if self._is_self_event() or event == "deleted":
            return
        name = path.rsplit("/", 1)[-1]
        if name not in KNOWN_VARIABLES:
            return
        try:
            self.set_variable(name, value, persist=False)
        except DistSQLError:
            pass  # malformed peer value; keep the local setting


