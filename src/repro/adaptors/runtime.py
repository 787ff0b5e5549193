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
import math
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from ..engine import Feature, ResiliencePolicy, SQLEngine
from ..engine.context import build_context
from ..engine.rewriter import rewrite
from ..engine.router import route
from ..exceptions import DistSQLError, GovernanceError, ShardingConfigError
from ..features import ReadWriteGroup, ReadWriteSplittingFeature
from ..governor import ConfigCenter
from ..metadata import ContextManager
from ..observability import Observability
from ..session import SessionRegistry, current_session
from ..sharding import DataNode, ShardingRule, TableRule, build_auto_table_rule
from ..sql import parse
from ..sql.dialects import get_dialect
from ..storage import DataSource, LatencyModel
from ..transaction import TransactionManager, TransactionType

_instance_ids = itertools.count(1)


# ---------------------------------------------------------------------------
# Runtime variables (DistSQL RAL ``SET VARIABLE``), declared once
# ---------------------------------------------------------------------------
#
# A parser turns outside input (DistSQL, plain SET, a Governor prop, a
# Python value) into the stored canonical value, or raises ValueError with
# what it accepts; ``set_variable`` names the variable in the DistSQLError.


def _switch(value: Any) -> str:
    word = str(value).strip().lower()
    if word in ("1", "true", "on", "yes"):
        return "ON"
    if word in ("0", "false", "off", "no"):
        return "OFF"
    raise ValueError("on/off/true/false/1/0/yes/no")


def _number(kind: type, low: int, accepts: str) -> Callable[[Any], Any]:
    """A parser of finite ``kind`` numbers of at least ``low``."""
    def parse(value: Any) -> Any:
        try:
            number = kind(str(value).strip())
        except ValueError:
            raise ValueError(accepts) from None
        if not low <= number < math.inf:
            raise ValueError(accepts)
        return number
    return parse


def _transaction_type(value: Any) -> str:
    try:
        return TransactionType[str(value).strip().upper()].value
    except KeyError:
        raise ValueError("LOCAL, XA or BASE") from None


def _apply_plan_cache(runtime: ShardingRuntime, value: str) -> None:
    runtime.engine.plan_cache.enabled = value == "ON"
    if value == "OFF":
        runtime.engine.plan_cache.invalidate("SET VARIABLE plan_cache = off")


def _apply_result_cache(runtime: ShardingRuntime, value: str) -> None:
    runtime.engine.result_cache.enabled = value == "ON"
    if value == "OFF":
        runtime.engine.result_cache.clear("SET VARIABLE result_cache = off")


class Variable(NamedTuple):
    #: outside input -> stored canonical value (ValueError: what it accepts)
    parse: Callable[[Any], Any]
    #: the value of a fresh runtime, matching its live objects' defaults
    default: Any
    #: push a stored value into the engine, observability or transactions
    apply: Callable[[ShardingRuntime, Any], None]


#: every runtime variable; ``set_variable``, the initial snapshot, Governor
#: replay and peer prop events all read this table
VARIABLES: dict[str, Variable] = {
    "transaction_type": Variable(
        _transaction_type, TransactionType.LOCAL.value,
        lambda rt, value: rt.transaction_manager.set_type(value)),
    "max_connections_per_query": Variable(
        _number(int, 1, "an integer >= 1"), 1,
        lambda rt, value: setattr(rt.engine.executor, "max_connections_per_query", value)),
    "tracing": Variable(
        _switch, "OFF",
        lambda rt, value: setattr(rt.observability.tracer, "enabled", value == "ON")),
    "slow_query_threshold_ms": Variable(
        _number(float, 0, "a number of milliseconds >= 0"), 100.0,
        lambda rt, value: setattr(rt.observability.slow_log, "threshold", value / 1000.0)),
    "plan_cache": Variable(_switch, "ON", _apply_plan_cache),
    "workload_analytics": Variable(
        _switch, "ON",
        lambda rt, value: setattr(rt.observability.workload, "enabled", value == "ON")),
    "result_cache": Variable(_switch, "OFF", _apply_result_cache),
}


def _unknown_variable(name: str) -> DistSQLError:
    return DistSQLError(
        f"unknown variable {name!r}; known variables: {', '.join(sorted(VARIABLES))}")


# ---------------------------------------------------------------------------
# Rules (DistSQL RDL, MIGRATE TABLE, failover), declared once
# ---------------------------------------------------------------------------
#
# A rule is its Governor config: ``apply_rule`` builds the runtime state
# from the config and persists that same config, so restart replay and a
# cluster peer build what the writer built.


def sharding_table_rule(name: str, config: Mapping[str, Any]) -> TableRule:
    """The AutoTable rule of a sharding config. ``tables``, when set, names
    the actual tables in shard order (MIGRATE TABLE's ``t_g2_0``, ...);
    otherwise shard i is ``{name}_i``."""
    rule = build_auto_table_rule(
        name, config["resources"], sharding_column=config["sharding_column"],
        algorithm_type=config["type"], properties=config["props"],
        key_generate_column=config["key_generate_column"],
        key_generator_type=config["key_generator"])
    if config["tables"] is None:
        return rule
    nodes = [DataNode(node.data_source, table)
             for node, table in zip(rule.data_nodes, config["tables"], strict=True)]
    return TableRule(name, nodes, table_strategy=rule.table_strategy,
                     key_generate=rule.key_generate, auto=True)


def binding_name(tables: Sequence[str]) -> str:
    """The name the Governor keeps a binding group's config under."""
    return "+".join(sorted(tables))


def resource_config(source: DataSource) -> dict[str, Any]:
    """What the Governor keeps of a resource: every property
    ``REGISTER RESOURCE`` takes, read back from the built source, so
    :meth:`ShardingRuntime.register_resource` rebuilds it alike."""
    return {"dialect": source.dialect.name, "pool_size": source.pool.max_size}


def _register_missing(runtime: ShardingRuntime, names: Sequence[str]) -> None:
    """Register a resource a replayed rule names as the Governor has it."""
    for name in names:
        if name not in runtime.data_sources:
            runtime.register_resource(name, runtime.config_center.data_source_metadata(name))


def _apply_sharding(runtime: ShardingRuntime, name: str, config: dict[str, Any]) -> None:
    table_rule = sharding_table_rule(name, config)
    _register_missing(runtime, config["resources"])
    runtime.metadata.apply_table_rule(table_rule)


def _apply_readwrite_splitting(runtime: ShardingRuntime, name: str,
                               config: dict[str, Any]) -> None:
    """Key the group by its routed source: the name the router emits,
    which a failover keeps while it changes the primary."""
    source, primary, replicas = config["source"], config["primary"], list(config["replicas"])
    _register_missing(runtime, [primary, *replicas])
    group = ReadWriteGroup(source, primary, replicas,
                           replication=runtime.data_sources[primary].replica_group)
    feature = runtime.rwsplit_feature
    if feature is None:
        runtime.rwsplit_feature = ReadWriteSplittingFeature(
            [group], is_up=runtime.engine.executor.source_up)
        runtime.engine.add_feature(runtime.rwsplit_feature)
        return
    old = feature.groups.get(source)
    if old is not None:
        if (old.primary, old.replicas) == (primary, replicas):
            return  # replayed config; no version churn
        group.load_balancer = old.load_balancer
        if old.primary != primary:
            # results cached before a promotion guard the fenced primary's
            # frozen data versions and would keep validating forever
            runtime.engine.result_cache.clear(f"failover of {old.primary}")
    feature.replace_group(group)
    # the feature is reconfigured in place: bump the version so watchers
    # (and SHOW METADATA) still observe the change
    runtime.metadata.touch(f"readwrite_splitting group {source}")


class RuleKind(NamedTuple):
    #: config key -> default; ``...`` marks a key the config must give
    keys: dict[str, Any]
    #: build the runtime state from a complete config and apply it
    apply: Callable[[ShardingRuntime, str, dict[str, Any]], None]
    #: undo an applied rule by name; None when nothing drops the kind
    drop: Callable[[ShardingRuntime, str], None] | None


#: every rule kind; ``apply_rule``/``drop_rule``, Governor replay and peer
#: rule events all read this table
RULES: dict[str, RuleKind] = {
    "sharding": RuleKind(
        {"resources": ..., "sharding_column": ..., "type": "HASH_MOD", "props": {},
         "key_generate_column": None, "key_generator": "SNOWFLAKE", "tables": None},
        _apply_sharding,
        lambda rt, name: rt.metadata.drop_table_rule(name)),
    "binding": RuleKind(
        {"tables": ...}, lambda rt, name, config: rt.metadata.add_binding_group(config["tables"]),
        None),
    "broadcast": RuleKind(
        {"table": ...}, lambda rt, name, config: rt.metadata.add_broadcast_table(config["table"]),
        None),
    "readwrite_splitting": RuleKind(
        {"source": ..., "primary": ..., "replicas": ...}, _apply_readwrite_splitting, None),
}


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
        worker_threads: int | None = None,  # ignored: no worker pool; benchmarks/perf passes it
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
                **{name: variable.default for name, variable in VARIABLES.items()},
                "transaction_type": transaction_type.value,
                "max_connections_per_query": max_connections_per_query,
            },
            config_center=self.config_center,
        )
        self.engine = SQLEngine(
            max_connections_per_query=max_connections_per_query,
            resilience=resilience,
            metadata=self.metadata,
        )
        #: Governor health detector, once attached (health-aware routing)
        self.health_detector = None
        self.engine.attach_observability(self.observability)
        self.transaction_manager = TransactionManager(
            self.metadata.live_sources, transaction_type)
        self.rwsplit_feature: ReadWriteSplittingFeature | None = None  # RULES readwrite_splitting
        # cluster mode state (enable_cluster_mode)
        self._cluster_session = None
        self._cluster_unwatch: list[Callable[[], None]] = []
        self._seen_rules: dict[str, dict[str, str]] = {}
        #: live logical sessions (JDBC connections + proxy clients) for
        #: SHOW SESSIONS and the proxy's session metrics
        self.sessions = SessionRegistry()
        for name, source in self.metadata.live_sources.items():
            self.config_center.register_data_source(name, resource_config(source))

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

    def variable(self, name: str) -> Any:
        """One variable's current value (``SHOW VARIABLE``); an unknown
        name raises as :meth:`set_variable` does."""
        name = name.lower()
        variables = self.metadata.current().variables
        if name not in variables:
            raise _unknown_variable(name)
        return variables[name]

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
        configured) also steers replica reads through the executor's
        :meth:`~repro.engine.executor.ExecutionEngine.source_up`. A
        promotion applies the group config the detector wrote to its
        Governor, as a restart or a peer would.
        """
        self.health_detector = detector
        self.engine.executor.set_health_check(detector.is_up)
        detector.add_failover_listener(lambda group, old, new: self.apply_rule(
            "readwrite_splitting", group,
            detector.config.load_rule("readwrite_splitting", group), persist=False))

    # ------------------------------------------------------------------
    # Resource management (DistSQL RDL)
    # ------------------------------------------------------------------

    def register_resource(self, name: str, props: dict[str, Any] | None = None) -> DataSource:
        """Build a resource from its properties (``REGISTER RESOURCE``, or
        the config the Governor keeps for it: :func:`resource_config`)."""
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
            self.config_center.register_data_source(name, resource_config(source))
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
        """Parse, apply, record and (unless replaying) persist one variable."""
        name = name.lower()
        variable = VARIABLES.get(name)
        if variable is None:
            raise _unknown_variable(name)
        try:
            stored = variable.parse(value)
        except ValueError as exc:
            raise DistSQLError(f"{name} accepts {exc}, not {value!r}") from None
        variable.apply(self, stored)
        self.metadata.set_variable(name, stored)
        if persist:
            with self._publishing():
                self.config_center.set_prop(name, stored)

    # ------------------------------------------------------------------
    # Rules (DistSQL RDL, MIGRATE TABLE, failover) + preview
    # ------------------------------------------------------------------

    def apply_rule(self, kind: str, name: str, config: Mapping[str, Any],
                   persist: bool = True) -> None:
        """Build one rule from its config, apply it (the next snapshot) and,
        unless replaying, persist exactly that config to the Governor."""
        spec = RULES[kind]
        required = {key for key, default in spec.keys.items() if default is ...}
        if required - set(config) or set(config) - set(spec.keys):
            raise ShardingConfigError(f"a {kind} rule takes the keys {list(spec.keys)}, "
                                      f"{sorted(required)} required; not {sorted(config)}")
        config = {key: config.get(key, default) for key, default in spec.keys.items()}
        spec.apply(self, name, config)
        if persist:
            with self._publishing():
                self.config_center.store_rule(kind, name, config)
            if self._cluster_session is not None:
                # Our own watcher skipped this write (self-event); record the
                # fingerprint anyway so a later peer-triggered reconcile doesn't
                # mistake our rule for a fresh one and re-apply it.
                self._seen_rules.setdefault(kind, {})[name] = self._fingerprint(config)

    def drop_rule(self, kind: str, name: str, persist: bool = True) -> None:
        """Undo an applied rule and, unless replaying, retract its config,
        so it neither resurrects on restart nor lingers on peers."""
        drop = RULES[kind].drop
        if drop is None:
            raise ShardingConfigError(f"{kind} rules cannot be dropped")
        drop(self, name)
        if persist:
            self._retract_config(kind, name)
            if kind == "sharding":
                self._retract_bindings(name)

    def _retract_config(self, kind: str, name: str) -> None:
        if self._cluster_session is not None:
            self._seen_rules.get(kind, {}).pop(name, None)
        with self._publishing():
            try:
                self.config_center.drop_rule(kind, name)
            except GovernanceError:
                pass  # rule was never persisted

    def _retract_bindings(self, table: str) -> None:
        """Rewrite every persisted binding config naming a dropped table as
        the live rule now has it: without the table, and gone below two
        tables (``ShardingRule.drop_table_rule``)."""
        dropped = table.lower()
        for name in self.config_center.rule_names("binding"):
            tables = self.config_center.load_rule("binding", name)["tables"]
            kept = [t for t in tables if t.lower() != dropped]
            if len(kept) == len(tables):
                continue
            self._retract_config("binding", name)
            if len(kept) > 1:
                self.apply_rule("binding", binding_name(kept), {"tables": kept})

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
        replays every persisted rule through :meth:`apply_rule` plus
        *all* persisted props. Returns how many rules were applied.
        """
        applied = 0
        for kind in RULES:
            for name in self.config_center.rule_names(kind):
                try:
                    self.apply_rule(kind, name, self.config_center.load_rule(kind, name),
                                    persist=False)
                except ShardingConfigError:
                    continue  # e.g. a binding whose tables were dropped since
                applied += 1
        for name in VARIABLES:
            value = self.config_center.get_prop(name)
            if value is not None:
                self.set_variable(name, value, persist=False)
        return applied

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
        for kind in RULES:
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
        fresh: dict[str, dict[str, Any]] = {}
        for name in self.config_center.rule_names(kind):
            try:
                fresh[name] = self.config_center.load_rule(kind, name)
            except GovernanceError:
                continue  # deleted between listing and load
        for name in [n for n in seen if n not in fresh]:
            del seen[name]
            try:
                self.drop_rule(kind, name, persist=False)
            except ShardingConfigError:
                pass  # never applied locally, or a kind nothing drops
        for name, config in fresh.items():
            fingerprint = self._fingerprint(config)
            if seen.get(name) == fingerprint:
                continue
            try:
                self.apply_rule(kind, name, config, persist=False)
                seen[name] = fingerprint
            except (GovernanceError, ShardingConfigError):
                pass  # partial peer write; the next event retries

    def _on_prop_event(self, event: str, path: str, value: Any) -> None:
        if self._is_self_event() or event == "deleted":
            return
        name = path.rsplit("/", 1)[-1]
        if name not in VARIABLES:
            return
        try:
            self.set_variable(name, value, persist=False)
        except DistSQLError:
            pass  # malformed peer value; keep the local setting


