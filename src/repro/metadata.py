"""Versioned metadata contexts: copy-on-write configuration snapshots.

The paper's Governor treats configuration as a first-class versioned
object: every cluster member holds *one* consistent view of the data
sources, sharding rules, features and props, and reconfigures by swapping
to the next version. This module is that model for the reproduction:

- :class:`MetadataContext` — an immutable snapshot (data-source map,
  frozen :class:`~repro.sharding.ShardingRule`, feature tuple, variables)
  carrying a monotonic ``version``. The engine pins one snapshot per
  statement, so the whole parse→route→rewrite→execute→merge lifetime sees
  a single configuration even while DistSQL mutates it concurrently.
- :class:`ContextManager` — the single writer. Every mutation (DistSQL
  RDL/RAL, feature add/remove, resource register/unregister) builds the
  next snapshot copy-on-write under one lock, atomically swaps it in
  (a plain attribute store: lock-free for readers under the GIL), bumps
  the version and notifies subscribers (cache invalidation, Governor
  publication).

Two counters ride on each snapshot:

- ``version`` increments on *every* mutation — the value traced on each
  statement's spans (``metadata_version``) and published to the Governor.
- ``plan_epoch`` increments only on mutations that change what compiled
  plans bake in (rule, data sources, features). Variables like
  ``tracing`` bump the version but never drop a plan cache.
"""

from __future__ import annotations

import threading
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

from .exceptions import ShardingConfigError
from .session import current_session
from .sharding import ShardingRule

if TYPE_CHECKING:
    from .governor import ConfigCenter
    from .sharding import TableRule
    from .storage import DataSource

#: the session variables the runtime understands (DistSQL ``SET VARIABLE``);
#: anything else is a typo and must fail loudly.
KNOWN_VARIABLES = frozenset(
    {
        "transaction_type",
        "max_connections_per_query",
        "tracing",
        "slow_query_threshold_ms",
        "plan_cache",
        "workload_analytics",
        "result_cache",
    }
)


def _hooks_route(feature: Any) -> bool:
    """Does ``feature`` override :meth:`Feature.on_route`?"""
    from .engine.pipeline import Feature  # the engine imports this module

    return getattr(type(feature), "on_route", None) is not Feature.on_route


class MetadataContext:
    """One immutable configuration snapshot.

    ``data_sources`` and ``variables`` are read-only mapping views over
    private copies; ``rule`` is frozen (mutators raise) except for the
    bootstrap snapshot, which keeps the caller's rule object writable for
    direct-embedding use (tests, examples building a rule up front).
    """

    __slots__ = (
        "version",
        "plan_epoch",
        "data_sources",
        "rule",
        "features",
        "variables",
        "plan_cache_safe",
        "route_hooks",
        "reason",
    )

    def __init__(
        self,
        version: int,
        plan_epoch: int,
        data_sources: Mapping[str, "DataSource"],
        rule: ShardingRule,
        features: tuple[Any, ...],
        variables: Mapping[str, Any],
        reason: str,
    ):
        self.version = version
        self.plan_epoch = plan_epoch
        self.data_sources: Mapping[str, "DataSource"] = MappingProxyType(dict(data_sources))
        self.rule = rule
        self.features = features
        self.variables: Mapping[str, Any] = MappingProxyType(dict(variables))
        #: True when every feature leaves statement ASTs untouched, so the
        #: engine may take the plan-cache hot path (precomputed once per
        #: snapshot instead of per statement).
        self.plan_cache_safe = all(
            getattr(f, "plan_cache_safe", False) for f in features
        )
        #: True when some feature overrides ``on_route``, which may redirect
        #: or drop route units: a plan hit then looks each unit's template
        #: up by its own route unit, not in the route → units memo
        self.route_hooks = any(_hooks_route(f) for f in features)
        #: what mutation produced this snapshot (diagnostics, SHOW METADATA)
        self.reason = reason

    def dialect_of(self, data_source: str):
        return self.data_sources[data_source].dialect

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetadataContext(v{self.version}, epoch={self.plan_epoch}, "
            f"sources={list(self.data_sources)}, "
            f"tables={self.rule.logic_tables()}, reason={self.reason!r})"
        )


class _Draft:
    """Copy-on-write workspace for building the next snapshot.

    Fields are copied from the base snapshot only on first write, so a
    variables-only mutation shares the previous rule object (and its
    route-memo identity) untouched.
    """

    __slots__ = ("base", "_rule", "_sources", "_features", "_variables")

    def __init__(self, base: MetadataContext):
        self.base = base
        self._rule: ShardingRule | None = None
        self._sources: dict[str, "DataSource"] | None = None
        self._features: list[Any] | None = None
        self._variables: dict[str, Any] | None = None

    # -- copy-on-write accessors ----------------------------------------

    @property
    def rule(self) -> ShardingRule:
        if self._rule is None:
            self._rule = self.base.rule.copy()
        return self._rule

    @property
    def data_sources(self) -> dict[str, "DataSource"]:
        if self._sources is None:
            self._sources = dict(self.base.data_sources)
        return self._sources

    @property
    def features(self) -> list[Any]:
        if self._features is None:
            self._features = list(self.base.features)
        return self._features

    @property
    def variables(self) -> dict[str, Any]:
        if self._variables is None:
            self._variables = dict(self.base.variables)
        return self._variables

    # -- read-only peeks (no copy) ---------------------------------------

    @property
    def current_rule(self) -> ShardingRule:
        return self._rule if self._rule is not None else self.base.rule

    @property
    def current_sources(self) -> Mapping[str, "DataSource"]:
        return self._sources if self._sources is not None else self.base.data_sources

    @property
    def plan_affecting(self) -> bool:
        """True when the mutation touched rule, sources or features."""
        return (
            self._rule is not None
            or self._sources is not None
            or self._features is not None
        )

    def build(self, version: int, reason: str) -> MetadataContext:
        rule = self._rule if self._rule is not None else self.base.rule
        if self._rule is not None:
            # Only manager-produced copies are frozen; the bootstrap rule
            # stays writable for direct-embedding callers.
            rule.freeze()
        return MetadataContext(
            version=version,
            plan_epoch=self.base.plan_epoch + (1 if self.plan_affecting else 0),
            data_sources=self.current_sources,
            rule=rule,
            features=tuple(self._features) if self._features is not None else self.base.features,
            variables=self._variables if self._variables is not None else self.base.variables,
            reason=reason,
        )


#: subscriber callback: (old snapshot, new snapshot)
MetadataListener = Callable[[MetadataContext, MetadataContext], None]


class ContextManager:
    """Single writer of versioned metadata contexts.

    Readers call :meth:`current` — one attribute load, no lock (CPython
    attribute stores are atomic, and snapshots are immutable). Writers
    funnel through :meth:`mutate`, which serializes on one re-entrant
    lock, builds the next snapshot copy-on-write, swaps it in and runs
    subscribers *before* releasing the lock, so a subscriber always sees
    the swap it was notified about as the latest state.

    ``live_sources`` is the one mutable data-source dict shared (by
    reference) with the execution engine and the transaction manager; it
    is kept in sync with the current snapshot under the write lock, with
    targeted add/del so long-lived readers of the dict never see it
    emptied mid-update.
    """

    def __init__(
        self,
        data_sources: Mapping[str, "DataSource"] | None = None,
        rule: ShardingRule | None = None,
        features: Sequence[Any] = (),
        variables: Mapping[str, Any] | None = None,
        config_center: "ConfigCenter | None" = None,
    ):
        self.live_sources: dict[str, "DataSource"] = (
            data_sources if isinstance(data_sources, dict) else dict(data_sources or {})
        )
        self._lock = threading.RLock()
        self._listeners: list[MetadataListener] = []
        self.config_center = config_center
        self._current = MetadataContext(
            version=0,
            plan_epoch=0,
            data_sources=self.live_sources,
            rule=rule if rule is not None else ShardingRule(),
            features=tuple(features),
            variables=variables or {},
            reason="bootstrap",
        )

    # -- reads -----------------------------------------------------------

    def current(self) -> MetadataContext:
        """The latest snapshot (lock-free)."""
        return self._current

    @property
    def version(self) -> int:
        return self._current.version

    @property
    def in_mutation(self) -> bool:
        """True while *this session* is inside :meth:`mutate`.

        The registry fires watch callbacks synchronously on the writer's
        thread, so cluster watchers use this to skip events caused by
        their own runtime's mutations. The guard lives on the session
        (keyed by this manager object), not a thread-local, so mutations
        triggered from proxy workers attribute to the right session and
        the flag survives explicit session handoff.
        """
        return current_session().guard_depth(self) > 0

    # -- subscription ------------------------------------------------------

    def subscribe(self, listener: MetadataListener) -> Callable[[], None]:
        """Register a swap listener; returns an unsubscribe function."""
        with self._lock:
            self._listeners.append(listener)

        def unsubscribe() -> None:
            with self._lock:
                if listener in self._listeners:
                    self._listeners.remove(listener)

        return unsubscribe

    # -- the single writer -------------------------------------------------

    def mutate(self, fn: Callable[[_Draft], Any], reason: str) -> Any:
        """Apply one mutation: draft → build → atomic swap → notify.

        Returns whatever ``fn`` returns. Raising inside ``fn`` leaves the
        current snapshot untouched (drafts are private until the swap).
        """
        with self._lock:
            session = current_session()
            session.enter_guard(self)
            try:
                base = self._current
                draft = _Draft(base)
                result = fn(draft)
                new = draft.build(base.version + 1, reason)
                self._sync_live_sources(new)
                self._current = new
                if self.config_center is not None:
                    self.config_center.publish_metadata_version(new.version, reason)
                for listener in list(self._listeners):
                    listener(base, new)
            finally:
                session.exit_guard(self)
        return result

    def _sync_live_sources(self, new: MetadataContext) -> None:
        live = self.live_sources
        fresh = new.data_sources
        for name in [n for n in live if n not in fresh]:
            del live[name]
        for name, source in fresh.items():
            if live.get(name) is not source:
                live[name] = source

    def touch(self, reason: str) -> None:
        """Bump the version with no config change (e.g. an in-place
        feature reconfiguration that watchers should still observe)."""
        self.mutate(lambda draft: None, reason)

    # -- convenience mutators (what DistSQL / the runtime call) -----------

    def add_data_source(self, name: str, source: "DataSource") -> None:
        def apply(draft: _Draft) -> None:
            draft.data_sources[name] = source
            if draft.current_rule.default_data_source is None:
                draft.rule.default_data_source = name

        self.mutate(apply, f"register resource {name}")

    def remove_data_source(self, name: str) -> "DataSource | None":
        def apply(draft: _Draft) -> "DataSource | None":
            removed = draft.data_sources.pop(name, None)
            if draft.current_rule.default_data_source == name:
                draft.rule.default_data_source = next(iter(draft.data_sources), None)
            return removed

        return self.mutate(apply, f"unregister resource {name}")

    def apply_table_rule(self, table_rule: "TableRule", reason: str | None = None) -> None:
        self.mutate(
            lambda draft: draft.rule.add_table_rule(table_rule),
            reason or f"sharding rule {table_rule.logic_table}",
        )

    def drop_table_rule(self, logic_table: str) -> None:
        def apply(draft: _Draft) -> None:
            if not draft.current_rule.is_sharded(logic_table):
                raise ShardingConfigError(f"no sharding rule for table {logic_table!r}")
            draft.rule.drop_table_rule(logic_table)

        self.mutate(apply, f"drop sharding rule {logic_table}")

    def add_binding_group(self, tables: Sequence[str]) -> None:
        self.mutate(
            lambda draft: draft.rule.add_binding_group(tables),
            f"binding group {'+'.join(sorted(t.lower() for t in tables))}",
        )

    def add_broadcast_table(self, table: str) -> None:
        if self._current.rule.is_broadcast(table):
            return  # idempotent: no version churn on replayed configs
        self.mutate(
            lambda draft: draft.rule.add_broadcast_table(table),
            f"broadcast table {table}",
        )

    def set_default_data_source(self, name: str | None) -> None:
        def apply(draft: _Draft) -> None:
            draft.rule.default_data_source = name

        self.mutate(apply, f"default data source {name}")

    def add_feature(self, feature: Any) -> None:
        self.mutate(
            lambda draft: draft.features.append(feature),
            f"feature added: {getattr(feature, 'name', type(feature).__name__)}",
        )

    def remove_feature(self, name: str) -> None:
        def apply(draft: _Draft) -> None:
            draft._features = [f for f in draft.features if f.name != name]

        self.mutate(apply, f"feature removed: {name}")

    def set_variable(self, name: str, value: Any) -> None:
        def apply(draft: _Draft) -> None:
            draft.variables[name] = value

        self.mutate(apply, f"set {name} = {value}")

    # -- iteration helpers -------------------------------------------------

    def __iter__(self) -> Iterator[MetadataContext]:  # pragma: no cover
        yield self._current


__all__ = ["MetadataContext", "ContextManager", "KNOWN_VARIABLES"]
