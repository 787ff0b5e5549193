"""Configuration management on the coordination registry (Section V-A).

Stores and manages "the metadata of data sources, the sharding rules, the
configurations, and the running status of the ShardingSphere cluster".
Cluster members (JDBC adaptors, proxy instances) share one
:class:`ConfigCenter`; rule changes propagate through registry watches so
every member reconfigures without restarts.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from .. import clock
from ..exceptions import GovernanceError, NodeNotFoundError
from .registry import Registry, Session

RULES_PATH = "/rules"
DATASOURCES_PATH = "/metadata/datasources"
PROPS_PATH = "/props"
STATUS_PATH = "/status"
INSTANCES_PATH = "/status/instances"
METADATA_VERSION_PATH = "/status/metadata_version"


class ConfigCenter:
    """Typed facade over the registry for ShardingSphere configuration."""

    def __init__(self, registry: Registry | None = None):
        self.registry = registry if registry is not None else Registry()

    # -- data source metadata -----------------------------------------------

    def register_data_source(self, name: str, metadata: dict[str, Any]) -> None:
        self.registry.set(f"{DATASOURCES_PATH}/{name}", json.dumps(metadata))

    def data_source_metadata(self, name: str) -> dict[str, Any]:
        try:
            raw = self.registry.get(f"{DATASOURCES_PATH}/{name}")
        except NodeNotFoundError:
            raise GovernanceError(f"data source {name!r} is not registered") from None
        return json.loads(raw)

    def data_source_names(self) -> list[str]:
        try:
            return self.registry.children(DATASOURCES_PATH)
        except NodeNotFoundError:
            return []

    def remove_data_source(self, name: str) -> None:
        self.registry.delete(f"{DATASOURCES_PATH}/{name}")

    # -- rule configuration ---------------------------------------------------

    def store_rule(self, kind: str, name: str, config: dict[str, Any]) -> None:
        """Persist one rule config, e.g. kind='sharding', name='t_user'."""
        self.registry.set(f"{RULES_PATH}/{kind}/{name}", json.dumps(config))

    def load_rule(self, kind: str, name: str) -> dict[str, Any]:
        try:
            return json.loads(self.registry.get(f"{RULES_PATH}/{kind}/{name}"))
        except NodeNotFoundError:
            raise GovernanceError(f"no {kind} rule named {name!r}") from None

    def rule_names(self, kind: str) -> list[str]:
        try:
            return self.registry.children(f"{RULES_PATH}/{kind}")
        except NodeNotFoundError:
            return []

    def drop_rule(self, kind: str, name: str) -> None:
        try:
            self.registry.delete(f"{RULES_PATH}/{kind}/{name}")
        except NodeNotFoundError:
            raise GovernanceError(f"no {kind} rule named {name!r}") from None

    def watch_rules(self, kind: str, callback: Callable[[str, str, Any], None]) -> Callable[[], None]:
        return self.registry.watch_children(f"{RULES_PATH}/{kind}", callback)

    def watch_rule_data(self, kind: str, callback: Callable[[str, str, Any], None]) -> Callable[[], None]:
        """Watch data events on every rule node of ``kind`` (subtree watch).

        Unlike :meth:`watch_rules` (child add/remove only), this also fires
        when an *existing* rule node is overwritten — the ALTER case a
        cluster member must converge on.
        """
        return self.registry.watch_subtree(f"{RULES_PATH}/{kind}", callback)

    def watch_data_sources(self, callback: Callable[[str, str, Any], None]) -> Callable[[], None]:
        return self.registry.watch_subtree(DATASOURCES_PATH, callback)

    # -- properties --------------------------------------------------------------

    def set_prop(self, name: str, value: Any) -> None:
        self.registry.set(f"{PROPS_PATH}/{name}", value)

    def get_prop(self, name: str, default: Any = None) -> Any:
        try:
            return self.registry.get(f"{PROPS_PATH}/{name}")
        except NodeNotFoundError:
            return default

    def props(self) -> dict[str, Any]:
        return {
            path.rsplit("/", 1)[-1]: value
            for path, value in self.registry.dump(PROPS_PATH).items()
        }

    def watch_props(self, callback: Callable[[str, str, Any], None]) -> Callable[[], None]:
        return self.registry.watch_subtree(PROPS_PATH, callback)

    # -- metadata versions --------------------------------------------------------

    def publish_metadata_version(self, version: int, reason: str = "") -> None:
        """Record the latest metadata snapshot version a member produced.

        Written on every :class:`~repro.metadata.ContextManager` mutation so
        operators (SHOW METADATA, dashboards) can correlate a cluster's
        config generation; also a convenient wake-up node for coarse
        watchers."""
        self.registry.set(
            METADATA_VERSION_PATH, json.dumps({"version": version, "reason": reason})
        )

    def metadata_version(self) -> dict[str, Any] | None:
        """Latest published snapshot version (``{"version", "reason"}``) or None."""
        try:
            return json.loads(self.registry.get(METADATA_VERSION_PATH))
        except NodeNotFoundError:
            return None

    # -- cluster instances (ephemeral) ----------------------------------------------

    def register_instance(self, instance_id: str, metadata: dict[str, Any] | None = None) -> Session:
        """Register a running cluster member as an ephemeral node.

        The returned session keeps the registration alive; closing it (or
        crashing) removes the node, which watchers interpret as the
        instance going down.
        """
        session = self.registry.session()
        self.registry.create(
            f"{INSTANCES_PATH}/{instance_id}",
            json.dumps({"registered_at": clock.wall(), **(metadata or {})}),
            session=session,
        )
        return session

    def online_instances(self) -> list[str]:
        try:
            return self.registry.children(INSTANCES_PATH)
        except NodeNotFoundError:
            return []

    def watch_instances(self, callback: Callable[[str, str, Any], None]) -> Callable[[], None]:
        return self.registry.watch_children(INSTANCES_PATH, callback)

    # -- running status ----------------------------------------------------------------

    def set_status(self, component: str, status: str) -> None:
        self.registry.set(f"{STATUS_PATH}/components/{component}", status)

    def get_status(self, component: str) -> str | None:
        try:
            return self.registry.get(f"{STATUS_PATH}/components/{component}")
        except NodeNotFoundError:
            return None
