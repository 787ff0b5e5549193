"""Read-write splitting feature.

Writes (and reads inside explicit transactions, ``SELECT ... FOR
UPDATE``, and reads while the session is pinned to primaries) go to the
primary; plain reads are load-balanced over replicas. The feature plugs
into the pipeline's ``on_units`` hook and simply redirects each execution
unit's target data source, so it composes freely with sharding: the
router picks the *logical* source (the primary's name), and this feature
fans reads out to that group's replicas.

When a group carries a storage :class:`~repro.storage.replication.ReplicaGroup`
(``group.replication``), routing becomes consistency- and lag-aware:

* **read-your-writes** — a session that wrote through the group carries a
  causal token (the commit LSN); replicas whose applied LSN does not
  cover the token are dropped from the candidate set, and if none
  qualifies the read falls back to the primary rather than return stale
  rows.
* **lag-aware balancing** — :class:`LeastLagLoadBalancer` prefers the
  most-caught-up replica; :class:`BoundedStalenessLoadBalancer` excludes
  replicas trailing by more than a staleness budget.

Replicas whose per-source circuit breaker is OPEN are excluded from the
candidate set before balancing (a tripped replica would only turn reads
into rejections until its cooldown).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..engine.context import StatementContext
from ..engine.pipeline import Feature
from ..engine.rewriter import ExecutionUnit
from ..exceptions import ShardingConfigError
from ..sql import ast
from ..storage.replication import primary_pinned, session_token


class LoadBalancer:
    """Picks a replica; SPI-style replaceable."""

    def choose(self, replicas: Sequence[str]) -> str:
        raise NotImplementedError

    def choose_with(self, replicas: Sequence[str],
                    group: "ReadWriteGroup") -> str | None:
        """Group-aware entry point the feature calls; lag-aware balancers
        override this (the group carries the replication state). ``None``
        means "no acceptable replica" and sends the read to the primary.
        """
        return self.choose(replicas)


class RoundRobinLoadBalancer(LoadBalancer):
    """Lock-free rotation: ``next()`` on a bare ``itertools.count`` is a
    single C call, atomic under the GIL, so the hot read path never takes
    a lock just to rotate an index."""

    def __init__(self) -> None:
        self._counter = itertools.count()

    def choose(self, replicas: Sequence[str]) -> str:
        return replicas[next(self._counter) % len(replicas)]


class RandomLoadBalancer(LoadBalancer):
    def __init__(self, seed: int | None = None):
        self._random = random.Random(seed)

    def choose(self, replicas: Sequence[str]) -> str:
        return self._random.choice(replicas)


class WeightedLoadBalancer(LoadBalancer):
    """Weights map replica name -> relative weight."""

    def __init__(self, weights: dict[str, float], seed: int | None = None):
        if not weights or any(w <= 0 for w in weights.values()):
            raise ShardingConfigError("weights must be positive")
        self.weights = dict(weights)
        self._random = random.Random(seed)

    def choose(self, replicas: Sequence[str]) -> str:
        candidates = [r for r in replicas if r in self.weights]
        if not candidates:
            return replicas[0]
        weights = [self.weights[r] for r in candidates]
        return self._random.choices(candidates, weights=weights, k=1)[0]


class LeastLagLoadBalancer(LoadBalancer):
    """Prefer the most-caught-up replica (fewest unapplied log records).

    Ties rotate round-robin so equally-current replicas still share load;
    groups without replication state degrade to plain round-robin.
    """

    def __init__(self) -> None:
        self._counter = itertools.count()

    def choose(self, replicas: Sequence[str]) -> str:
        return replicas[next(self._counter) % len(replicas)]

    def choose_with(self, replicas: Sequence[str],
                    group: "ReadWriteGroup") -> str | None:
        replication = group.replication
        if replication is None:
            return self.choose(replicas)
        best = min(replication.lag_records(r) for r in replicas)
        tied = [r for r in replicas if replication.lag_records(r) == best]
        return tied[next(self._counter) % len(tied)]


class BoundedStalenessLoadBalancer(LoadBalancer):
    """Only serve replicas within a staleness budget (seconds behind the
    primary's newest commit); ``None`` — primary fallback — when every
    replica is over budget."""

    def __init__(self, max_staleness: float, seed: int | None = None):
        if max_staleness < 0:
            raise ShardingConfigError("max_staleness must be >= 0")
        self.max_staleness = max_staleness
        self._random = random.Random(seed)

    def choose(self, replicas: Sequence[str]) -> str:
        return self._random.choice(replicas)

    def choose_with(self, replicas: Sequence[str],
                    group: "ReadWriteGroup") -> str | None:
        replication = group.replication
        if replication is None:
            return self.choose(replicas)
        fresh = [r for r in replicas
                 if replication.staleness(r) <= self.max_staleness]
        if not fresh:
            return None
        return self._random.choice(fresh)


@dataclass
class ReadWriteGroup:
    """One primary and its replicas, addressed by the primary's name."""

    name: str
    primary: str
    replicas: list[str] = field(default_factory=list)
    load_balancer: LoadBalancer = field(default_factory=RoundRobinLoadBalancer)
    #: the storage :class:`~repro.storage.replication.ReplicaGroup` backing
    #: this group, when the data sources are replication-wired (None keeps
    #: the original lag-oblivious behavior).
    replication: Any = None


class ReadWriteSplittingFeature(Feature):
    """Redirect read units to replicas, writes to the primary."""

    name = "readwrite_splitting"
    # Redirects fresh per-execution RouteUnits/ExecutionUnits only;
    # never touches the statement AST.
    plan_cache_safe = True

    def __init__(
        self,
        groups: Sequence[ReadWriteGroup],
        is_up: Callable[[str], bool] | None = None,
        in_transaction: Callable[[], bool] | None = None,
        breakers: Any = None,
    ):
        #: group looked up by the logical (primary) data source name
        self.groups = {g.name: g for g in groups}
        self.is_up = is_up or (lambda name: True)
        self.in_transaction = in_transaction or (lambda: False)
        #: optional BreakerRegistry: OPEN-breaker replicas are excluded
        #: from the candidate set before load balancing
        self.breakers = breakers
        self.reads_routed = 0
        self.writes_routed = 0
        #: reads sent to the primary because no replica covered the
        #: session's causal token (read-your-writes fallbacks)
        self.causal_fallbacks = 0

    def replace_group(self, group: ReadWriteGroup) -> None:
        """Swap in a reconfigured group (ALTER READWRITE_SPLITTING RULE,
        or a failover promoting a replica under the same group key).

        The feature object itself stays registered — callers bump the
        metadata version (``ContextManager.touch``) so watchers still see
        the reconfiguration."""
        self.groups[group.name] = group

    def _is_read(self, context: StatementContext) -> bool:
        statement = context.statement
        if not isinstance(statement, ast.SelectStatement):
            return False
        if statement.for_update:
            return False
        if self.in_transaction() or primary_pinned():
            return False
        return True

    def _pick_replica(self, group: ReadWriteGroup) -> str | None:
        candidates = [r for r in group.replicas if self.is_up(r)]
        if self.breakers is not None:
            candidates = [r for r in candidates if self.breakers.available(r)]
        if not candidates:
            return None
        replication = group.replication
        if replication is not None:
            token = session_token(replication.name)
            if token:
                covered = [r for r in candidates
                           if replication.covers(r, token)]
                if not covered:
                    self.causal_fallbacks += 1
                    return None
                candidates = covered
        return group.load_balancer.choose_with(candidates, group)

    def on_units(self, units: list[ExecutionUnit], context: StatementContext) -> None:
        read = self._is_read(context)
        for unit in units:
            group = self.groups.get(unit.data_source)
            if group is None:
                continue
            target = self._pick_replica(group) if read else None
            if target is not None:
                self.reads_routed += 1
            else:
                target = group.primary
                self.writes_routed += 1
            unit.data_source = target
            unit.unit.data_source = target

    # Note: no post-hoc causal stamping is needed for fan-out writes.
    # Every unit, and every participant's commit, is issued on the thread
    # that executes the statement, inside its SessionContext, so
    # ``publish()`` stamps the *right* session's token exactly.
