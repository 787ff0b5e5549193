"""Result merger: combine per-shard result sets into one (Section VI-E).

Merger selection follows the paper:

- *iteration*: plain concatenation of shard cursors (stream);
- *order-by*: multi-way merge of per-shard sorted streams on a heap
  (stream) — each shard's ORDER BY guarantees local order;
- *group-by stream*: when the rewriter made ORDER BY cover GROUP BY, rows
  with equal group keys are adjacent in the merged stream, so groups are
  folded without buffering more than one group;
- *group-by memory*: otherwise a hash aggregation over all rows;
- *aggregation*: no GROUP BY — every shard returns one row, combined per
  aggregate function (AVG from derived SUM/COUNT);
- derived columns are trimmed from the visible output, then *distinct*
  and *pagination* apply to the trimmed rows.

The merged rows are one list, built by :func:`merge`: the heap merge and
the iteration are consumed into it (through ``islice`` under a LIMIT, so
a shard is read only as far as the page needs), and group folds append
to it.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Protocol, Sequence

from ..exceptions import MergeError
from ..storage.expression import aggregate, distinct_rows, hashable, order_key


class ShardResult(Protocol):
    """What the merger needs from one shard's result (Cursor satisfies it)."""

    @property
    def columns(self) -> list[str]: ...

    def __iter__(self) -> Iterator[tuple[Any, ...]]: ...


@dataclass
class MaterializedResult:
    """An in-memory shard result (used by the memory-merge path)."""

    columns: list[str]
    rows: list[tuple[Any, ...]]

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)


@dataclass
class AggregateSpec:
    """One aggregate select item and where to find its inputs."""

    func: str
    index: int
    distinct: bool = False
    sum_index: int | None = None  # AVG only
    count_index: int | None = None  # AVG only


@dataclass
class MergeSpec:
    """Merging plan computed by the rewriter."""

    is_query: bool
    single_node: bool = False
    output_width: int = -1  # -1: pass all columns through
    aggregates: list[AggregateSpec] = field(default_factory=list)
    group_keys: list[int | str] = field(default_factory=list)
    order_keys: list[tuple[int | str, bool]] = field(default_factory=list)
    distinct: bool = False
    limit_count: int | None = None
    limit_offset: int | None = None
    group_equals_order: bool = False
    has_group_by: bool = False


@dataclass
class MergedResult:
    """The single logical result returned to the application."""

    columns: list[str]
    rows: list[tuple[Any, ...]]
    merger_kind: str = "passthrough"

    def fetchall(self) -> list[tuple[Any, ...]]:
        return list(self.rows)


def merge(spec: MergeSpec, results: Sequence[ShardResult]) -> MergedResult:
    """Merge shard results according to the plan: one list of rows.

    A shard result is read only through ``columns`` and iteration."""
    if not results:
        return MergedResult(columns=[], rows=[])
    columns = list(results[0].columns)
    visible = columns if spec.output_width < 0 else columns[: spec.output_width]
    trim = (operator.itemgetter(slice(0, spec.output_width))
            if 0 <= spec.output_width < len(columns) else None)

    if spec.single_node or len(results) == 1:
        rows = results[0] if trim is None else map(trim, results[0])
        return MergedResult(columns=visible, rows=list(rows), merger_kind="passthrough")

    order_indexes = [(_resolve_key(k, columns), desc) for k, desc in spec.order_keys]

    merged: Iterable[tuple[Any, ...]]
    if spec.aggregates and not spec.has_group_by:
        merged, kind = [_merge_aggregation(spec, results, columns)], "aggregation"
    elif spec.has_group_by:
        group_indexes = [_resolve_key(k, columns) for k in spec.group_keys]
        if spec.group_equals_order and order_indexes:
            stream = _heap_merge(results, order_indexes)
            merged = _fold_adjacent_groups(spec, stream, group_indexes)
            kind = "group-by-stream"
        else:
            merged = _memory_group(spec, results, group_indexes, order_indexes)
            kind = "group-by-memory"
    elif order_indexes:
        merged = _heap_merge(results, order_indexes)
        kind = "order-by-stream"
    else:
        merged = itertools.chain.from_iterable(results)
        kind = "iteration"

    if trim is not None:
        merged = map(trim, merged)
    if spec.distinct:
        merged = distinct_rows(list(merged))
    if spec.limit_offset is not None or spec.limit_count is not None:
        offset = spec.limit_offset or 0
        stop = None if spec.limit_count is None else offset + spec.limit_count
        merged = itertools.islice(merged, offset, stop)
    return MergedResult(columns=visible, rows=list(merged), merger_kind=kind)


# ---------------------------------------------------------------------------
# Key resolution and ordering helpers
# ---------------------------------------------------------------------------


def _resolve_key(key: int | str, columns: list[str]) -> int:
    if isinstance(key, int):
        return key
    lower = key.lower()
    for i, name in enumerate(columns):
        if name.lower() == lower:
            return i
    for i, name in enumerate(columns):
        if name.rsplit(".", 1)[-1].lower() == lower:
            return i
    raise MergeError(f"cannot resolve merge key {key!r} in columns {columns}")


def _order_key(order_indexes: list[tuple[int, bool]]) -> tuple[Any, bool]:
    """``(key, reverse)`` by the storage layer's one ORDER BY rule."""
    read = operator.itemgetter(*[i for i, _ in order_indexes])
    return order_key(read, [desc for _, desc in order_indexes])


def _heap_merge(
    results: Sequence[ShardResult], order_indexes: list[tuple[int, bool]]
) -> Iterator[tuple[Any, ...]]:
    """Multi-way merge of per-shard sorted streams (priority queue)."""
    key, reverse = _order_key(order_indexes)
    return heapq.merge(*results, key=key, reverse=reverse)


# ---------------------------------------------------------------------------
# Aggregates: storage's rule over each group's partials
# ---------------------------------------------------------------------------

def _partials(rows: list[tuple[Any, ...]], index: int) -> list[Any]:
    return [value for row in rows if (value := row[index]) is not None]


def _combine(agg: AggregateSpec, rows: list[tuple[Any, ...]]) -> Any:
    """One aggregate of a group from its shard partials, folded by
    storage's rule (:func:`~repro.storage.expression.aggregate`) over the
    non-NULL ones: COUNT and SUM partials by SUM, MIN and MAX by
    themselves; AVG is the SUM of the derived sums over the SUM of the
    derived counts."""
    func = agg.func
    if agg.distinct and func in ("COUNT", "SUM", "AVG"):
        # Per-shard distinct sets may overlap, so their counts/sums
        # cannot be added. Upstream routes such queries to federation;
        # we fail loudly instead of merging a wrong answer.
        raise MergeError(
            f"{func}(DISTINCT ...) cannot be merged across shards; "
            "add a sharding condition so the query routes to one shard"
        )
    if func == "AVG":
        count = aggregate("SUM", _partials(rows, agg.count_index))
        return aggregate("SUM", _partials(rows, agg.sum_index)) / count if count else None
    value = aggregate("SUM" if func == "COUNT" else func, _partials(rows, agg.index))
    return 0 if value is None and func == "COUNT" else value


def _combine_group(spec: MergeSpec, rows: list[tuple[Any, ...]]) -> tuple[Any, ...]:
    """The group's first row, its aggregate columns combined."""
    out = list(rows[0])
    for agg in spec.aggregates:
        out[agg.index] = _combine(agg, rows)
    return tuple(out)


def _merge_aggregation(
    spec: MergeSpec, results: Sequence[ShardResult], columns: list[str]
) -> tuple[Any, ...]:
    """No GROUP BY: every shard's rows are one group (a row of NULLs
    stands in for the first row when there is none)."""
    rows = list(itertools.chain.from_iterable(results))
    return _combine_group(spec, rows or [(None,) * len(columns)])


# ---------------------------------------------------------------------------
# GROUP BY merging
# ---------------------------------------------------------------------------


def _group_key(row: tuple[Any, ...], group_indexes: list[int]) -> tuple:
    return tuple([hashable(row[i]) for i in group_indexes])


def _fold_adjacent_groups(
    spec: MergeSpec,
    stream: Iterator[tuple[Any, ...]],
    group_indexes: list[int],
) -> list[tuple[Any, ...]]:
    """Stream group merge: the merged stream is ordered by the group keys,
    so each group is a contiguous run at the heads of the shard cursors."""
    out: list[tuple[Any, ...]] = []
    pending: list[tuple[Any, ...]] = []
    pending_key: tuple | None = None
    for row in stream:
        key = _group_key(row, group_indexes)
        if pending_key is None or key == pending_key:
            pending.append(row)
            pending_key = key
        else:
            out.append(_combine_group(spec, pending))
            pending = [row]
            pending_key = key
    if pending:
        out.append(_combine_group(spec, pending))
    return out


def _memory_group(
    spec: MergeSpec,
    results: Sequence[ShardResult],
    group_indexes: list[int],
    order_indexes: list[tuple[int, bool]],
) -> list[tuple[Any, ...]]:
    """Memory group merge: hash-aggregate every row, then re-sort."""
    groups: dict[tuple, list[tuple[Any, ...]]] = {}
    for result in results:
        for row in result:
            groups.setdefault(_group_key(row, group_indexes), []).append(row)
    combined = [_combine_group(spec, rows) for rows in groups.values()]
    if order_indexes:
        key, reverse = _order_key(order_indexes)
        combined.sort(key=key, reverse=reverse)
    return combined
