"""Spans recorded from outside the program, and the per-layer attribution.

The public functions at each layer boundary are wrapped *as bound at their
call sites* (``repro.engine.pipeline.route`` is the name the pipeline
calls, so that is the name replaced). Nothing under ``src/`` changes.
Spans live in memory and are written out once, at the end.

One client drives the traced pass, so at most one op is open at a time: a
span started on a thread with no open span of its own (an engine pool
worker, the proxy's reactor or one of its workers) belongs to the
innermost open *anchor* span - the op itself, ``ProxyClient.execute`` or
``ExecutionEngine.execute``, the three places where work leaves the
calling thread.

Attribution: every instant of an op's wall time goes to the spans that are
open and have no open child at that instant ("innermost"); when k of them
are open at once on different threads (a 16-way fan-out), each gets 1/k of
the instant. With no parallelism this is the usual self time (span minus
children); with parallelism it is the share of *wall* time, so the layers
and the residual (op time inside no span) add up to the op's time exactly.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import defaultdict

import repro.adaptors.jdbc as jdbc
import repro.adaptors.proxy as proxy
import repro.engine.executor as executor
import repro.engine.pipeline as pipeline
import repro.protocol.client as client
import repro.protocol.message as message
import repro.storage.connection as connection
import repro.storage.engine as storage_engine
import repro.storage.latency as latency
import repro.storage.pool as pool
import repro.transaction.local as local_txn
import repro.transaction.manager as txn_manager

ROOT = "op"

# span tuple layout
ID, LAYER, NAME, START, END, PARENT, OP, KEY, VALUE = range(9)


def _priced(args, result):
    return args[0]


def _size(args, result):
    return len(result)


#: (owner, attribute, layer, anchor?, value key, value function). The value
#: is the one number a boundary adds to a count metric, taken after the
#: call: seconds priced (pay), bytes encoded (protocol), units (executor),
#: connections handed out (pool), rows handed to the caller (result drain).
BOUNDARIES = [
    (jdbc.ShardingConnection, "execute", "adaptors.jdbc", False, None, None),
    (jdbc.ShardingConnection, "begin", "adaptors.jdbc", False, None, None),
    (jdbc.ShardingConnection, "commit", "adaptors.jdbc", False, None, None),
    (client.ProxyClient, "execute", "adaptors.proxy", True, None, None),
    (message, "encode", "protocol", False, "bytes", _size),  # client side
    (proxy, "encode", "protocol", False, "bytes", _size),  # server side
    (proxy, "decode_body", "protocol", False, None, None),
    (message.Framer, "feed", "protocol", False, None, None),
    (pipeline, "parse", "sql.parse", False, None, None),
    (pipeline.SQLEngine, "execute", "engine.pipeline", False, None, None),
    (pipeline, "compile_plan", "engine.plan", False, None, None),
    (pipeline, "build_context", "engine.context", False, None, None),
    (pipeline, "route", "engine.router", False, None, None),
    (pipeline, "rewrite", "engine.rewriter", False, None, None),
    (executor.ExecutionEngine, "execute", "engine.executor", True,
     "units", lambda args, result: len(args[1])),
    (executor.ExecutionEngine, "execute_pipeline", "engine.executor", True,
     "units", lambda args, result: len(args[2])),
    (pipeline, "merge", "engine.merger", False, None, None),
    (jdbc.ShardingResult, "fetchall", "engine.merger", False, "rows_out", _size),
    (jdbc.ShardingResult, "fetchmany", "engine.merger", False, "rows_out", _size),
    (pool.ConnectionPool, "acquire", "storage.pool", False,
     "connections", lambda args, result: 1),
    (pool.ConnectionPool, "try_acquire_many", "storage.pool", False,  # the fan-out's batch
     "connections", lambda args, result: len(result or ())),
    (connection.Connection, "execute", "storage.connection", False, None, None),
    (connection.Connection, "execute_pipeline", "storage.connection", False, None, None),
    (connection.Connection, "commit", "storage.connection", False, None, None),
    (connection, "pay", "storage.latency", False, "priced_s", _priced),
    (storage_engine, "pay", "storage.latency", False, "priced_s", _priced),
    (latency, "pay", "storage.latency", False, "priced_s", _priced),
    (txn_manager.TransactionManager, "begin", "transaction", False, None, None),
    (local_txn.LocalTransaction, "commit", "transaction", False, None, None),
]

LAYERS = sorted({entry[2] for entry in BOUNDARIES})


class _CountedRows:
    """A shard result that counts the rows the merger pulls from it."""

    def __init__(self, inner, recorder):
        self.columns = inner.columns
        self._inner = inner
        self._recorder = recorder

    def __iter__(self):
        count = 0
        try:
            for row in self._inner:
                count += 1
                yield row
        finally:
            self._recorder.merge_rows_in += count


class Recorder:
    """In-memory span store; one open op at a time."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.merge_rows_in = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._anchors: list[int] = []
        self._op: int | None = None
        self._op_start = 0.0
        self._restore: list[tuple] = []

    # -- ops (called by the load generator around each timed request) --------

    def begin_op(self) -> None:
        op = next(self._ids)
        self._anchors.append(op)
        self._stack().append(op)
        self._op_start = time.perf_counter()
        self._op = op

    def end_op(self) -> None:
        end = time.perf_counter()
        op, self._op = self._op, None
        self._stack().pop()
        self._anchors.pop()
        self.spans.append((op, ROOT, ROOT, self._op_start, end, 0, op, None, None))

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    # -- boundaries -----------------------------------------------------------

    def _wrap(self, fn, layer, name, anchor, key, value_of):
        ids, spans, anchors, stack_of = self._ids, self.spans, self._anchors, self._stack
        clock = time.perf_counter

        def boundary(*args, **kwargs):
            op = self._op
            if op is None:  # set-up, warm-up, tear-down: not recorded
                return fn(*args, **kwargs)
            stack = stack_of()
            try:
                parent = stack[-1] if stack else anchors[-1]
            except IndexError:  # the op ended under a server thread's feet
                parent = op
            span_id = next(ids)
            stack.append(span_id)
            if anchor:
                anchors.append(span_id)
            value = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = value_of(args, result)
                return result
            finally:
                end = clock()
                if anchor:
                    anchors.pop()
                stack.pop()
                spans.append((span_id, layer, name, start, end, parent, op, key, value))

        return boundary

    def install(self) -> None:
        for owner, attr, layer, anchor, key, value_of in BOUNDARIES:
            original = getattr(owner, attr)
            name = f"{owner.__name__.rpartition('.')[2]}.{attr}"
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, name, anchor, key, value_of))
        merge = pipeline.merge  # the boundary just installed; also count its input rows

        def counting_merge(spec, results):
            if self._op is None:
                return merge(spec, results)
            return merge(spec, [_CountedRows(r, self) for r in results])

        pipeline.merge = counting_merge

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# -- attribution ---------------------------------------------------------------


def attribute(spans: list[tuple]) -> tuple[dict[str, float], float]:
    """(seconds per layer, with ``ROOT`` = inside no span; total op seconds)."""
    by_op: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        by_op[span[OP]].append(span)
    totals: dict[str, float] = defaultdict(float)
    op_seconds = 0.0
    for op_spans in by_op.values():
        root = next(s for s in op_spans if s[LAYER] == ROOT)
        lo, hi = root[START], root[END]
        op_seconds += hi - lo
        layer_of = {s[ID]: s[LAYER] for s in op_spans}
        parent_of = {s[ID]: s[PARENT] for s in op_spans}
        events = []
        for s in op_spans:
            start, end = max(s[START], lo), min(s[END], hi)
            if end > start:
                events.append((start, 1, s[ID]))
                events.append((end, 0, s[ID]))
        events.sort()
        open_children: dict[int, int] = defaultdict(int)
        active: set[int] = set()
        previous = lo
        for when, opening, span_id in events:
            if when > previous and active:
                innermost = [s for s in active if not open_children[s]]
                share = (when - previous) / len(innermost)
                for s in innermost:
                    totals[layer_of[s]] += share
            previous = when
            if opening:
                active.add(span_id)
                open_children[parent_of[span_id]] += 1
            else:
                active.discard(span_id)
                open_children[parent_of[span_id]] -= 1
    return dict(totals), op_seconds


def check_tree(spans: list[tuple]) -> list[str]:
    """Whatever stops the spans of each op from forming one tree."""
    problems = []
    by_id = {s[ID]: s for s in spans}
    roots: dict[int, int] = defaultdict(int)
    for s in spans:
        if s[LAYER] == ROOT:
            roots[s[OP]] += 1
            continue
        seen = set()
        node = s
        while node[LAYER] != ROOT:
            if node[ID] in seen:
                problems.append(f"cycle at span {node[ID]}")
                break
            seen.add(node[ID])
            parent = by_id.get(node[PARENT])
            if parent is None:
                problems.append(f"span {node[ID]} ({node[NAME]}) has no parent span")
                break
            if parent[OP] != s[OP]:
                problems.append(f"span {s[ID]} crosses ops {s[OP]} -> {parent[OP]}")
                break
            node = parent
    problems += [f"op {op} has {n} roots" for op, n in roots.items() if n != 1]
    problems += [f"op {op} has no root" for op in {s[OP] for s in spans} - roots.keys()]
    return problems


def summarize(spans: list[tuple], rows_in: int) -> dict:
    """What the layer metrics need from one pass's spans (and the merger's
    input-row count, which no span carries)."""
    seconds, op_seconds = attribute(spans)
    calls: dict[str, int] = defaultdict(int)
    values: dict[str, list] = defaultdict(list)
    raw: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s[LAYER]] += 1
        raw[s[LAYER]] += s[END] - s[START]
        raw[s[NAME]] += s[END] - s[START]
        if s[VALUE] is not None:
            values[s[KEY]].append(s[VALUE])
    return {
        "ops": calls.pop(ROOT, 0),
        "op_seconds": op_seconds,
        "seconds": seconds,  # attributed wall time per layer; ROOT = residual
        "calls": dict(calls),
        # fsum: fan-out spans arrive in scheduling order, and a plain sum of the
        # priced seconds would differ in its last digit from pass to pass
        "values": {key: math.fsum(items) for key, items in values.items()},
        "rows_in": rows_in,
        "raw_seconds": dict(raw),  # plain span durations, by layer and by boundary
    }
