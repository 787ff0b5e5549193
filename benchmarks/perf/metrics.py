"""Metric names, units and directions, and how the layer metrics are derived.

``BENCHMARK.json`` at the root of the repository repeats these tables (the
self-test checks that the two agree); the bounds live only there.
"""

from __future__ import annotations

from counting import PACKAGES
from tracing import ROOT

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "p95_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

PER_LAYER = {
    "adaptors.jdbc.calls_per_op": ("count", "lower"),
    "adaptors.jdbc.self_ms_per_op": ("ms", "lower"),
    "adaptors.proxy.overhead_ms_per_op": ("ms", "lower"),
    "adaptors.proxy.requests_per_op": ("count", "lower"),
    "adaptors.proxy.backpressure_rejections": ("count", "lower"),
    "protocol.calls_per_op": ("count", "lower"),
    "protocol.self_ms_per_op": ("ms", "lower"),
    "protocol.bytes_per_op": ("B", "lower"),
    "sql.parse.calls_per_op": ("count", "lower"),
    "sql.parse.self_ms_per_op": ("ms", "lower"),
    "engine.pipeline.self_ms_per_op": ("ms", "lower"),
    "engine.plan.hit_rate": ("ratio", "higher"),
    "engine.plan.compile_ms_per_op": ("ms", "lower"),
    "engine.context.self_ms_per_op": ("ms", "lower"),
    "engine.router.self_ms_per_op": ("ms", "lower"),
    "engine.router.units_per_op": ("count", "lower"),
    "engine.rewriter.self_ms_per_op": ("ms", "lower"),
    "engine.executor.self_ms_per_op": ("ms", "lower"),
    "engine.executor.queued_tasks_per_op": ("count", "lower"),
    "engine.executor.steals_per_op": ("count", "lower"),
    "engine.merger.self_ms_per_op": ("ms", "lower"),
    "engine.merger.rows_in_per_row_out": ("ratio", "lower"),
    "storage.pool.acquires_per_op": ("count", "lower"),
    "storage.pool.wait_ms_per_op": ("ms", "lower"),
    "storage.connection.calls_per_op": ("count", "lower"),
    "storage.connection.self_ms_per_op": ("ms", "lower"),
    "storage.plans.hit_rate": ("ratio", "higher"),
    "storage.latency.pay_calls_per_op": ("count", "lower"),
    "storage.latency.priced_ms_per_op": ("ms", "lower"),
    "storage.latency.paid_ms_per_op": ("ms", "lower"),
    "storage.latency.overshoot_ratio": ("ratio", "lower"),
    "transaction.calls_per_op": ("count", "lower"),
    "transaction.commit_ms_per_op": ("ms", "lower"),
    "py.calls_per_op": ("count", "lower"),
    **{f"py.calls_per_op.{package}": ("count", "lower") for package in PACKAGES},
    "process.cpu_ms_per_op": ("ms", "lower"),
    "trace.residual_share": ("ratio", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "host.kernel_ms": ("ms", "lower"),
}

#: layer metrics that must repeat exactly for a given seed (one client)
EXACT_SUFFIXES = (".calls_per_op", ".units_per_op", ".hit_rate", ".bytes_per_op",
                  ".pay_calls_per_op", ".priced_ms_per_op", ".rows_in_per_row_out")


def is_exact(name: str) -> bool:
    return name.endswith(EXACT_SUFFIXES) or name.startswith("py.calls_per_op")


def _hit_rate(before: dict, after: dict) -> float:
    hits, misses, bypasses = (after[key] - before[key] for key in ("hits", "misses", "bypasses"))
    lookups = hits + misses + bypasses
    return hits / lookups if lookups else 0.0


def from_trace(summary: dict, before: dict, after: dict) -> dict[str, float]:
    """The span- and counter-derived layer metrics of one traced pass.

    ``summary`` is ``tracing.summarize``; ``before``/``after`` are the
    program's own counters around the pass (``run.counters``).
    """
    ops = summary["ops"]
    calls, values, raw = summary["calls"], summary["values"], summary["raw_seconds"]

    def ms(layer: str) -> float:  # attributed wall time, see tracing.attribute
        return summary["seconds"].get(layer, 0.0) * 1e3 / ops

    def per_op(table: dict, key: str) -> float:
        return table.get(key, 0) / ops

    def delta(group: str, key: str) -> float:
        return after[group][key] - before[group][key]

    priced = values.get("priced_s", 0.0)
    rows_out = values.get("rows_out", 0)
    return {
        "adaptors.jdbc.calls_per_op": per_op(calls, "adaptors.jdbc"),
        "adaptors.jdbc.self_ms_per_op": ms("adaptors.jdbc"),
        "adaptors.proxy.overhead_ms_per_op": (
            (raw["ProxyClient.execute"] - raw["SQLEngine.execute"]) * 1e3 / ops
            if "ProxyClient.execute" in raw else 0.0),
        "adaptors.proxy.requests_per_op": delta("proxy", "requests") / ops,
        "adaptors.proxy.backpressure_rejections": delta("proxy", "backpressure_rejections"),
        "protocol.calls_per_op": per_op(calls, "protocol"),
        "protocol.self_ms_per_op": ms("protocol"),
        "protocol.bytes_per_op": per_op(values, "bytes"),
        "sql.parse.calls_per_op": per_op(calls, "sql.parse"),
        "sql.parse.self_ms_per_op": ms("sql.parse"),
        "engine.pipeline.self_ms_per_op": ms("engine.pipeline"),
        "engine.plan.hit_rate": _hit_rate(before["plan"], after["plan"]),
        "engine.plan.compile_ms_per_op": ms("engine.plan"),
        "engine.context.self_ms_per_op": ms("engine.context"),
        "engine.router.self_ms_per_op": ms("engine.router"),
        "engine.router.units_per_op": per_op(values, "units"),
        "engine.rewriter.self_ms_per_op": ms("engine.rewriter"),
        "engine.executor.self_ms_per_op": ms("engine.executor"),
        "engine.executor.queued_tasks_per_op": delta("executor", "queued_tasks") / ops,
        "engine.executor.steals_per_op": delta("executor", "steals") / ops,
        "engine.merger.self_ms_per_op": ms("engine.merger"),
        "engine.merger.rows_in_per_row_out": summary["rows_in"] / rows_out if rows_out else 0.0,
        "storage.pool.acquires_per_op": per_op(values, "connections"),
        "storage.pool.wait_ms_per_op": ms("storage.pool"),
        "storage.connection.calls_per_op": per_op(calls, "storage.connection"),
        "storage.connection.self_ms_per_op": ms("storage.connection"),
        "storage.plans.hit_rate": _hit_rate(before["storage_plans"], after["storage_plans"]),
        "storage.latency.pay_calls_per_op": per_op(calls, "storage.latency"),
        "storage.latency.priced_ms_per_op": priced * 1e3 / ops,
        "storage.latency.paid_ms_per_op": ms("storage.latency"),
        "storage.latency.overshoot_ratio": (
            raw.get("storage.latency", 0.0) / priced if priced else 0.0),
        "transaction.calls_per_op": per_op(calls, "transaction"),
        "transaction.commit_ms_per_op": ms("transaction"),
        "trace.residual_share": summary["seconds"].get(ROOT, 0.0) / summary["op_seconds"],
    }


def from_counts(by_package: dict[str, int], ops: int) -> dict[str, float]:
    out = {"py.calls_per_op": by_package.get("", 0) / ops}
    for package in PACKAGES:
        out[f"py.calls_per_op.{package}"] = by_package.get(package, 0) / ops
    return out
