"""Observability suite: tracing, metrics registry, slow-query analytics.

Covers the span-tree shapes the engine emits per route type, histogram
percentile math against known distributions, slow-log eviction/sampling,
retry-annotated spans under injected faults, DistSQL surfaces, the
diagnostics invariants on ``EngineResult``, and the overhead guard
(tracer disabled → zero spans and no trace allocations).
"""

import re
import threading
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

from repro.adaptors import ShardingRuntime
from repro.distsql import execute_distsql
from repro.engine import ResiliencePolicy, SQLEngine
from repro.exceptions import ExecutionError
from repro.observability import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    Observability,
    SlowQueryLog,
    Tracer,
    like_to_matcher,
)
from repro.observability.metrics import sample_weights
from repro.storage import DataSource, FaultInjector, LatencyModel


@pytest.fixture
def observed_engine(seeded_engine):
    """The conftest paper engine with observability attached, tracing on."""
    obs = Observability()
    obs.tracer.enabled = True
    seeded_engine.attach_observability(obs)
    return seeded_engine, obs


def span_names(trace, parent):
    return [s.name for s in trace.children_of(parent)]


# ---------------------------------------------------------------------------
# Span trees
# ---------------------------------------------------------------------------


class TestSpanTrees:
    def test_unicast_select_tree(self, observed_engine):
        engine, obs = observed_engine
        result = engine.execute("SELECT name FROM t_user WHERE uid = 1")
        assert result.fetchall() == [("alice",)]
        trace = result.trace
        assert trace is not None
        assert trace.root.name == "statement"
        stages = span_names(trace, trace.root)
        assert stages == ["parse", "route", "rewrite", "execute", "merge"]
        (execute_span,) = trace.find_spans("execute")
        storage = trace.children_of(execute_span)
        assert len(storage) == 1
        span = storage[0]
        assert span.name == "storage"
        assert span.attributes["data_source"] == "ds1"
        assert span.attributes["mode"] == "memory_strictly"
        assert span.attributes["rows"] == 1
        assert "t_user_h1" in span.attributes["sql"]
        assert trace.root.attributes["route_type"] == "standard"
        assert trace.root.attributes["units"] == 1

    def test_broadcast_write_tree(self, observed_engine):
        engine, obs = observed_engine
        result = engine.execute("INSERT INTO t_dict (k, v) VALUES ('a', '1')")
        trace = result.trace
        assert trace.root.attributes["route_type"] == "broadcast"
        (execute_span,) = trace.find_spans("execute")
        storage = trace.children_of(execute_span)
        assert sorted(s.attributes["data_source"] for s in storage) == ["ds0", "ds1"]
        assert all(s.finished for s in storage)

    def test_broadcast_read_routes_to_one_source(self, observed_engine):
        engine, obs = observed_engine
        engine.execute("INSERT INTO t_dict (k, v) VALUES ('a', '1')")
        trace = engine.execute("SELECT k, v FROM t_dict").trace
        assert trace.root.attributes["route_type"] == "unicast"
        assert len(trace.find_spans("storage")) == 1

    def test_multi_shard_select_tree(self, observed_engine):
        engine, obs = observed_engine
        result = engine.execute("SELECT uid FROM t_user")
        assert len(result.fetchall()) == 4
        trace = result.trace
        storage = trace.find_spans("storage")
        assert sorted(s.attributes["data_source"] for s in storage) == ["ds0", "ds1"]
        # both shards contributed rows and report them on the span
        assert sum(s.attributes["rows"] for s in storage) == 4

    def test_update_has_no_merge_span(self, observed_engine):
        engine, obs = observed_engine
        result = engine.execute("UPDATE t_user SET age = 31 WHERE uid = 1")
        trace = result.trace
        assert span_names(trace, trace.root) == ["parse", "route", "rewrite", "execute"]
        (span,) = trace.find_spans("storage")
        assert span.attributes["rows"] == 1

    def test_span_ids_are_deterministic(self, fleet, paper_rule):
        def ids():
            sources = {
                "ds0": DataSource("ds0"), "ds1": DataSource("ds1"),
            }
            for i, ds in enumerate(sources.values()):
                ds.execute(
                    f"CREATE TABLE t_user_h{i} "
                    "(uid INT PRIMARY KEY, name VARCHAR(64), age INT)"
                )
            engine = SQLEngine(sources, paper_rule)
            obs = Observability()
            obs.tracer.enabled = True
            engine.attach_observability(obs)
            trace = engine.execute("SELECT * FROM t_user WHERE uid = 1").trace
            engine.close()
            return [(s.span_id, s.parent_id, s.name) for s in trace.spans]

        assert ids() == ids()

    def test_simulated_time_attributed_to_storage_span(self, paper_rule):
        latency = LatencyModel(base=2e-3, commit_io=3e-3)
        sources = {
            "ds0": DataSource("ds0", latency=latency),
            "ds1": DataSource("ds1", latency=latency),
        }
        for i, ds in enumerate(sources.values()):
            ds.execute(
                f"CREATE TABLE t_user_h{i} (uid INT PRIMARY KEY, name VARCHAR(64), age INT)"
            )
        engine = SQLEngine(sources, paper_rule)
        obs = Observability()
        obs.tracer.enabled = True
        engine.attach_observability(obs)
        try:
            engine.execute("INSERT INTO t_user (uid, name, age) VALUES (1, 'a', 1)")
            trace = engine.execute("SELECT * FROM t_user WHERE uid = 1").trace
        finally:
            engine.close()
        (span,) = trace.find_spans("storage")
        # the latency model's priced sleep lands on the storage span...
        assert span.simulated >= latency.base
        assert span.wall >= span.simulated
        # ...and not on the pipeline-stage spans
        (parse_span,) = trace.find_spans("parse")
        assert parse_span.simulated == 0.0
        assert trace.simulated == pytest.approx(span.simulated)

    def test_render_contains_tree_connectors(self, observed_engine):
        engine, obs = observed_engine
        trace = engine.execute("SELECT * FROM t_user WHERE uid = 1").trace
        text = trace.render()
        assert "statement" in text.splitlines()[1]
        assert "├─" in text and "└─" in text
        assert "wall=" in text and "sim=" in text


# ---------------------------------------------------------------------------
# Histograms and registry
# ---------------------------------------------------------------------------


class TestHistogramMath:
    def test_percentiles_of_known_distribution(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(0.001, 0.01, 0.1, 1.0))
        for _ in range(90):
            hist.observe(0.0005)
        for _ in range(10):
            hist.observe(0.005)
        stats = hist.stats()
        assert stats["count"] == 100
        assert stats["sum"] == pytest.approx(90 * 0.0005 + 10 * 0.005)
        assert stats["avg"] == pytest.approx(stats["sum"] / 100)
        # interpolation inside the bucket that holds the rank:
        # p50 rank = 50 of 90 observations in (0, 0.001]
        assert stats["p50"] == pytest.approx(50 / 90 * 0.001)
        # p95 rank = 95: 90 below, 5 of 10 into (0.001, 0.01]
        assert stats["p95"] == pytest.approx(0.001 + 0.5 * 0.009)
        assert stats["p99"] == pytest.approx(0.001 + 0.9 * 0.009)

    def test_overflow_bucket_capped_by_observed_max(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(0.001, 1.0))
        hist.observe(5.0)
        assert hist.percentile(100) == pytest.approx(5.0)
        assert hist.percentile(50) <= 5.0

    def test_labelled_children_are_independent(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", labelnames=("stage",))
        hist.observe(0.5, stage="route")
        hist.observe(0.001, stage="parse")
        assert hist.count(stage="route") == 1
        assert hist.count(stage="parse") == 1
        assert hist.label_sets() == [{"stage": "parse"}, {"stage": "route"}]

    def test_default_buckets_cover_microseconds_to_seconds(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 1e-5
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 1.0


class TestMetricsRegistry:
    def test_counter_gauge_roundtrip(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total", labelnames=("source",))
        counter.inc(source="ds0")
        counter.inc(2, source="ds0")
        assert counter.value(source="ds0") == 3
        gauge = reg.gauge("g")
        gauge.set_function(lambda: 7.0)
        assert gauge.value() == 7.0

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ValueError):
            reg.gauge("m")

    def test_like_matcher(self):
        assert like_to_matcher("engine_%")("engine_stage_seconds")
        assert not like_to_matcher("engine_%")("storage_queries_total")
        assert like_to_matcher("%_total")("storage_queries_total")
        assert like_to_matcher("p__l_%")("pool_in_use")
        assert like_to_matcher("")("anything")

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat_seconds", help="latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        text = reg.render_prometheus()
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text

    def test_collector_read_through(self, observed_engine):
        engine, obs = observed_engine
        engine.execute("SELECT * FROM t_user WHERE uid = 1").fetchall()
        families = {name: samples for name, _, _, samples in obs.registry.collect()}
        # the executor's ad-hoc counters surface via the registry collector
        assert families["executor_statements_total"][0][1] >= 1
        assert families["executor_retries_total"][0][1] == 0


# ---------------------------------------------------------------------------
# Statement-level metrics (sampling correctness)
# ---------------------------------------------------------------------------


class TestStatementMetrics:
    def test_counters_exact_and_histograms_weighted(self, observed_engine):
        engine, obs = observed_engine
        obs.tracer.enabled = False  # metrics only
        n = 200  # past the sampling warmup; multiple of the sample period
        for i in range(n):
            engine.execute("SELECT * FROM t_user WHERE uid = 1").fetchall()
        statements = obs.registry.get("engine_statements_total")
        assert statements.value(route_type="standard") == n
        queries = obs.registry.get("storage_queries_total")
        assert queries.value(source="ds1") == n
        # weighted sampling keeps histogram counts equal to the population
        # for a deterministic single-threaded run; after the first
        # execution compiles a plan, hits record the plan_cache_hit stage
        # instead of parse/route/rewrite
        hist = obs.registry.get("engine_stage_seconds")
        assert hist.count(stage="route") + hist.count(stage="plan_cache_hit") == n
        assert hist.count(stage="plan_cache_hit") >= n - 1
        assert hist.count(stage="execute") == n
        profile = obs.stage_profile()
        assert "plan_cache_hit" in profile
        assert list(profile)[:2] == ["parse", "route"]
        assert profile["execute"]["p95"] >= profile["execute"]["p50"] > 0

    @pytest.mark.parametrize("traced", [False, True])
    def test_a_fan_out_that_fails_on_one_source_counts_both(self, seeded_engine, fleet,
                                                          traced):
        """A read of both sources fails on ds1: the statement raises, yet
        ds0's unit answered and counts as a query; ds1's counts as a query
        and an error. A read both answer then counts once on each."""
        obs = Observability()
        obs.tracer.enabled = traced
        seeded_engine.attach_observability(obs)
        fleet["ds1"].database.fail_next("statement")
        with pytest.raises(ExecutionError, match="injected failure"):
            seeded_engine.execute("SELECT name FROM t_user").fetchall()
        queries = obs.registry.get("storage_queries_total")
        errors = obs.registry.get("storage_errors_total")
        assert [queries.value(source="ds0"), queries.value(source="ds1")] == [1, 1]
        assert [errors.value(source="ds0"), errors.value(source="ds1")] == [0, 1]
        assert obs.registry.get("engine_statement_errors_total").value() == 1
        assert len(seeded_engine.execute("SELECT name FROM t_user").fetchall()) == 4
        assert [queries.value(source="ds0"), queries.value(source="ds1")] == [2, 2]
        assert [errors.value(source="ds0"), errors.value(source="ds1")] == [0, 1]

    def test_exact_mode_when_sampling_disabled(self, observed_engine):
        engine, obs = observed_engine
        obs.tracer.enabled = False
        obs.stage_sample_every = 1
        for _ in range(10):
            engine.execute("SELECT * FROM t_user WHERE uid = 2").fetchall()
        hist = obs.registry.get("engine_stage_seconds")
        # first execution parses + compiles; the other 9 are plan hits
        assert hist.count(stage="parse") >= 1
        assert hist.count(stage="parse") + hist.count(stage="plan_cache_hit") >= 10

    def test_error_statements_counted(self, observed_engine):
        engine, obs = observed_engine
        with pytest.raises(Exception):
            engine.execute("SELECT * FROM no_such_table_anywhere")
        assert obs.registry.get("engine_statement_errors_total").value() == 1

    def test_pool_wait_histogram_materialized(self, observed_engine):
        engine, obs = observed_engine
        engine.execute("SELECT * FROM t_user WHERE uid = 1").fetchall()
        hist = obs.registry.get("pool_checkout_wait_seconds")
        assert hist.count(source="ds1") >= 1

    def test_thread_safety_of_counters(self, observed_engine):
        engine, obs = observed_engine
        obs.tracer.enabled = False
        per_thread, threads = 50, 4

        def worker():
            for _ in range(per_thread):
                engine.execute("SELECT * FROM t_user WHERE uid = 1").fetchall()

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        statements = obs.registry.get("engine_statements_total")
        assert statements.value(route_type="standard") == per_thread * threads


# ---------------------------------------------------------------------------
# Slow-query log
# ---------------------------------------------------------------------------


def make_trace(tracer):
    trace = tracer.start_trace("SELECT 1")
    trace.start_span("parse").finish()
    return trace.finish()


class TestSlowQueryLog:
    def test_ring_buffer_eviction(self):
        tracer = Tracer(enabled=True)
        log = SlowQueryLog(threshold=0.0, capacity=3)
        traces = [make_trace(tracer) for _ in range(5)]
        for trace in traces:
            assert log.offer(trace)
        entries = log.entries()
        assert len(entries) == 3
        assert log.recorded == 5
        # newest first; the two oldest were evicted
        assert [e.trace_id for e in entries] == [
            traces[4].trace_id, traces[3].trace_id, traces[2].trace_id,
        ]
        assert all(e.kind == "slow" for e in entries)

    def test_threshold_filters_fast_traces(self):
        tracer = Tracer(enabled=True)
        log = SlowQueryLog(threshold=60.0)
        assert not log.offer(make_trace(tracer))
        assert log.entries() == []

    def test_sampling_records_every_nth_fast_trace(self):
        tracer = Tracer(enabled=True)
        log = SlowQueryLog(threshold=60.0, sample_every=3)
        recorded = [log.offer(make_trace(tracer)) for _ in range(9)]
        assert recorded == [False, False, True] * 3
        assert all(e.kind == "sampled" for e in log.entries())

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)


# ---------------------------------------------------------------------------
# Chaos: retries annotated on spans
# ---------------------------------------------------------------------------


class TestChaosSpans:
    def test_retry_event_on_storage_span(self, observed_engine):
        engine, obs = observed_engine
        engine.executor.enable_resilience(ResiliencePolicy(max_retries=3))
        injector = FaultInjector(seed=1)
        engine.data_sources["ds1"].set_fault_injector(injector)
        injector.fail_once("ds1")  # next statement on ds1 fails transiently
        result = engine.execute("SELECT name FROM t_user WHERE uid = 1")
        assert result.fetchall() == [("alice",)]
        (span,) = result.trace.find_spans("storage")
        assert span.attributes["retries"] == 1
        events = [name for name, _ in span.events]
        assert events == ["retry"]
        assert span.error is None  # the retry succeeded

    def test_failed_statement_finishes_span_with_error(self, observed_engine):
        engine, obs = observed_engine
        injector = FaultInjector(seed=1)
        engine.data_sources["ds1"].set_fault_injector(injector)
        injector.fail_once("ds1")  # no resilience policy: error surfaces
        with pytest.raises(Exception):
            engine.execute("SELECT name FROM t_user WHERE uid = 1")
        trace = obs.tracer.recent()[0]
        assert trace.error is not None
        (span,) = trace.find_spans("storage")
        assert span.error is not None
        assert span.finished


# ---------------------------------------------------------------------------
# Diagnostics invariants on EngineResult
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_unicast_diagnostics(self, seeded_engine):
        result = seeded_engine.execute("SELECT * FROM t_user WHERE uid = 1")
        assert result.route_type == "standard"
        assert list(result.modes) == ["ds1"]
        result.fetchall()
        assert result.merger_kind

    def test_update_sets_merger_kind(self, seeded_engine):
        result = seeded_engine.execute("UPDATE t_user SET age = 1 WHERE uid = 1")
        assert result.merger_kind == "update"
        assert result.route_type == "standard"

    def test_broadcast_diagnostics(self, seeded_engine):
        result = seeded_engine.execute("INSERT INTO t_dict (k, v) VALUES ('x', 'y')")
        assert result.route_type == "broadcast"
        assert sorted(result.modes) == ["ds0", "ds1"]
        assert result.merger_kind == "update"

    def test_degraded_read_drops_skipped_modes(self, seeded_engine):
        engine = seeded_engine
        engine.executor.enable_resilience(ResiliencePolicy(allow_partial_broadcast=True))
        engine.executor.set_health_check(lambda name: name == "ds0")
        result = engine.execute("SELECT * FROM t_user")
        assert result.partial_results
        assert result.skipped_sources == ["ds1"]
        # modes only lists sources that actually contributed results
        assert list(result.modes) == ["ds0"]
        assert result.route_type == "broadcast"


# ---------------------------------------------------------------------------
# Overhead guard
# ---------------------------------------------------------------------------


class TestOverheadGuard:
    def test_disabled_tracer_allocates_no_spans(self, observed_engine):
        engine, obs = observed_engine
        obs.tracer.enabled = False
        before = obs.tracer.span_count
        tracemalloc.start()
        for _ in range(30):
            engine.execute("SELECT * FROM t_user WHERE uid = 1").fetchall()
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        assert obs.tracer.span_count == before
        assert list(obs.tracer.recent()) == []
        trace_allocs = [
            stat for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename.endswith("observability/trace.py")
        ]
        assert trace_allocs == []

    def test_engine_without_observability_pays_nothing(self, seeded_engine):
        assert seeded_engine.observability is None
        result = seeded_engine.execute("SELECT * FROM t_user WHERE uid = 1")
        assert result.trace is None


# ---------------------------------------------------------------------------
# DistSQL surfaces
# ---------------------------------------------------------------------------


@pytest.fixture
def sharded_runtime():
    rt = ShardingRuntime()
    execute_distsql("REGISTER RESOURCE ds0, ds1", rt)
    execute_distsql(
        "CREATE SHARDING TABLE RULE t_order (RESOURCES(ds0, ds1), "
        "SHARDING_COLUMN=order_id, TYPE=hash_mod, PROPERTIES('sharding-count'=4))",
        rt,
    )
    rt.engine.execute("CREATE TABLE t_order (order_id INT, user_id INT)")
    for i in range(8):
        rt.engine.execute(f"INSERT INTO t_order (order_id, user_id) VALUES ({i}, {i})")
    yield rt
    rt.close()


class TestDistSQLSurfaces:
    def test_trace_statement_prints_span_tree(self, sharded_runtime):
        result = execute_distsql("TRACE SELECT * FROM t_order", sharded_runtime)
        assert result.columns == ["span", "wall_ms", "simulated_ms", "detail"]
        labels = [row[0] for row in result.rows]
        assert labels[0] == "statement"
        assert any("storage" in label for label in labels)
        # 2-source / 4-shard fixture: one storage span per execution unit
        assert sum("storage" in label for label in labels) == 4
        assert result.message.startswith("trace #")
        assert "route=broadcast" in result.message

    def test_trace_leaves_tracer_disabled(self, sharded_runtime):
        execute_distsql("TRACE SELECT * FROM t_order WHERE order_id = 1", sharded_runtime)
        assert not sharded_runtime.observability.tracer.enabled

    def test_show_traces_after_enabling(self, sharded_runtime):
        empty = execute_distsql("SHOW TRACES", sharded_runtime)
        assert empty.rows == []
        assert "tracing is disabled" in empty.message
        execute_distsql("SET VARIABLE tracing = on", sharded_runtime)
        sharded_runtime.engine.execute("SELECT * FROM t_order WHERE order_id = 1").fetchall()
        result = execute_distsql("SHOW TRACES", sharded_runtime)
        assert result.columns[:2] == ["trace_id", "sql"]
        assert len(result.rows) == 1
        assert "t_order" in result.rows[0][1]

    def test_show_slow_queries(self, sharded_runtime):
        execute_distsql("SET VARIABLE tracing = on", sharded_runtime)
        execute_distsql("SET VARIABLE slow_query_threshold_ms = 0", sharded_runtime)
        sharded_runtime.engine.execute("SELECT * FROM t_order").fetchall()
        result = execute_distsql("SHOW SLOW QUERIES", sharded_runtime)
        assert len(result.rows) == 1
        row = dict(zip(result.columns, result.rows[0]))
        assert row["kind"] == "slow"
        assert row["route_type"] == "broadcast"

    def test_show_metrics_like_filter(self, sharded_runtime):
        sharded_runtime.engine.execute("SELECT * FROM t_order WHERE order_id = 1").fetchall()
        everything = execute_distsql("SHOW METRICS", sharded_runtime)
        names = {row[0] for row in everything.rows}
        assert "engine_statements_total" in names
        assert "engine_stage_seconds" in names
        filtered = execute_distsql("SHOW METRICS LIKE 'pool_%'", sharded_runtime)
        assert {row[0] for row in filtered.rows} <= {
            "pool_checkout_wait_seconds", "pool_in_use", "pool_idle",
        }

    def test_show_execution_metrics_is_alias(self, sharded_runtime):
        sharded_runtime.engine.execute("SELECT * FROM t_order WHERE order_id = 1").fetchall()
        alias = execute_distsql("SHOW EXECUTION METRICS", sharded_runtime)
        assert "alias of SHOW METRICS" in alias.message
        alias_counts = dict(alias.rows)
        full = execute_distsql("SHOW METRICS LIKE 'executor_%'", sharded_runtime)
        registry_counts = {
            row[0]: row[3] for row in full.rows if not row[1] or row[1] == "-"
        }
        # one source of truth: the alias and the registry agree
        assert registry_counts["executor_statements_total"] == alias_counts["statements"]

    def test_set_variable_tracing_roundtrip(self, sharded_runtime):
        execute_distsql("SET VARIABLE tracing = on", sharded_runtime)
        assert sharded_runtime.variables["tracing"] == "ON"
        assert sharded_runtime.observability.tracer.enabled
        execute_distsql("SET VARIABLE tracing = off", sharded_runtime)
        assert not sharded_runtime.observability.tracer.enabled

    def test_prometheus_export_has_engine_families(self, sharded_runtime):
        sharded_runtime.engine.execute("SELECT * FROM t_order WHERE order_id = 1").fetchall()
        text = sharded_runtime.observability.registry.render_prometheus()
        assert "# TYPE engine_stage_seconds histogram" in text
        assert 'engine_stage_seconds_bucket{stage="route"' in text
        assert "# TYPE storage_queries_total counter" in text
        assert "executor_statements_total" in text


# ---------------------------------------------------------------------------
# Bench --profile
# ---------------------------------------------------------------------------


class TestBenchProfile:
    def test_profile_writes_report(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out = tmp_path / "profile.json"
        rc = main([
            "--system", "ssj", "--scenario", "point_select",
            "--table-size", "200", "--threads", "2",
            "--duration", "0.3", "--warmup", "0.05",
            "--profile", "--profile-output", str(out),
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "Stage" in captured and "p99(ms)" in captured
        import json

        payload = json.loads(out.read_text())
        assert payload["scenario"] == "point_select"
        assert payload["transactions"] > 0
        assert "execute" in payload["stages"]
        assert payload["stages"]["execute"]["count"] > 0
        assert payload["per_source_queries"]


# ---------------------------------------------------------------------------
# One sampler, one weighted histogram
# ---------------------------------------------------------------------------


class TestOneSampler:
    def test_weight_stream_is_warmup_then_one_in_n(self):
        assert list(islice(sample_weights(2, 3), 8)) == [1, 1, 0, 0, 3, 0, 0, 3]
        assert list(islice(sample_weights(1, 0), 3)) == [1, 0, 0]

    def test_pool_checkouts_follow_the_settings(self):
        obs = Observability()
        pool = DataSource("p0").pool
        obs.watch_pool("p0", pool)
        obs.stage_sample_warmup, obs.stage_sample_every = 0, 4
        hist = obs.registry.get("pool_checkout_wait_seconds")
        for _ in range(9):
            pool.release(pool.acquire())
        assert hist.count(source="p0") == 8  # two samples of weight 4
        obs.stage_sample_every = 1
        pool.release(pool.acquire())
        assert hist.count(source="p0") == 9
        obs.unwatch_pool("p0", pool)
        assert pool.wait_observer is None

    def test_slow_log_sampling_follows_its_setting(self):
        tracer = Tracer(enabled=True)
        log = SlowQueryLog(threshold=60.0)
        assert not log.offer(make_trace(tracer))
        log.sample_every = 2
        assert [log.offer(make_trace(tracer)) for _ in range(4)] == [False, True] * 2

    def test_src_holds_one_bucket_update_interpolation_and_sampling_rule(self):
        # A second copy of any of the three is a re-fork: make it call
        # _HistogramChild.observe / .percentile or draw from sample_weights.
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        text = "".join(p.read_text() for p in sorted((src / "observability").glob("*.py")))
        assert text.count("bisect_left(") == 1
        assert text.count("rank - cumulative") == 1
        assert len(re.findall(r"%\s*(?:self\.)?\w*every\b|\bcycle\(", text)) == 1
        engine = "".join(p.read_text() for p in sorted((src / "engine").glob("*.py")))
        assert not re.search(r"\.workload\b", engine)  # Observability decides
