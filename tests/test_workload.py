"""Tests for the workload-intelligence layer.

Covers statement-digest normalization, the bounded digest table, the
space-saving hot-key sketch, SLO burn accounting, the DistSQL surfaces
(SHOW STATEMENT DIGESTS / SHARD HEAT / HOT KEYS / SLO, RESET WORKLOAD),
slow-log digest grouping, idempotent resource teardown, and Prometheus
text-exposition conformance.
"""

import gc
import re
import sys

import pytest

from repro.adaptors import ShardingRuntime
from repro.distsql import execute_distsql
from repro.exceptions import DistSQLError
from repro.observability.metrics import (
    MetricsRegistry,
    _escape_label_value,
)
from repro.observability.workload import (
    DigestTable,
    SLObjective,
    SLOTracker,
    SpaceSaving,
    WorkloadIntelligence,
    digest_of,
    normalize_sql,
)


@pytest.fixture
def runtime():
    rt = ShardingRuntime()
    yield rt
    rt.close()


@pytest.fixture
def configured(runtime):
    execute_distsql("REGISTER RESOURCE ds0, ds1", runtime)
    execute_distsql(
        "CREATE SHARDING TABLE RULE t_user (RESOURCES(ds0, ds1), "
        "SHARDING_COLUMN=uid, TYPE=hash_mod, PROPERTIES('sharding-count'=2))",
        runtime,
    )
    runtime.engine.execute("CREATE TABLE t_user (uid INT PRIMARY KEY, v INT)")
    return runtime


def drive_traffic(rt, hot_uid=7, hot_count=12, spread=8):
    """Inserts plus a skewed point-select mix (hot_uid dominates)."""
    for i in range(1, spread + 1):
        rt.engine.execute(f"INSERT INTO t_user (uid, v) VALUES ({i}, {i * 10})")
    for _ in range(hot_count):
        rt.engine.execute("SELECT v FROM t_user WHERE uid = ?", (hot_uid,)).fetchall()
    for i in range(1, spread + 1):
        rt.engine.execute("SELECT v FROM t_user WHERE uid = ?", (i,)).fetchall()


# ---------------------------------------------------------------------------
# Digest normalization
# ---------------------------------------------------------------------------


class TestNormalization:
    @pytest.mark.parametrize(
        "sql, expected",
        [
            ("SELECT * FROM t WHERE a = 'x''y' AND b = 10",
             "SELECT * FROM t WHERE a = ? AND b = ?"),
            ("SELECT c FROM sbtest_1 WHERE id = 5",
             "SELECT c FROM sbtest_1 WHERE id = ?"),  # identifier digits survive
            ("SELECT * FROM t WHERE id IN (1, 2, 3)",
             "SELECT * FROM t WHERE id IN (?)"),
            ("SELECT * FROM t WHERE id IN (?, ?, ?, ?)",
             "SELECT * FROM t WHERE id IN (?)"),
            ("INSERT INTO t (a, b) VALUES (1, 2), (3, 4), (5, 6)",
             "INSERT INTO t (a, b) VALUES (?)"),
            ("  SELECT   1 ;  ", "SELECT ?"),
            ("SELECT * FROM t WHERE x = 1.5e3 OR y = 2E-2",
             "SELECT * FROM t WHERE x = ? OR y = ?"),
        ],
        ids=["literals", "identifiers", "in-list", "placeholder-list",
             "multi-row-insert", "whitespace", "scientific"],
    )
    def test_normalize(self, sql, expected):
        assert normalize_sql(sql) == expected

    def test_same_shape_same_digest(self):
        a, _ = digest_of("SELECT v FROM t WHERE uid = 1")
        b, _ = digest_of("SELECT v FROM t WHERE uid = 999")
        c, _ = digest_of("SELECT v FROM t WHERE uid = ?")
        assert a == b == c

    def test_digest_is_case_insensitive(self):
        assert digest_of("select 1")[0] == digest_of("SELECT 1")[0]

    def test_different_shapes_differ(self):
        assert digest_of("SELECT a FROM t")[0] != digest_of("SELECT b FROM t")[0]

    def test_batch_sizes_share_a_digest(self):
        small, _ = digest_of("INSERT INTO t (a) VALUES (1), (2)")
        large, _ = digest_of(
            "INSERT INTO t (a) VALUES " + ", ".join(f"({i})" for i in range(50))
        )
        assert small == large


class TestDigestTable:
    def test_touch_returns_same_stats(self):
        table = DigestTable(capacity=4)
        first = table.touch("d1", "SELECT ?")
        second = table.touch("d1", "SELECT ?")
        assert first is second
        assert table.evicted == 0

    def test_eviction_drops_least_recently_seen(self):
        table = DigestTable(capacity=2)
        table.touch("a", "A")
        table.touch("b", "B")
        table.touch("a", "A")  # refresh a; b is now oldest
        table.touch("c", "C")
        assert set(table.entries) == {"a", "c"}
        assert table.evicted == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            DigestTable(capacity=0)

    def test_digest_percentiles_match_the_registry_histogram(self):
        # weighted latencies, the last one past the last bucket (2.5 s)
        latencies = [(2e-5, 8), (3e-4, 1), (4e-3, 8), (0.07, 1), (3.0, 2)]
        hist = MetricsRegistry().histogram("t_seconds")
        workload = WorkloadIntelligence()
        stats = workload.digests.touch("d1", "SELECT ?")
        for seconds, weight in latencies:
            for _ in range(weight):
                hist.observe(seconds)
            stats.observe(seconds, weight, fanout=1, route_type="standard",
                          plan_hit=True, storage_units=1, storage_hits=1)
        for p in (50, 95, 99):
            assert stats.latency.percentile(p) == pytest.approx(hist.percentile(p))
        assert hist.percentile(99) > 2.5
        (row,) = workload.digest_report()
        assert row["p95_ms"] == round(hist.percentile(95) * 1000, 4)
        assert row["max_ms"] == 3000.0


# ---------------------------------------------------------------------------
# Space-saving sketch
# ---------------------------------------------------------------------------


class TestSpaceSaving:
    def test_exact_below_capacity(self):
        sketch = SpaceSaving(capacity=8)
        for _ in range(5):
            sketch.offer("x")
        sketch.offer("y", weight=3.0)
        top = dict((k, (c, e)) for k, c, e in sketch.top())
        assert top["x"] == (5.0, 0.0)
        assert top["y"] == (3.0, 0.0)
        assert sketch.total == 8.0

    def test_heavy_hitter_guaranteed(self):
        # "hot" has true share 0.5 > 1/capacity, interleaved with 40
        # one-off keys that force evictions: it must stay monitored, its
        # estimate must never undercount, and count - error is a lower
        # bound that cannot exceed the true frequency.
        sketch = SpaceSaving(capacity=4)
        for i in range(40):
            sketch.offer("hot")
            sketch.offer(f"cold-{i}")
        assert "hot" in sketch.counts
        count, error = sketch.counts["hot"], sketch.errors["hot"]
        assert count >= 40
        assert count - error <= 40

    def test_top_is_sorted_and_limited(self):
        sketch = SpaceSaving(capacity=8)
        for key, n in (("a", 3), ("b", 9), ("c", 6)):
            sketch.offer(key, weight=n)
        top = sketch.top(2)
        assert [k for k, _, _ in top] == ["b", "c"]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SpaceSaving(capacity=0)

    def test_victim_is_the_first_minimum_in_insertion_order(self):
        sketch = SpaceSaving(capacity=4)
        for key, n in (("a", 2), ("b", 1), ("c", 3), ("d", 1)):
            sketch.offer(key, weight=n)
        sketch.offer("e")  # "b" and "d" tie at 1: "b" came first
        assert list(sketch.counts) == ["a", "c", "d", "e"]
        assert (sketch.counts["e"], sketch.errors["e"]) == (2.0, 1.0)
        sketch.offer("f")  # now "d" (1) is the only minimum
        assert list(sketch.counts) == ["a", "c", "e", "f"]
        assert (sketch.counts["f"], sketch.errors["f"]) == (2.0, 1.0)

    def test_eviction_makes_no_python_call_per_counter(self):
        sketch = SpaceSaving(capacity=64)
        for i in range(64):
            sketch.offer(i)
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        # a collection inside ``offer`` runs finalizers on this thread, and
        # the hook would count their calls as ``offer``'s own
        gc.collect()
        gc.disable()
        sys.setprofile(profile)
        try:
            sketch.offer("new")
        finally:
            sys.setprofile(None)
            gc.enable()
        assert calls == ["offer"]


# ---------------------------------------------------------------------------
# SLO tracking
# ---------------------------------------------------------------------------


class TestSLOTracker:
    def test_no_burn_when_fast(self):
        tracker = SLOTracker()
        for _ in range(200):
            tracker.record("standard", 0.0001, 1.0)
        slo = tracker.routes["standard"]
        assert slo.breaches == 0.0
        assert slo.burn_rate == 0.0
        assert tracker.alerts_total == 0

    def test_no_alert_before_min_statements(self):
        tracker = SLOTracker()
        for _ in range(int(tracker.min_statements) - 1):
            tracker.record("standard", 1.0, 1.0)  # every statement breaches
        assert tracker.alerts_total == 0

    def test_alert_is_edge_triggered(self):
        tracker = SLOTracker([SLObjective("std", 0.01, 0.5)])
        tracker.min_statements = 10.0
        for _ in range(20):
            tracker.record("std", 1.0, 1.0)  # burning hard
        assert tracker.alerts_total == 1  # one crossing, not 10 alerts
        alert = tracker.alerts[-1]
        assert alert["route_type"] == "std"
        assert alert["burn_rate"] > 1.0
        # recover: enough fast statements to drop burn under 1...
        for _ in range(40):
            tracker.record("std", 0.0001, 1.0)
        assert tracker.routes["std"].burn_rate <= 1.0
        # ...then a fresh burn raises a second alert
        for _ in range(120):
            tracker.record("std", 1.0, 1.0)
        assert tracker.alerts_total == 2

    def test_unknown_route_uses_wildcard(self):
        tracker = SLOTracker()
        tracker.record("exotic", 0.001, 1.0)
        assert tracker.routes["exotic"].objective.route_type == "*"

    def test_clear(self):
        tracker = SLOTracker()
        tracker.record("standard", 1.0, 200.0)
        tracker.clear()
        assert tracker.routes == {}
        assert tracker.alerts_total == 0


# ---------------------------------------------------------------------------
# End-to-end: engine traffic -> DistSQL surfaces
# ---------------------------------------------------------------------------


class TestWorkloadEndToEnd:
    def test_statement_digests(self, configured):
        drive_traffic(configured)
        result = execute_distsql("SHOW STATEMENT DIGESTS", configured)
        assert result.columns[0] == "digest"
        by_sql = {row[-1]: row for row in result.rows}
        select_shape = "SELECT v FROM t_user WHERE uid = ?"
        assert select_shape in by_sql
        digest, calls, errors, rows, *_ = by_sql[select_shape]
        assert calls == 20  # 12 hot + 8 spread, warmup weight 1
        assert errors == 0
        assert rows == 20  # one row per point select, counted via the sink
        insert_shape = "INSERT INTO t_user (uid, v) VALUES (?)"
        assert insert_shape in by_sql
        assert by_sql[insert_shape][1] == 8

    def test_digest_errors_recorded(self, configured):
        with pytest.raises(Exception):
            configured.engine.execute("SELECT v FROM no_such_table WHERE uid = 1")
        report = configured.observability.workload.digest_report()
        bad = [d for d in report if "no_such_table" in d["sql"]]
        assert bad and bad[0]["errors"] == 1

    def test_shard_heat_and_imbalance(self, configured):
        drive_traffic(configured)
        result = execute_distsql("SHOW SHARD HEAT", configured)
        nodes = [row for row in result.rows if row[0] == "t_user"]
        assert len(nodes) == 2  # hash_mod 2 -> one node per source
        total_reads = sum(row[3] for row in nodes)
        assert total_reads == 20
        # the hot shard (uid=7's node) dominates, so imbalance > 1
        assert nodes[0][3] > nodes[1][3]
        assert nodes[0][-1] > 1.0

    def test_hot_keys_surface_the_skew(self, configured):
        drive_traffic(configured, hot_uid=7, hot_count=12)
        result = execute_distsql("SHOW HOT KEYS FOR t_user", configured)
        assert result.rows, "zipf-style skew produced no hot keys"
        top = result.rows[0]
        assert top[2] == 7  # hottest key is the injected one
        assert top[3] >= 13  # 12 reads + 1 insert, never undercounted
        unfiltered = execute_distsql("SHOW HOT KEYS", configured)
        assert len(unfiltered.rows) >= len(result.rows)

    def test_slo_views(self, configured):
        drive_traffic(configured)
        result = execute_distsql("SHOW SLO", configured)
        by_route = {row[0]: row for row in result.rows}
        assert "standard" in by_route
        assert by_route["standard"][3] > 0  # weighted statements
        alerts = execute_distsql("SHOW SLO ALERTS", configured)
        assert "seq" in alerts.columns or alerts.columns  # view renders

    def test_reset_workload(self, configured):
        drive_traffic(configured)
        execute_distsql("RESET WORKLOAD", configured)
        assert execute_distsql("SHOW STATEMENT DIGESTS", configured).rows == []
        assert execute_distsql("SHOW SHARD HEAT", configured).rows == []
        assert execute_distsql("SHOW HOT KEYS", configured).rows == []

    def test_workload_analytics_toggle(self, configured):
        execute_distsql("SET VARIABLE workload_analytics = off", configured)
        execute_distsql("RESET WORKLOAD", configured)  # drop the fixture's DDL
        drive_traffic(configured)
        result = execute_distsql("SHOW STATEMENT DIGESTS", configured)
        assert result.rows == []
        assert "OFF" in result.message
        execute_distsql("SET VARIABLE workload_analytics = on", configured)
        configured.engine.execute("SELECT v FROM t_user WHERE uid = 1").fetchall()
        assert execute_distsql("SHOW STATEMENT DIGESTS", configured).rows

    def test_show_shard_heat_hint(self, configured):
        with pytest.raises(DistSQLError, match="SHOW SHARD HEAT"):
            execute_distsql("SHOW SHARDING HEAT", configured)


class TestSlowLogDigests:
    def test_entries_carry_digest_and_group(self, configured):
        configured.observability.slow_log.threshold = 0.0  # record everything
        execute_distsql("SET VARIABLE tracing = on", configured)
        configured.engine.execute("SELECT v FROM t_user WHERE uid = 3").fetchall()
        configured.engine.execute("SELECT v FROM t_user WHERE uid = 4").fetchall()
        entries = configured.observability.slow_log.entries()
        assert entries and all(e.digest for e in entries)
        result = execute_distsql("SHOW SLOW QUERIES GROUP BY DIGEST", configured)
        assert result.columns[0] == "digest"
        select_digest, _ = digest_of("SELECT v FROM t_user WHERE uid = ?")
        grouped = {row[0]: row for row in result.rows}
        assert select_digest in grouped
        assert grouped[select_digest][1] == 2  # both literals, one digest

    def test_digest_blank_when_analytics_off(self, configured):
        configured.observability.slow_log.threshold = 0.0
        execute_distsql("SET VARIABLE workload_analytics = off", configured)
        execute_distsql("SET VARIABLE tracing = on", configured)
        configured.engine.execute("SELECT v FROM t_user WHERE uid = 3").fetchall()
        entries = configured.observability.slow_log.entries()
        assert entries and entries[0].digest == ""


# ---------------------------------------------------------------------------
# Idempotent teardown (double UNREGISTER must not raise)
# ---------------------------------------------------------------------------


class TestIdempotentTeardown:
    def test_double_unregister_is_idempotent(self, runtime):
        execute_distsql("REGISTER RESOURCE ds_x", runtime)
        first = execute_distsql("UNREGISTER RESOURCE ds_x", runtime)
        assert "unregistered 1 resource" in first.message
        second = execute_distsql("UNREGISTER RESOURCE ds_x", runtime)
        assert "skipped ds_x" in second.message

    def test_unregister_mixed_known_and_unknown(self, runtime):
        execute_distsql("REGISTER RESOURCE ds_x", runtime)
        result = execute_distsql("UNREGISTER RESOURCE ds_x, ds_ghost", runtime)
        assert "unregistered 1 resource" in result.message
        assert "ds_ghost" in result.message
        assert "ds_x" not in runtime.data_sources

    def test_unregister_in_use_still_raises(self, configured):
        with pytest.raises(DistSQLError, match="referenced by sharding rules"):
            execute_distsql("UNREGISTER RESOURCE ds0", configured)

    def test_runtime_unregister_unknown_is_noop(self, runtime):
        runtime.unregister_resource("never_registered")
        runtime.unregister_resource("never_registered")

    def test_unwatch_pool_is_idempotent(self, runtime):
        runtime.observability.unwatch_pool("ghost")
        runtime.observability.unwatch_pool("ghost")


# ---------------------------------------------------------------------------
# Prometheus exposition conformance
# ---------------------------------------------------------------------------


class TestPrometheusConformance:
    def _bucket_counts(self, text, name):
        pattern = re.compile(rf'{name}_bucket{{le="([^"]+)"}} (\d+)')
        return [(le, int(count)) for le, count in pattern.findall(text)]

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_seconds", "help", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.005, 0.05, 5.0):
            hist.observe(value)
        text = registry.render_prometheus()
        buckets = self._bucket_counts(text, "t_seconds")
        assert [le for le, _ in buckets] == ["0.001", "0.01", "0.1", "+Inf"]
        counts = [count for _, count in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert counts == [1, 3, 4, 5]

    def test_inf_bucket_equals_count_and_sum_matches(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_seconds", "help", buckets=(0.001, 0.1))
        values = (0.0002, 0.05, 7.5)
        for value in values:
            hist.observe(value)
        text = registry.render_prometheus()
        inf = self._bucket_counts(text, "t_seconds")[-1]
        assert inf[0] == "+Inf"
        count = int(re.search(r"t_seconds_count (\d+)", text).group(1))
        assert inf[1] == count == len(values)
        total = float(re.search(r"t_seconds_sum (\S+)", text).group(1))
        assert total == pytest.approx(sum(values))

    def test_labeled_histogram_children_render_separately(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "t_seconds", "help", labelnames=("stage",), buckets=(0.01,)
        )
        hist.observe(0.001, stage="parse")
        hist.observe(0.001, stage="route")
        text = registry.render_prometheus()
        assert 't_seconds_bucket{stage="parse",le="0.01"} 1' in text
        assert 't_seconds_bucket{stage="route",le="0.01"} 1' in text

    @pytest.mark.parametrize(
        "raw, escaped",
        [
            ('plain', 'plain'),
            ('quo"te', 'quo\\"te'),
            ('back\\slash', 'back\\\\slash'),
            ('new\nline', 'new\\nline'),
            ('all\\"\n', 'all\\\\\\"\\n'),
        ],
    )
    def test_label_value_escaping(self, raw, escaped):
        assert _escape_label_value(raw) == escaped

    def test_escaped_labels_in_rendered_output(self):
        registry = MetricsRegistry()
        counter = registry.counter("esc_total", "help", labelnames=("path",))
        counter.inc(path='a"b\\c\nd')
        text = registry.render_prometheus()
        assert 'esc_total{path="a\\"b\\\\c\\nd"} 1' in text

    def test_workload_families_exported(self, configured):
        drive_traffic(configured)
        text = configured.observability.registry.render_prometheus()
        assert "# TYPE workload_digests gauge" in text
        assert re.search(r'workload_shard_reads_total{[^}]*table="t_user"', text)
        assert re.search(r'workload_table_imbalance_ratio{table="t_user"}', text)
        assert re.search(r'workload_slo_statements_total{route_type="standard"}', text)
        assert re.search(r'workload_hot_key_count{[^}]*key="7"', text)
