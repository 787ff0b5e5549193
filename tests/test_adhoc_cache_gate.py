"""Machine-independent gate: never-repeated literal SQL hits every cache.

The benchmark's ``adhoc_fanout`` workload claims a throughput gain that
only ten pairs of 28-second runs can resolve; the counts behind it repeat
exactly on any machine. 300 literal statements, no two alike, in
``adhoc_fanout``'s three shapes plus ``proxy_mixed``'s shard-local range
shape run on a 4 x 4 grid with latency off, half through ``execute`` and
half through ``execute_pipeline``. A warm-up of two statements per shape
comes first (the first is parsed, planned and run from plans compiled for
the occasion; the second builds each node's template and stores its
storage plan): after it nothing is parsed, planned, routed, rewritten or
compiled again.
"""

import random

from repro.baselines import make_grid_sharding, make_sources
from repro.engine import PlanCache, SQLEngine

ROWS = 1600
SHAPES = {
    "point": "SELECT id, c FROM sbtest WHERE k = {0}",
    "ordered": "SELECT id, k FROM sbtest WHERE k BETWEEN {0} AND {1} ORDER BY k, id LIMIT 10",
    "aggregate": "SELECT COUNT(*), SUM(k) FROM sbtest WHERE k BETWEEN {0} AND {1}",
    "range": "SELECT id, k FROM sbtest WHERE id BETWEEN {0} AND {1}",
}
SPANS = {"point": 0, "ordered": 19, "aggregate": 199, "range": 9}
WARM_UP = 2 * len(SHAPES)
STATEMENTS = 300
BATCH = 5  # statements per execute_pipeline call


def k_of(row_id):
    return row_id * 7919 % 997 + 1


def build():
    sources = make_sources([f"ds{i}" for i in range(4)])
    rule = make_grid_sharding([("sbtest", "id")], list(sources), 4, layout="range", key_space=ROWS)
    engine = SQLEngine(sources, rule, max_connections_per_query=1)
    engine.execute("CREATE TABLE sbtest (id INT PRIMARY KEY, k INT, c VARCHAR(32))")
    rows = ", ".join(f"({i}, {k_of(i)}, 'c{i}')" for i in range(1, ROWS + 1))
    engine.execute(f"INSERT INTO sbtest (id, k, c) VALUES {rows}")
    engine.execute("CREATE INDEX idx_k ON sbtest (k)")
    return engine


def requests(seed=7):
    """Warm-up + 300 (kind, low, high, sql), every text different."""
    total = WARM_UP + STATEMENTS
    rng = random.Random(seed)
    lows = {kind: rng.sample(range(1, (ROWS if kind == "range" else 997) - span), total // 4)
            for kind, span in SPANS.items()}
    out = []
    for i in range(total):
        kind = list(SHAPES)[i % 4]
        low = lows[kind][i // 4]
        high = low + SPANS[kind]
        out.append((kind, low, high, SHAPES[kind].format(low, high)))
    assert len({sql for *_, sql in out}) == total
    return out


def expected(kind, low, high):
    if kind == "range":
        return [(i, k_of(i)) for i in range(low, high + 1)]
    matches = sorted((k_of(i), i) for i in range(1, ROWS + 1) if low <= k_of(i) <= high)
    if kind == "point":
        return sorted((i, f"c{i}") for _k, i in matches)
    if kind == "ordered":
        return [(i, k) for k, i in matches[:10]]
    return [(len(matches), sum(k for k, _i in matches) if matches else None)]


def storage_stats(engine):
    totals = {"hits": 0, "misses": 0, "bypasses": 0}
    for source in engine.data_sources.values():
        stats = source.database.plan_cache.stats()
        for name in totals:
            totals[name] += stats[name]
    return totals


def run(engine, work):
    """Alternate chunks between the two entry points; check every reply."""
    for position in range(0, len(work), BATCH):
        chunk = work[position:position + BATCH]
        if (position // BATCH) % 2:
            results = engine.execute_pipeline([(sql, ()) for *_, sql in chunk])
        else:
            results = [engine.execute(sql) for *_, sql in chunk]
        for (kind, low, high, sql), result in zip(chunk, results):
            rows = result.fetchall()
            assert (sorted(rows) if kind == "point" else rows) == expected(kind, low, high), sql
            assert kind == "range" or result.unit_count == 16


def test_never_repeated_literal_sql_hits_every_cache(pipeline_calls):
    engine = build()
    try:
        engine.plan_cache = plans = PlanCache()
        engine._parse_cache.clear()
        parses = pipeline_calls("parse")
        scans = pipeline_calls("normalize")
        work = requests()
        shapes = len(SHAPES)

        run(engine, work[:WARM_UP])
        assert len(parses) <= shapes
        assert (plans.misses, plans.bypasses, plans.hits) == (shapes, 0, WARM_UP - shapes)
        warm = storage_stats(engine)
        del parses[:], scans[:]

        run(engine, work[WARM_UP:])
        assert parses == [] and len(scans) == STATEMENTS  # one scan each, nothing parsed
        assert (plans.misses, plans.bypasses, plans.hits) == (shapes, 0, WARM_UP + STATEMENTS - shapes)
        assert len(plans) <= shapes and len(engine._parse_cache) <= shapes
        assert {row[3] for row in plans.snapshot_rows()} == {"cached"}
        after = storage_stats(engine)
        assert after["bypasses"] == warm["bypasses"]  # only DDL bypasses the plans: none here
        executed = sum(after.values()) - sum(warm.values())
        assert executed >= STATEMENTS * 3 // 4 * 16
        assert (after["hits"] - warm["hits"]) / executed >= 0.98
        # what is left to compile: the range shape on nodes it had not reached
        assert after["misses"] - warm["misses"] <= 16

        # a prepared text is found by the raw-text probe: nothing new on its path
        point = "SELECT c FROM sbtest WHERE id = ?"
        assert engine.execute(point, (1,)).fetchall() == [("c1",)]
        del scans[:], parses[:]
        hits = plans.hits
        for row_id in range(2, 52):
            assert engine.execute(point, (row_id,)).fetchall() == [(f"c{row_id}",)]
        engine.execute_pipeline([(point, (row_id,)) for row_id in range(2, 12)])
        assert scans == [] and parses == [] and plans.hits == hits + 60
    finally:
        engine.close()
