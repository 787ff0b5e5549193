"""Guard for the benchmark's per-layer attribution (``benchmarks/perf``).

The harness records spans from *outside* the program by replacing the
stage functions as bound in ``repro.engine.pipeline``'s module globals and
wrapping ``ExecutionEngine.execute(units, ...)`` /
``execute_pipeline(ds_name, statements, ...)`` by position
(``benchmarks/perf/tracing.py``). A refactor that moves a stage call out
of those globals, or reshapes those signatures, would not fail anything —
it would silently zero per-layer metrics in a ten-minute benchmark run.
This test fails in a second instead. It reads ``benchmarks/perf`` and
changes nothing there.
"""

import importlib.util
from pathlib import Path

from repro.adaptors import ShardingDataSource, ShardingRuntime

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "tracing.py"

STAGE_LAYERS = {
    "sql.parse", "engine.plan", "engine.context", "engine.router",
    "engine.rewriter", "engine.executor", "engine.merger",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perf_tracing_under_test", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_harness_sees_every_stage_of_a_statement(fleet, paper_rule):
    tracing = load_tracing()
    runtime = ShardingRuntime(fleet, paper_rule, max_connections_per_query=2)
    conn = ShardingDataSource(runtime).get_connection()
    conn.execute(
        "INSERT INTO t_user (uid, name, age) VALUES "
        "(1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35), (4, 'dave', 28)"
    )
    point = conn.prepare("SELECT name FROM t_user WHERE uid = ?")
    assert point.execute((3,)).fetchall() == [("carol",)]  # compiles the plan, unrecorded

    recorder = tracing.Recorder()
    recorder.install()
    try:
        recorder.begin_op()  # cold literal fan-out: every stage runs
        fanout = conn.execute("SELECT uid FROM t_user WHERE age > 26 ORDER BY uid")
        fanout_rows = fanout.fetchall()
        recorder.end_op()
        recorder.begin_op()  # prepared point select: plan hit
        hot = point.execute((3,))
        hot_rows = hot.fetchall()
        recorder.end_op()
    finally:
        recorder.uninstall()
        conn.close()
        runtime.close()

    assert fanout_rows == [(1,), (3,), (4,)] and hot_rows == [("carol",)]
    assert tracing.check_tree(recorder.spans) == []
    ops = sorted({span[tracing.OP] for span in recorder.spans})
    assert len(ops) == 2
    for op, statement in zip(ops, (fanout, hot)):
        spans = [span for span in recorder.spans if span[tracing.OP] == op]
        layers = {span[tracing.LAYER] for span in spans}
        executed = [span[tracing.VALUE] for span in spans
                    if span[tracing.LAYER] == "engine.executor"]
        assert executed == [statement.diagnostics.unit_count]
        assert {"engine.pipeline", "engine.executor", "engine.merger"} <= layers
        if statement is fanout:
            assert statement.diagnostics.unit_count == 2
            assert STAGE_LAYERS <= layers
        else:
            assert not layers & {"sql.parse", "engine.plan", "engine.router"}
    assert recorder.merge_rows_in == len(fanout_rows) + len(hot_rows)
