"""Guard for the benchmark's view of the program's own counters.

``benchmarks/perf`` builds its system through ``ShardingRuntime`` and sets
every runtime variable in its ``config.VARIABLES``; its layer metrics are
differences of ``run.counters(system)`` (the plan caches' ``stats()``
keys, the executor's metrics, the proxy's stats). A stricter variable
parser or a renamed stats key would not fail anything until a ten-minute
benchmark run; this test fails in a second instead. It loads the harness's
modules the way ``test_perf_tracing_contract.py`` loads ``tracing.py``,
and changes nothing under ``benchmarks/perf``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"


@pytest.fixture
def load(monkeypatch):
    """Load a harness module by file; its own ``import config`` etc. resolve
    to the harness's files, and every harness module is unloaded after."""
    monkeypatch.syspath_prepend(str(PERF))
    stems = [path.stem for path in PERF.glob("*.py")]
    for stem in stems:  # a same-named module from elsewhere must not answer
        monkeypatch.delitem(sys.modules, stem, raising=False)

    def load_module(stem: str):
        spec = importlib.util.spec_from_file_location(f"perf_{stem}_under_test",
                                                      PERF / f"{stem}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    yield load_module
    for stem in stems:
        sys.modules.pop(stem, None)


def test_counters_hold_every_key_the_layer_metrics_difference(load):
    system_module, run, metrics = load("system"), load("run"), load("metrics")
    system = system_module.System(False)  # sets every config.VARIABLES entry
    try:
        counters = run.counters(system)
        empty_pass = {"ops": 1, "calls": {}, "values": {}, "raw_seconds": {},
                      "seconds": {}, "rows_in": 0, "op_seconds": 1.0}
        layer = metrics.from_trace(empty_pass, counters, counters)
    finally:
        system.close()
    assert layer["engine.plan.hit_rate"] == 0.0
    assert layer["storage.plans.hit_rate"] == 0.0
    for key in ("hits", "misses", "bypasses"):
        assert key in counters["plan"] and key in counters["storage_plans"]
