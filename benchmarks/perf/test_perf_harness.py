"""Self-test of the benchmark harness. Run by hand (about ten minutes):

    python3 -m pytest -q benchmarks/perf/test_perf_harness.py

Tier-1 collects only ``tests/``; this file checks the harness, not the
program: names and units against BENCHMARK.json, failure accounting, that
the trace adds up and forms trees, and that the counts marked exact repeat.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import config  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
from driver import run_phase  # noqa: E402
from run import set_up, tear_down  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_cache: dict[tuple, tuple[dict, str]] = {}


def invoke(*arguments: str, repeat: int = 0) -> tuple[dict, str]:
    """One invocation of the benchmark command: (result line, all output).
    Cached per (arguments, repeat), so tests share runs."""
    if (arguments, repeat) not in _cache:
        done = subprocess.run([*BENCHMARK["command"], *arguments], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=180)
        assert done.returncode == 0, done.stdout[-2000:]
        _cache[arguments, repeat] = json.loads(done.stdout.splitlines()[-1]), done.stdout
    return _cache[arguments, repeat]


def one_pass(workload: str, flag: str, seed: int = 1, repeat: int = 0) -> dict:
    return invoke("--workload", workload, "--seed", str(seed), flag, repeat=repeat)[0]["metrics"]


WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def test_benchmark_json_repeats_the_tables():
    assert tuple(WORKLOADS) == config.WORKLOADS
    for section, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[section]}
        assert declared == table
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert BENCHMARK["run_seconds"] == config.RUN_SECONDS
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    names = WORKLOADS + list(metrics.END_TO_END) + list(metrics.PER_LAYER)
    assert all(NAME.fullmatch(name) for name in names)
    assert not any("p99" in name for name in names)


def test_bounds_are_those_of_the_calibration_record():
    record = (HERE / "CALIBRATION.md").read_text()
    printed = json.loads(re.search(r"^Bounds for BENCHMARK.json: `(.*)`$", record, re.M).group(1))
    assert {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]} == printed
    assert f"{config.ROUNDS} rounds x {config.RUN_SECONDS / config.ROUNDS:g} s each" in record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        result, output = invoke("--workload", workload, "--seed", "1", "--seconds", "5",
                                "--trace", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
        assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[section]]
        for metric in BENCHMARK[section]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
                             output, re.M), metric["name"]
        if trace == "0":
            assert all(entry["value"] > 0 for entry in result["metrics"].values())
            assert workload in output and "per round" in output


def test_a_wrong_expected_answer_is_a_failed_op():
    data, clients, system, _ = set_up("point_hot", 1, 1)
    try:
        good = run_phase(clients, ops=20)[0]
        data.c[1:] = ["not what was loaded"] * data.rows
        bad = run_phase(clients, ops=20)[0]
    finally:
        tear_down(system, clients)
    assert (good.attempted, good.failed, len(good.latencies)) == (20, 0, 20)
    assert (bad.attempted, bad.failed, len(bad.latencies)) == (20, 20, 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_add_up_and_spans_form_trees(workload):
    layer = one_pass(workload, "--traced")
    trace = json.loads((HERE / "out" / f"trace-{workload}.json").read_text())
    assert trace["seed"] == 1  # the pass above wrote it; later passes overwrite it
    spans = [tuple(span) for span in trace["spans"]]
    assert tracing.check_tree(spans) == []
    seconds, op_seconds = tracing.attribute(spans)
    residual = seconds.pop(tracing.ROOT, 0.0)
    assert set(seconds) <= set(tracing.LAYERS)
    assert sum(seconds.values()) + residual == pytest.approx(op_seconds, rel=0.02)
    assert residual / op_seconds == pytest.approx(layer["trace.residual_share"]["value"])
    assert "trace.overhead_share" in layer
    if workload == "point_hot":
        assert layer["engine.plan.hit_rate"]["value"] == 1
        assert layer["sql.parse.calls_per_op"]["value"] == 0
    if workload == "adhoc_fanout":
        assert layer["engine.plan.hit_rate"]["value"] < 0.05
        assert layer["engine.router.units_per_op"]["value"] == 16


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    record = {}
    for flag in ("--traced", "--counted"):
        first, second = one_pass(workload, flag), one_pass(workload, flag, repeat=1)
        other_seed = one_pass(workload, flag, seed=2)
        for name in first:
            if not metrics.is_exact(name):
                continue
            a, b = first[name]["value"], second[name]["value"]
            assert a == b, name
            record[name] = {"seed 1": a, "seed 1 again": b, "seed 2": other_seed[name]["value"]}
    (HERE / "out" / f"exact-{workload}.json").write_text(json.dumps(record, indent=1) + "\n")


def test_no_result_without_the_program(tmp_path):
    bare = tmp_path / "benchmarks" / "perf"
    bare.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (bare / source.name).write_bytes(source.read_bytes())
    done = subprocess.run([*BENCHMARK["command"], "--workload", "point_hot", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
