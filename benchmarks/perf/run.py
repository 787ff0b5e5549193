#!/usr/bin/env python3
"""One command, one workload, one fresh process; every metric by name.

    python3 benchmarks/perf/run.py --workload point_hot --seed 1 --seconds 28 --trace 0
    python3 benchmarks/perf/run.py --workload point_hot --seed 1 --trace 1
    python3 benchmarks/perf/run.py --workload point_hot --seed 1 --traced | --counted
    python3 benchmarks/perf/run.py --all --seed 1
    python3 benchmarks/perf/run.py --calibrate

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"

import config  # noqa: E402  (no import of the program: that waits for main())


def emit(correct: bool, attempted: int, failed: int, values: dict[str, float],
         table: dict[str, tuple[str, str]]) -> int:
    """Print each metric by name with its unit, then the result line."""
    for name, value in values.items():
        print(f"  {name:<42} {value:>14.6g} {table[name][0]}")
    return result_line(correct, attempted, failed, values, table)


def result_line(correct: bool, attempted: int, failed: int, values: dict[str, float],
                table: dict[str, tuple[str, str]]) -> int:
    print(f"attempted {attempted}  failed {failed}  correct {correct}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": table[name][0]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


# -- building blocks shared by the three kinds of pass ---------------------------


def set_up(name: str, seed: int, clients: int):
    """(dataset, clients, system) and how long the program took to get there.

    ``setup_s`` is one cold set-up: importing the program, building the
    system, creating and loading the table, creating the index and opening
    the sessions, up to the first warm-up op. The generator's own work
    (the dataset, the request streams) is left out of it. The caller must
    not have imported anything of ``repro`` before.
    """
    from dataset import Dataset

    data = Dataset(seed)
    start = time.perf_counter()
    from system import System
    from workloads import make_clients
    seconds = time.perf_counter() - start

    clients = make_clients(name, data, seed, clients)
    start = time.perf_counter()
    system = System(with_proxy=clients[0].uses_proxy)
    system.load(data)
    for client in clients:
        client.connect(system)
    return data, clients, system, seconds + time.perf_counter() - start


def tear_down(system, clients) -> None:
    for client in clients:
        client.disconnect()
    system.close()


def counters(system) -> dict[str, dict]:
    """The program's own counters that layer metrics are differences of."""
    storage = {"hits": 0, "misses": 0, "bypasses": 0}
    for source in system.sources.values():
        stats = source.database.plan_cache.stats()
        for key in storage:
            storage[key] += stats[key]
    engine = system.runtime.engine
    proxy = system.server.stats() if system.server is not None else {}
    return {
        "plan": engine.plan_cache.stats(),
        "storage_plans": storage,
        "executor": engine.executor.metrics.snapshot(),
        "proxy": {key: proxy.get(key, 0) for key in ("requests", "backpressure_rejections")},
    }


def totals(phases) -> tuple[int, int, list[str]]:
    tallies = [tally for phase in phases for tally in phase]
    return (sum(t.attempted for t in tallies), sum(t.failed for t in tallies),
            [error for t in tallies for error in t.errors])


def finish(system, clients, phases) -> tuple[bool, int, int]:
    """Final checks, tear-down, and the failure accounting of the run."""
    final_ok = all([client.final_check() for client in clients])
    tear_down(system, clients)
    attempted, failed, errors = totals(phases)
    for error in errors[:5]:
        print(f"  failed op: {error}")
    if not final_ok:
        print("  final check failed: the table does not hold what the generator's model holds")
    return final_ok and failed == 0, attempted, failed


# -- the plain run: end-to-end metrics, nothing traced ------------------------------


def plain_run(name: str, seed: int, seconds: float, core) -> int:
    from driver import host_kernel_ms, round_values, run_phase

    if "repro" in sys.modules:  # setup_s would miss the program's import
        sys.exit("benchmarks/perf: the program was imported before its set-up was timed")
    data, clients, system, setup = set_up(name, seed, config.CLIENTS[name])
    import metrics  # only now: it imports tracing, which imports the program

    phases = [run_phase(clients, seconds=config.WARMUP_SECONDS)]
    per_op = clients[0].statements_per_op
    while totals(phases)[0] * per_op < config.WARMUP_MIN_STATEMENTS:
        phases.append(run_phase(clients, seconds=0.5))

    kernel, rounds = [host_kernel_ms()], []
    for _ in range(config.ROUNDS):
        phase = run_phase(clients, seconds=seconds / config.ROUNDS)
        phases.append(phase)
        rounds.append(round_values(phase))
        kernel.append(host_kernel_ms())
    correct, attempted, failed = finish(system, clients, phases)

    print(f"workload {name}  seed {seed}  clients {len(clients)}  "
          f"{config.ROUNDS} rounds x {seconds / config.ROUNDS:g} s  awake core: {core.note}")
    values = {"setup_s": setup}
    if all(rounds):
        for key in ("ops_per_s", "p50_ms", "p95_ms"):
            per_round = [r[key] for r in rounds]
            values[key] = statistics.median(per_round)
            low, _, high = statistics.quantiles(per_round, n=4)
            print(f"  {key} per round: " + " ".join(f"{v:.4g}" for v in per_round)
                  + f"   (q3-q1)/median {(high - low) / statistics.median(per_round):.1%}")
        print("  samples per round: " + " ".join(str(r["samples"]) for r in rounds))
    else:
        correct = False
        print("  a round verified no op: no timing metrics")
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    host = statistics.median(kernel)
    slow = host > config.HOST_KERNEL_CALIBRATION_MS * config.HOST_SLOW_FACTOR
    print(f"  host.kernel_ms {host:.2f} (calibration {config.HOST_KERNEL_CALIBRATION_MS:g})"
          + ("  host_slow" if slow else ""))
    return emit(correct, attempted, failed, values, metrics.END_TO_END)


# -- the traced pass: spans at every layer boundary, one client, fixed ops -----------


def traced_run(name: str, seed: int, core) -> int:
    import metrics
    from driver import host_kernel_ms, run_phase
    from tracing import LAYERS, ROOT, Recorder, check_tree, summarize

    data, clients, system, _ = set_up(name, seed, 1)
    ops = config.PASS_OPS[name]
    phases = [run_phase(clients, ops=config.PASS_WARMUP_OPS[name])]
    kernel = [host_kernel_ms()]

    cpu = time.process_time()
    untraced = run_phase(clients, ops=ops)
    cpu = time.process_time() - cpu
    kernel.append(host_kernel_ms())

    recorder = Recorder()
    recorder.install()
    before = counters(system)
    traced = run_phase(clients, ops=ops, recorder=recorder)
    after = counters(system)
    recorder.uninstall()
    kernel.append(host_kernel_ms())
    phases += [untraced, traced]
    correct, attempted, failed = finish(system, clients, phases)

    problems = check_tree(recorder.spans)
    for problem in problems[:5]:
        print(f"  trace: {problem}")
    summary = summarize(recorder.spans, recorder.merge_rows_in)
    values = metrics.from_trace(summary, before, after)
    values["process.cpu_ms_per_op"] = cpu * 1e3 / ops
    speed = [len(p[0].latencies) / p[0].elapsed for p in (untraced, traced)]
    values["trace.overhead_share"] = 1 - speed[1] / speed[0]
    values["host.kernel_ms"] = statistics.median(kernel)

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{name}.json", "w") as handle:
        json.dump({"workload": name, "seed": seed, "summary": summary,
                   "span_fields": ["id", "layer", "name", "start", "end", "parent", "op",
                                   "value_key", "value"],
                   "spans": recorder.spans}, handle)

    op_ms = summary["op_seconds"] * 1e3 / summary["ops"]
    print(f"workload {name}  seed {seed}  awake core: {core.note}  "
          f"traced pass: {summary['ops']} ops, "
          f"{len(recorder.spans)} spans, {op_ms:.4f} ms per op "
          f"({speed[1]:.1f} ops/s traced, {speed[0]:.1f} untraced)")
    print("  where an op's time goes (wall time, innermost open span):")
    for layer in [*LAYERS, ROOT]:
        share = summary["seconds"].get(layer, 0.0) / summary["op_seconds"]
        label = "(inside no span)" if layer == ROOT else layer
        print(f"    {label:<22} {share * op_ms:>9.4f} ms {share:>7.1%}")
    return emit(correct and not problems, attempted, failed, values, metrics.PER_LAYER)


# -- the counted pass: Python calls by package, nothing timed --------------------------


def counted_run(name: str, seed: int) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":  # set order must not move a count
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    import metrics
    from counting import CallCounter
    from driver import run_phase

    counter = CallCounter(SRC / "repro")
    counter.install()  # before the system is built: its threads inherit the hook
    data, clients, system, _ = set_up(name, seed, 1)
    ops = config.PASS_OPS[name]
    phases = [run_phase(clients, ops=config.PASS_WARMUP_OPS[name])]
    counter.start()
    phases.append(run_phase(clients, ops=ops))
    counter.stop()
    counter.uninstall()
    correct, attempted, failed = finish(system, clients, phases)
    print(f"workload {name}  seed {seed}  counted pass: {ops} ops")
    return emit(correct, attempted, failed,
                metrics.from_counts(counter.by_package(), ops), metrics.PER_LAYER)


# -- running passes as child processes ---------------------------------------------------


def child(*arguments: str) -> dict | None:
    """Run this script again in a fresh process; relay its output; parse its result."""
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *arguments],
                          stdout=subprocess.PIPE, text=True, timeout=175)
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]))
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def layers_run(name: str, seed: int) -> int:
    """``--trace 1``: the traced and the counted pass, merged."""
    import metrics

    results = [child("--workload", name, "--seed", str(seed), flag)
               for flag in ("--traced", "--counted")]
    if None in results:
        sys.exit("benchmarks/perf: a pass printed no result")
    values = {key: entry["value"] for result in results
              for key, entry in result["metrics"].items()}
    values = {key: values[key] for key in metrics.PER_LAYER}  # all of them, in table order
    return result_line(  # the two passes have printed each metric already
        all(r["correct"] for r in results), sum(r["attempted"] for r in results),
        sum(r["failed"] for r in results), values, metrics.PER_LAYER)


def all_run(seed: int, seconds: float) -> int:
    status = 0
    for name in config.WORKLOADS:
        for trace in ("0", "1"):
            result = child("--workload", name, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", trace)
            print(json.dumps(result))
            status |= not (result and result["correct"])
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=config.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config.RUN_SECONDS,
                        help="measured time of the plain run, split into 5 rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--traced", action="store_true", help="the traced pass alone")
    parser.add_argument("--counted", action="store_true", help="the counted pass alone")
    parser.add_argument("--all", action="store_true", help="every workload, both ways")
    parser.add_argument("--calibrate", action="store_true",
                        help="two alternating sets of runs; writes CALIBRATION.md")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmarks/perf: the program is not here ({SRC}/repro is missing)")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.calibrate:
        from calibrate import calibrate
        return calibrate()
    if args.all:
        return all_run(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    if args.counted:
        return counted_run(args.workload, args.seed)
    if args.trace and not args.traced:
        return layers_run(args.workload, args.seed)
    from driver import OneAwakeCore
    with OneAwakeCore() as core:
        if args.traced:
            return traced_run(args.workload, args.seed, core)
        return plain_run(args.workload, args.seed, args.seconds, core)


if __name__ == "__main__":
    sys.exit(main())
