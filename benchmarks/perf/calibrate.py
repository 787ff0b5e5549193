"""``--calibrate``: how far do two sets of runs of the *same* code disagree?

Two sets (A, B) of ten plain runs per workload, alternating A/B run by run
and every run with another seed, exactly what a judge of a later change
does with parent and change. The record goes to CALIBRATION.md, and the
bounds in BENCHMARK.json are the ones it prints (the self-test compares):

    bound = max(floor,
                2 x the largest between-set median gap on any workload,
                2 x the largest (q3 - q1) / median of any set)

rounded up to 0.01. The first two terms are ISSUE 14's. The third is the
acceptance test of the contract this benchmark was written to: its driver
runs ten seeds per workload, twice, and refuses the benchmark if the
quartile spread of a metric on any workload exceeds the metric's bound
(PR 13 went that way); 2 x leaves room for ten runs drawn in a busier hour.
The same contract allows no bound above 0.25, so a metric the rule puts
above that keeps 0.25; the record shows both numbers. It also lists, per
workload, whether a metric's spread is below a third of its bound (the
contract's aim). Where it is not, the metric is *unresolved* on that
workload: the bound alone does not settle a change, which is then judged
by alternating pairs (choosing-metrics, sections 6.5 and 8). A metric whose
median gap alone would need more than 0.30 is not kept.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import config
import metrics

HERE = Path(__file__).resolve().parent

#: the smallest bound a metric gets, whatever the calibration shows
FLOORS = {"setup_s": 0.25, "ops_per_s": 0.10, "p50_ms": 0.10, "p95_ms": 0.20,
          "peak_rss_mb": 0.05}
KEEP_BELOW = 0.30
CONTRACT_MAXIMUM = 0.25
#: per set and workload. The issue asks for at least 5; ten is what the
#: contract's driver runs and what its quartiles are taken over.
RUNS_PER_SET = 10


def fingerprint() -> list[str]:
    cpu = memory = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        memory = Path("/proc/meminfo").read_text().splitlines()[0].split(":", 1)[1].strip()
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return [
        f"- date: {datetime.datetime.now(datetime.timezone.utc):%Y-%m-%d %H:%M} UTC",
        f"- commit: {commit} (plus the working tree of this change)",
        f"- platform: {platform.platform()}",
        f"- python: {platform.python_version()} ({platform.python_implementation()})",
        f"- cpus: {os.cpu_count()} x {cpu}",
        f"- memory: {memory}",
    ]


def one_run(name: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(config.RUN_SECONDS), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=175)
    result = json.loads(done.stdout.splitlines()[-1])
    row = {key: entry["value"] for key, entry in result["metrics"].items()}
    row["failed"] = result["failed"]
    kernel = re.search(r"host\.kernel_ms (\S+)", done.stdout)
    row["host.kernel_ms"] = float(kernel.group(1)) if kernel else float("nan")
    return row


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worsening(name: str, first: float, second: float) -> float:
    """By what share of ``first`` the second median is worse (negative: better)."""
    change = (second - first) / first
    return -change if metrics.END_TO_END[name][1] == "higher" else change


def calibrate() -> int:
    runs, names = RUNS_PER_SET, list(metrics.END_TO_END)
    table: dict[tuple[str, str], list[dict]] = {}
    for i in range(runs):
        for workload in config.WORKLOADS:
            for label, seed in (("A", i + 1), ("B", runs + i + 1)):
                row = one_run(workload, seed)
                row["seed"] = seed
                table.setdefault((workload, label), []).append(row)
                print(f"{workload} {label} seed {seed}: "
                      + " ".join(f"{key}={row[key]:.5g}" for key in names), flush=True)

    out = ["# Calibration record", "",
           "Written by `python3 benchmarks/perf/run.py --calibrate`; do not edit by hand.",
           "Two sets (A, B) of runs of the same code, alternating run by run, every run",
           f"with another seed; {runs} runs per set and workload, {config.ROUNDS} rounds x "
           f"{config.RUN_SECONDS / config.ROUNDS:g} s each.", "", *fingerprint(), ""]

    #: per metric: the largest gap / spread and where; per (workload, metric): its spread
    gaps: dict[str, tuple[float, str]] = {}
    spreads: dict[str, tuple[float, str]] = {}
    spread_of: dict[tuple[str, str], float] = {}
    per_workload: list[str] = []
    for workload in config.WORKLOADS:
        per_workload += [f"### {workload}", "",
                         "| metric | A q1 | A median | A q3 | A (q3-q1)/median "
                         "| B q1 | B median | B q3 | B (q3-q1)/median | B worse than A by |",
                         "|---|---|---|---|---|---|---|---|---|---|"]
        for name in names:
            cells, medians = [], []
            for label in "AB":
                q1, median, q3 = quartiles([row[name] for row in table[workload, label]])
                spread = (q3 - q1) / median
                spread_of[workload, name] = max(spread, spread_of.get((workload, name), 0.0))
                if spread > spreads.get(name, (0, ""))[0]:
                    spreads[name] = (spread, workload)
                medians.append(median)
                cells += [f"{q1:.5g}", f"{median:.5g}", f"{q3:.5g}", f"{spread:.1%}"]
            gap = worsening(name, *medians)
            if abs(gap) > gaps.get(name, (0, ""))[0]:
                gaps[name] = (abs(gap), workload)
            per_workload.append(f"| `{name}` | " + " | ".join(cells) + f" | {gap:+.1%} |")
        per_workload.append("")

    out += ["## Bounds", "",
            "bound = max(floor, 2 x largest gap, 2 x largest spread), rounded up to 0.01; "
            f"the contract's maximum is {CONTRACT_MAXIMUM}.", "",
            "| metric | floor | largest gap between set medians | 2 x gap "
            "| largest (q3-q1)/median of a set | 2 x spread | the rule gives | bound | kept |",
            "|---|---|---|---|---|---|---|---|---|"]
    bounds = {}
    for name in names:
        gap, gap_at = gaps.get(name, (0.0, "-"))
        spread, spread_at = spreads.get(name, (0.0, "-"))
        needed = math.ceil(round(max(FLOORS[name], 2 * gap, 2 * spread) * 100, 6)) / 100
        bounds[name] = min(needed, CONTRACT_MAXIMUM)
        kept = "yes" if 2 * gap <= KEEP_BELOW else "no: replace or drop it"
        out.append(f"| `{name}` | {FLOORS[name]:.2f} | {gap:.1%} ({gap_at}) | {2 * gap:.1%} "
                   f"| {spread:.1%} ({spread_at}) | {2 * spread:.1%} | {needed:.2f} "
                   f"| {bounds[name]:.2f} | {kept} |")
    out += ["", "Bounds for BENCHMARK.json: `" + json.dumps(bounds) + "`", "",
            "## What each bound resolves", "",
            "The larger quartile spread of the two sets, per workload, against the "
            "metric's bound. **steady**: below a third of the bound, the contract's aim. "
            "**unresolved**: wider than that; the bound alone does not settle a change "
            "there, and it is judged by ten alternating pairs (choosing-metrics, "
            "sections 6.5 and 8).", "",
            "| workload | " + " | ".join(f"`{name}`" for name in names) + " |",
            "|---|" + "---|" * len(names)]
    for workload in config.WORKLOADS:
        cells = []
        for name in names:
            spread = spread_of[workload, name]
            word = "steady" if spread < bounds[name] / 3 else "unresolved"
            cells.append(f"{spread:.1%} {word}")
        out.append(f"| {workload} | " + " | ".join(cells) + " |")

    kernel = [row["host.kernel_ms"] for rows in table.values() for row in rows]
    out += ["", f"`host.kernel_ms` over all {len(kernel)} runs: median "
            f"{statistics.median(kernel):.2f}, min {min(kernel):.2f}, max {max(kernel):.2f} "
            "(the median is `HOST_KERNEL_CALIBRATION_MS` in config.py).", "",
            "## Sets, per workload", "", *per_workload, "## Every run", "",
            "| workload | set | seed | " + " | ".join(names) + " | host.kernel_ms | failed |",
            "|---|---|---|" + "---|" * (len(names) + 2)]
    for (workload, label), rows in table.items():
        for row in rows:
            out.append(f"| {workload} | {label} | {row['seed']} | "
                       + " | ".join(f"{row[name]:.5g}" for name in names)
                       + f" | {row['host.kernel_ms']:.2f} | {row['failed']} |")
    (HERE / "CALIBRATION.md").write_text("\n".join(out) + "\n")
    print(f"wrote {HERE / 'CALIBRATION.md'}; bounds for BENCHMARK.json: {json.dumps(bounds)}")
    return 0
