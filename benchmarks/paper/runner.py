"""Benchmark measurement runner.

Drives concurrent sessions against a system under test and reports the
paper's metrics: TPS, average response time, and tail latencies (p99 for
Sysbench, p90 for TPC-C — the tools' default percentiles, as the paper
notes). Each worker thread owns one session, mirroring how sysbench and
BenchmarkSQL drive one connection per thread. ``sysbench_row`` and
``tpcc_row`` render a measurement as one row of the paper's tables.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import clock

from .base import Session, SystemUnderTest

TransactionFn = Callable[[Session, random.Random], None]


@dataclass
class Measurement:
    """Result of one benchmark run."""

    system: str
    scenario: str
    transactions: int = 0
    errors: int = 0
    elapsed: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)

    @property
    def tps(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.transactions / self.elapsed

    def percentile(self, q: float) -> float:
        """Latency percentile in ms (q in [0, 100])."""
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        index = min(len(ordered) - 1, max(0, int(round(q / 100 * (len(ordered) - 1)))))
        return ordered[index]

    @property
    def avg_ms(self) -> float:
        if not self.latencies_ms:
            return 0.0
        return sum(self.latencies_ms) / len(self.latencies_ms)

    @property
    def p90_ms(self) -> float:
        return self.percentile(90)

    @property
    def p99_ms(self) -> float:
        return self.percentile(99)


def sysbench_row(measurement: Measurement) -> list[Any]:
    """One Table III/IV row: System, TPS, 99T(ms), AvgT(ms)."""
    return [
        measurement.system,
        round(measurement.tps, 1),
        round(measurement.p99_ms, 2),
        round(measurement.avg_ms, 2),
    ]


def tpcc_row(measurement: Measurement) -> list[Any]:
    """One Fig. 9 row: System, TPS, 90T(ms)."""
    return [
        measurement.system,
        round(measurement.tps, 1),
        round(measurement.p90_ms, 2),
    ]


def run_benchmark(
    system: SystemUnderTest,
    transaction: TransactionFn,
    scenario: str = "default",
    threads: int = 4,
    duration: float = 2.0,
    warmup: float = 0.2,
    seed: int = 1234,
    max_errors: int = 50,
) -> Measurement:
    """Run ``transaction`` from ``threads`` concurrent sessions.

    ``warmup`` seconds of work are executed and discarded first, then each
    thread loops until the deadline, recording per-transaction latency.
    """
    measurement = Measurement(system=system.name, scenario=scenario)
    lock = threading.Lock()
    barrier = threading.Barrier(threads + 1)
    stop = threading.Event()
    first_error: list[BaseException] = []

    def worker(worker_id: int) -> None:
        rng = random.Random(seed + worker_id)
        session = system.session()
        local_latencies: list[float] = []
        local_count = 0
        local_errors = 0
        try:
            warmup_deadline = clock.now() + warmup
            while clock.now() < warmup_deadline:
                try:
                    transaction(session, rng)
                except Exception:
                    local_errors += 1
                    if local_errors > max_errors:
                        raise
            barrier.wait()
            while not stop.is_set():
                start = clock.now()
                try:
                    transaction(session, rng)
                except Exception:
                    local_errors += 1
                    if local_errors > max_errors:
                        raise
                    continue
                local_latencies.append((clock.now() - start) * 1000)
                local_count += 1
        except BaseException as exc:
            with lock:
                if not first_error:
                    first_error.append(exc)
            try:
                barrier.wait(timeout=1)
            except threading.BrokenBarrierError:
                pass
        finally:
            session.close()
            with lock:
                measurement.latencies_ms.extend(local_latencies)
                measurement.transactions += local_count
                measurement.errors += local_errors

    workers = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(threads)]
    for thread in workers:
        thread.start()
    try:
        barrier.wait(timeout=max(30.0, warmup * 10 + 30))
    except threading.BrokenBarrierError:
        pass
    started = clock.now()
    clock.sleep(duration)
    stop.set()
    for thread in workers:
        thread.join(timeout=60)
    measurement.elapsed = clock.now() - started
    if first_error:
        raise first_error[0]
    return measurement
