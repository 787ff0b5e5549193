"""The closed loop: each client sends its next request only after the reply
to the previous one, because sessions of this system are callers that wait.

All clients run as threads of the one benchmark process (at most nproc).
A phase ends at a deadline or after a fixed number of ops per client.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # importing this module must not import the program: run.py times that
    from workloads import Client


@dataclass
class Tally:
    """What one client did in one phase."""

    latencies: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0  # phase start to this client's last verified reply
    errors: list[str] = field(default_factory=list)


def _loop(client: Client, tally: Tally, deadline: float | None, max_ops: int | None,
          recorder) -> None:
    clock = time.perf_counter
    latencies = tally.latencies
    start = last = clock()
    while True:
        if max_ops is not None and tally.attempted >= max_ops:
            break
        if deadline is not None and clock() >= deadline:
            break
        request = client.prepare()
        tally.attempted += 1
        if recorder is not None:
            recorder.begin_op()
        began = clock()
        try:
            reply = client.issue(request)
            done = clock()
        except Exception as exc:  # an exception or a refusal is a failed op
            tally.failed += 1
            if len(tally.errors) < 3:
                tally.errors.append(f"{type(exc).__name__}: {exc}")
            client.recover()
            continue
        finally:
            if recorder is not None:
                recorder.end_op()
        if client.check(request, reply):
            latencies.append(done - began)
            last = done
        else:
            tally.failed += 1
    tally.elapsed = last - start


def run_phase(clients: list[Client], seconds: float | None = None,
              ops: int | None = None, recorder=None) -> list[Tally]:
    """Run every client until the deadline or its op count; join them all."""
    tallies = [Tally() for _ in clients]
    deadline = time.perf_counter() + seconds if seconds is not None else None
    threads = [
        threading.Thread(target=_loop, args=(client, tally, deadline, ops, recorder),
                         name=f"perf-client-{client.index}")
        for client, tally in zip(clients, tallies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return tallies


def round_values(tallies: list[Tally]) -> dict[str, float] | None:
    """ops/s, p50 and p95 of one round; None when (almost) nothing was verified."""
    merged = sorted(x for tally in tallies for x in tally.latencies)
    if len(merged) < 2:
        return None
    return {
        "ops_per_s": sum(len(t.latencies) / t.elapsed for t in tallies if t.latencies),
        "p50_ms": statistics.median(merged) * 1e3,
        "p95_ms": statistics.quantiles(merged, n=20)[18] * 1e3,
        "samples": len(merged),
    }


_SPINNER = """
import os
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
while os.getppid() == parent:  # orphaned: the benchmark died, so stop
    for _ in range(200_000):
        pass
"""


class OneAwakeCore:
    """Run the whole benchmark on one CPU and never let that CPU go idle.

    The process is pinned to the first CPU it may use, and a child pinned to
    the same CPU spins at ``SCHED_IDLE`` priority: any thread of the
    benchmark preempts it at once, so it costs the benchmark nothing, but
    the (virtual) CPU never halts. Measured on this box (README.md, "Host
    noise"): a halted vCPU pays a wake-up of 10-80 us after every
    simulated-I/O sleep and comes back to cold caches, and both costs move
    with what the host's other tenants do; kept awake, the off-CPU time of a
    point select was 126 us +-1% instead of 140-150 us +-8%. One CPU, because
    the program's threads share the GIL anyway and a spinner on a second CPU
    slows the first (the box's two vCPUs do not add up to two cores).

    Where the platform refuses (no ``sched_setaffinity``, no ``SCHED_IDLE``)
    the benchmark runs as it is and says so.
    """

    def __init__(self):
        self._state = "off"
        self._child: subprocess.Popen | None = None

    @property
    def note(self) -> str:
        """For the run's first line; says so if the spinner did not survive."""
        if self._child is not None and self._child.poll() is not None:
            return f"{self._state}, but the spinner exited with {self._child.returncode}"
        return self._state

    def __enter__(self) -> "OneAwakeCore":
        try:
            cpu = min(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpu})
            self._child = subprocess.Popen([sys.executable, "-S", "-c", _SPINNER])
            self._state = f"cpu {cpu}"
        except (AttributeError, OSError) as exc:
            self._state = f"off ({type(exc).__name__}: {exc})"
        return self

    def __exit__(self, *exc_info) -> None:
        if self._child is not None:
            self._child.kill()
            self._child.wait()


class _Cell:
    __slots__ = ("value", "weight")

    def __init__(self):
        self.value = 0
        self.weight = 1

    def bump(self, by):
        self.value += by * self.weight
        return self.value


def host_kernel_ms() -> float:
    """A fixed dict/attribute/call-heavy pure-Python kernel (~25 ms).

    It does the kind of work the program does and touches none of it, so
    its time says how fast the *host* was just now.
    """
    start = time.perf_counter()
    cells = {i: _Cell() for i in range(64)}
    total = 0
    for i in range(180_000):
        total += cells[i & 63].bump(i)
    assert total > 0
    return (time.perf_counter() - start) * 1e3
