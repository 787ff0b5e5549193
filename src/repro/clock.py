"""The one clock: the only module under ``src/repro`` that imports ``time``.

Three functions, always called through the module (``clock.now()``, never
``from repro.clock import now``) so that a test — or the virtual clock
that is to replace the waiting — swaps them in one place:

- :func:`now` — monotonic seconds, for everything that stays inside the
  process: deadlines, TTLs, replication lag, breaker timers, span and
  stage durations. Differences only; the zero point means nothing.
- :func:`wall` — epoch seconds, only for a stamp that leaves the process:
  snowflake keys, ``registered_at``, a replication status's ``at``, SQL
  ``NOW()``. It can be stepped backwards under the program, so nothing
  may subtract two of them.
- :func:`sleep` — the one place the program waits for time to pass.
  ``repro.storage.latency.pay`` pays every priced storage cost through it.

A simulated wait should cost what it was priced. Linux gives every thread
a 50 µs *timer slack*: each sleep may overrun by that much so the kernel
can batch wake-ups, and on an otherwise idle core it always does — a 72 µs
``pay`` took 142 µs. Which sleeps give that up is decided by the role the
thread has when it sleeps, not by an option:

- a **session thread** (a JDBC caller, a proxy worker) running a statement
  on its own is what its client is blocked on. Its timers are made tight
  (1 ns) when it sleeps here — one write to ``/proc/<tid>/timerslack_ns``
  the first time, none after that.
- a **fan-out worker** keeps the process's default slack: its wake-up is
  needed only by the time the slowest unit of the statement is done, and
  sixteen precise wake-ups per statement each interrupt the thread that
  holds the GIL (measured when reads still fanned out over threads:
  ``adhoc_fanout`` 756 → 654 ops/s, 9 of 10 pairs lost, with every thread
  tight; DESIGN.md "Clock"). The execution engine's pool threads are
  workers for life and call :func:`coalesce_timers` when they start; the
  session thread that takes its share of a fan-out as worker 0 calls it
  before that share and :func:`precise_timers` after it, so a fan-out
  sleeps on the timers it always had, whichever thread runs a unit. Only
  units that block while they wait fan out this way (writes, pinned and
  connection-strictly groups, a transaction's end); a read fan-out is
  issued and awaited by the session thread itself, which sleeps once, as
  a session thread (DESIGN.md "Issue and await").

A thread's slack is written only when its role meets the wrong slack: a
session that only fans out, or never does, writes at most once. Where the
file cannot be written (not Linux, a read-only ``/proc``) every thread
keeps the slack it has and the file is not tried again.
"""

from __future__ import annotations

import os
import threading
import time

#: Monotonic seconds. ``perf_counter`` is the monotonic clock at its finest
#: resolution, so one function serves deadlines and sub-millisecond spans.
now = time.perf_counter

#: Seconds since the epoch.
wall = time.time

_SLACK_FILE = "/proc/%d/timerslack_ns"

#: The slack this process was started with, read before the first write. A
#: thread starts with the *current* slack of the thread that created it as
#: its own default, so a worker spawned by a tight session thread cannot
#: get back to this value by asking the kernel for "the default".
_process_slack: bytes | None = None

#: Cleared by the first ``OSError`` from the slack file: nobody asks again.
_slack_file_works = True

#: Per thread: ``tight`` is what the kernel was last told (absent: unknown,
#: the thread has whatever its creator had); ``worker`` counts the fan-outs
#: the thread is inside of (a pool thread is inside one for life);
#: ``settled`` says the slack matches the role, which is all :func:`sleep`
#: looks at.
_thread = threading.local()


def sleep(seconds: float) -> None:
    """Block the calling thread for ``seconds``; zero or less returns at once."""
    if seconds <= 0:
        return
    if not getattr(_thread, "settled", False):
        _tighten_timers()
    time.sleep(seconds)


def coalesce_timers() -> None:
    """The calling thread is a fan-out worker until the matching
    :func:`precise_timers`: its sleeps keep the process's default timer
    slack, whatever the thread had before."""
    _thread.worker = getattr(_thread, "worker", 0) + 1
    _thread.settled = True
    if getattr(_thread, "tight", True):
        _thread.tight = False
        if _process_slack is not None:  # else nothing was ever tightened
            _write_slack(_process_slack)


def precise_timers() -> None:
    """Leave the fan-out; outside all of them the thread is a session thread
    again. Nothing is written here: its next sleep tightens it, and if a
    fan-out comes first it never left the default."""
    _thread.worker -= 1
    if not _thread.worker:
        _thread.settled = False


def _tighten_timers() -> None:
    global _process_slack
    _thread.settled = True
    if getattr(_thread, "tight", False):
        return
    _thread.tight = True
    if _process_slack is None:
        _process_slack = _read_slack()
    if _process_slack is not None:
        _write_slack(b"1")


def _read_slack() -> bytes | None:
    global _slack_file_works
    if _slack_file_works:
        try:
            fd = os.open(_SLACK_FILE % threading.get_native_id(), os.O_RDONLY)
            try:
                return os.read(fd, 32).strip()
            finally:
                os.close(fd)
        except OSError:
            _slack_file_works = False
    return None


def _write_slack(nanoseconds: bytes) -> None:
    # os-level calls, not open(): 1.8 us instead of 7.4, and a session that
    # alternates point statements with fan-outs pays it on every change
    global _slack_file_works
    if _slack_file_works:
        try:
            fd = os.open(_SLACK_FILE % threading.get_native_id(), os.O_WRONLY)
            try:
                os.write(fd, nanoseconds)
            finally:
                os.close(fd)
        except OSError:
            _slack_file_works = False
