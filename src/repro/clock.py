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
``pay`` took 142 µs. Every thread that sleeps here is one whose own client
waits for it: a session thread paying, once, for what its call booked, or
a direct caller of storage waiting for what it just issued (DESIGN.md
"Issue and await"). So every sleeper's timers are made tight
(1 ns) the first time it sleeps — one write to
``/proc/<tid>/timerslack_ns``, none after that. Where the file cannot be
written (not Linux, a read-only ``/proc``) every thread keeps the slack it
has and the file is not tried again.
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

#: Cleared by the first ``OSError`` from the slack file: nobody asks again.
_slack_file_works = True

#: Per thread: ``tight`` once its timers have been made tight (or tried to be).
_thread = threading.local()


def sleep(seconds: float) -> None:
    """Block the calling thread for ``seconds``; zero or less returns at once."""
    global _slack_file_works
    if seconds <= 0:
        return
    # Inline, not a function: a session's one ``pay`` often finds its window
    # over, so when a thread first really sleeps depends on the host, and
    # that must not show in a count of Python calls.
    if not getattr(_thread, "tight", False):
        _thread.tight = True
        if _slack_file_works:
            try:  # os-level calls, not open(): 1.8 us instead of 7.4
                fd = os.open(_SLACK_FILE % threading.get_native_id(), os.O_WRONLY)
                try:
                    os.write(fd, b"1")
                finally:
                    os.close(fd)
            except OSError:
                _slack_file_works = False
    time.sleep(seconds)
