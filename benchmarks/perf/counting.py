"""The counted pass: Python calls into ``src/repro``, by package. Times nothing.

``sys.setprofile`` + ``threading.setprofile`` are installed *before* the
system is built, so the engine pool, the proxy reactor and its workers
inherit the hook. Each thread counts into its own dict (a shared one would
lose updates between threads); the dicts are added up at the end. Only
``call`` events between :meth:`start` and :meth:`stop` are counted, and
only callees whose file is under ``src/repro``.

Two callees are left out because how often they run depends on how the
threads were scheduled, not on the requests (``NOT_COUNTED``); with them
out, every count repeats exactly for a given seed.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from pathlib import Path

#: the sub-totals reported beside ``py.calls_per_op``
PACKAGES = ("adaptors", "protocol", "sql", "engine", "storage", "transaction",
            "sharding", "session", "observability", "features")

#: (file under src/repro, qualified name) of callees that are not counted:
#: an idle fan-out worker's scan for a queue to steal from, and the proxy
#: reactor's command drain (a reply's two commands arrive in one wake-up
#: or in two). Measured: 3,135-3,261 and 2,000-2,002 calls over three passes
#: of the same seed, everything else identical.
NOT_COUNTED = {
    ("engine/executor.py", "_StealScheduler._work.<locals>.<listcomp>"),
    ("adaptors/proxy.py", "ShardingProxyServer._run_commands"),
}


class CallCounter:
    def __init__(self, package_root: Path):
        self._root = str(package_root) + "/"
        self._per_thread: list[dict] = []
        self._counting = False

    def install(self) -> None:
        threading.setprofile(self._first_event_in_thread)
        sys.setprofile(self._thread_hook())

    def uninstall(self) -> None:
        threading.setprofile(None)
        sys.setprofile(None)

    def start(self) -> None:
        self._counting = True

    def stop(self) -> None:
        self._counting = False

    def _thread_hook(self):
        counts: dict = defaultdict(int)
        self._per_thread.append(counts)

        def hook(frame, event, arg):
            if event == "call" and self._counting:
                counts[frame.f_code] += 1

        return hook

    def _first_event_in_thread(self, frame, event, arg):
        hook = self._thread_hook()
        sys.setprofile(hook)
        hook(frame, event, arg)

    def by_package(self) -> dict[str, int]:
        """Calls per first path component under the package root, plus ``""`` = all."""
        totals: dict[str, int] = defaultdict(int)
        for counts in list(self._per_thread):
            for code, n in list(counts.items()):
                filename = code.co_filename
                if not filename.startswith(self._root):
                    continue
                if (filename[len(self._root):], code.co_qualname) in NOT_COUNTED:
                    continue
                first = filename[len(self._root):].split("/", 1)[0]
                totals[first.removesuffix(".py")] += n
                totals[""] += n
        return dict(totals)
