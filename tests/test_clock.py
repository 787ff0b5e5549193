"""``repro.clock``: the one module that touches ``time``, and who waits tightly.

No test here waits on a clock: ``clock.time`` is replaced by a stub whose
``sleep`` only records, so what is checked is which thread asked for which
timer slack and that the wait was requested — not that time passed.
"""

import ast
import threading
import types
from pathlib import Path

import pytest

from repro import clock
from repro.engine.executor import ExecutionEngine, _StealScheduler
from repro.storage.latency import pay

PACKAGE = Path(clock.__file__).resolve().parent
SLACK_FILE = "/proc/%d/timerslack_ns"


# -- (a) lint: nobody else reads or waits on time -------------------------------


def time_sites(path: Path, root: Path) -> list[str]:
    """``file:line: what`` for every way of reaching the time that is not
    ``repro.clock``: the ``time`` module, and ``datetime``'s now/utcnow/today."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        what = None
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "time" for alias in node.names):
                what = "import time"
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module == "time":
                what = "from time import"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("now", "utcnow", "today")
              and ast.unparse(node.func.value).rpartition(".")[2] in ("datetime", "date")):
            what = ast.unparse(node.func) + "()"
        if what:
            found.append(f"{path.relative_to(root)}:{node.lineno}: {what}")
    return found


def test_only_the_clock_module_touches_time():
    offenders = [site for path in sorted(PACKAGE.rglob("*.py"))
                 if path != PACKAGE / "clock.py"
                 for site in time_sites(path, PACKAGE.parent)]
    assert offenders == [], "go through repro.clock instead:\n" + "\n".join(offenders)
    # ...and the lint is looking at real files: the one import is where it should be
    (only,) = time_sites(PACKAGE / "clock.py", PACKAGE.parent)
    assert only.startswith("repro/clock.py:") and only.endswith(": import time")


def test_the_lint_names_file_and_line_of_every_form(tmp_path):
    source = tmp_path / "offender.py"
    source.write_text(
        "import os, time\n"
        "from time import sleep\n"
        "import datetime\n"
        "a = datetime.datetime.now()\n"
        "b = datetime.utcnow()\n"
        "c = datetime.date.today()\n"
        "d = clock.now()\n"
        "e = datetime.datetime.fromtimestamp(clock.wall())\n"
        "from . import time as not_the_stdlib\n"
    )
    assert time_sites(source, tmp_path) == [
        "offender.py:1: import time",
        "offender.py:2: from time import",
        "offender.py:4: datetime.datetime.now()",
        "offender.py:5: datetime.utcnow()",
        "offender.py:6: datetime.date.today()",
    ]


def waits_under_a_lock(path: Path, root: Path) -> list[str]:
    """``file:line: what`` for every ``pay(...)`` / ``clock.sleep(...)`` written
    inside a ``with`` on a lock, semaphore or condition (``self._lock``,
    ``table.page_lock``, ``source.channel_semaphore``, ``database.write_lock()``):
    whoever else wants that lock would wait out the sleep too."""

    def held(item: ast.withitem) -> str | None:
        target = item.context_expr
        if isinstance(target, ast.Call):
            target = target.func
        name = getattr(target, "attr", None) or getattr(target, "id", "")
        return name if name.endswith(("lock", "semaphore", "mutex", "_available")) else None

    found = []
    for outer in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(outer, ast.With):
            continue
        locks = [name for name in map(held, outer.items) if name]
        if not locks:
            continue
        for node in ast.walk(outer):
            if not isinstance(node, ast.Call):
                continue
            what = ast.unparse(node.func)
            if what == "clock.sleep" or what.rpartition(".")[2] == "pay":
                found.append(f"{path.relative_to(root)}:{node.lineno}: "
                             f"{what}() while holding {locks[0]}")
    return sorted(set(found))


def test_storage_never_waits_for_simulated_time_while_holding_a_lock():
    """What an I/O timeline is for (DESIGN.md "Issue and await"): a window
    is reserved under a lock and waited for outside it."""
    offenders = [site for path in sorted((PACKAGE / "storage").rglob("*.py"))
                 for site in waits_under_a_lock(path, PACKAGE.parent)]
    assert offenders == [], "reserve under the lock, wait outside it:\n" + "\n".join(offenders)


def test_the_lock_lint_names_file_and_line(tmp_path):
    source = tmp_path / "offender.py"
    source.write_text(
        "def _pay(self, amount, table):\n"
        "    with table.page_lock:\n"
        "        with self.data_source.channel_semaphore:\n"
        "            pay(amount)\n"
        "    with self._lock, open(path) as f:\n"
        "        clock.sleep(1)\n"
        "    with self.database.write_lock():\n"
        "        latency.pay(amount)\n"
        "    with open(path) as f:\n"
        "        pay(amount)\n"
        "    with self._lock:\n"
        "        ready_at = timeline.reserve(amount)\n"
        "    pay(amount, ready_at)\n"
    )
    assert waits_under_a_lock(source, tmp_path) == [
        "offender.py:4: pay() while holding channel_semaphore",
        "offender.py:4: pay() while holding page_lock",
        "offender.py:6: clock.sleep() while holding _lock",
        "offender.py:8: latency.pay() while holding write_lock",
    ]


# -- (b) mechanism: a session thread waits tightly, a fan-out worker does not ----


def read_slack() -> str:
    with open(SLACK_FILE % threading.get_native_id()) as slack:
        return slack.read().strip()


def write_slack(value: str) -> None:
    with open(SLACK_FILE % threading.get_native_id(), "w") as slack:
        slack.write(value)


def in_thread(work):
    """``work()`` on a new thread, started by the calling thread."""
    box = {}

    def run():
        try:
            box["value"] = work()
        except BaseException as exc:  # handed to the caller below
            box["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    if "error" in box:
        raise box["error"]
    return box["value"]


@pytest.fixture
def sleeps(monkeypatch):
    """Every wait ``clock.sleep`` would have made, recorded and not made."""
    requested = []
    monkeypatch.setattr(clock, "time", types.SimpleNamespace(sleep=requested.append))
    return requested


@pytest.fixture
def default_slack():
    """The slack a new thread gets where nothing was tightened. A thread
    starts with the slack of the thread that starts it, and the pytest
    thread may have paid (and so tightened itself) in an earlier test: it
    is put back to its default for the length of this one."""
    try:
        before = read_slack()
        write_slack("0")  # the kernel's "reset to this thread's default"
    except OSError as exc:
        pytest.skip(f"cannot write {SLACK_FILE % threading.get_native_id()}: {exc}")
    default = read_slack()
    if default == "1":
        pytest.skip("this process was started with 1 ns timer slack: tight is its default")
    yield default
    write_slack(before)


def test_a_session_thread_is_tight_from_its_first_sleep(default_slack, sleeps):
    def session():
        before = read_slack()
        clock.sleep(72e-6)
        return before, read_slack()

    assert in_thread(session) == (default_slack, "1")
    assert sleeps == [72e-6]
    assert read_slack() == default_slack  # only the thread that slept


@pytest.mark.concurrency
def test_a_pool_thread_started_by_a_tight_thread_keeps_the_default(default_slack, sleeps):
    """The inheritance trap: the pool starts a worker inside ``submit``, so
    the worker begins with the *submitting* thread's slack — 1 ns once that
    session has paid — and asking the kernel for "the default" gives 1 ns
    back. The helper must end up at the process's slack regardless, and
    stay there when it pays."""
    def helper():
        at_start = read_slack()
        clock.coalesce_timers()  # a statement of its own fans out from a pool thread...
        clock.precise_timers()  # ...and leaves it the worker it is for life
        pay(2e-3)
        return threading.current_thread().name, at_start, read_slack()

    def session():
        clock.sleep(72e-6)
        assert read_slack() == "1"
        engine = ExecutionEngine({}, worker_threads=2)
        try:
            return engine.submit(helper).result(timeout=10)
        finally:
            engine.close()

    name, at_start, after_paying = in_thread(session)
    assert name.startswith("ss-exec")
    assert (at_start, after_paying) == (default_slack, default_slack)
    assert sleeps == [72e-6, 2e-3]


def test_a_session_thread_taking_its_share_of_a_fan_out_sleeps_like_a_helper(default_slack, sleeps):
    """Worker 0 of a fan-out is the session's own thread. For that share it
    has the helpers' timers; on its own again it is tight from its next
    sleep on, and a role that meets the right slack writes nothing."""
    written = []
    real_write = clock.os.write

    def session():
        seen = [read_slack()]
        for step in (lambda: clock.sleep(72e-6), clock.coalesce_timers, lambda: pay(72e-6),
                     clock.precise_timers, clock.coalesce_timers, clock.precise_timers,
                     lambda: clock.sleep(72e-6), lambda: clock.sleep(72e-6)):
            step()
            seen.append(read_slack())
        return seen

    clock.os.write = lambda fd, data: written.append(data) or real_write(fd, data)
    try:
        seen = in_thread(session)
    finally:
        clock.os.write = real_write
    tight, loose = "1", default_slack
    assert seen == [loose, tight, loose, loose, loose, loose, loose, tight, tight]
    assert written == [b"1", loose.encode(), b"1"]
    assert sleeps == [72e-6] * 4


@pytest.mark.concurrency
def test_every_unit_of_a_fan_out_sleeps_on_default_timers_whoever_runs_it(default_slack, sleeps):
    """Through the scheduler itself: the caller's share and the helpers'
    pay on the same slack; a statement with one task is the session running
    alone and stays tight."""
    def session():
        clock.sleep(72e-6)
        engine = ExecutionEngine({}, worker_threads=4)
        me, caller_has_one, seen = threading.current_thread().name, threading.Event(), []

        def unit(cancelled=False):
            # nothing here takes time, so a helper would drain every queue
            # before the caller reached its own: it waits for the caller
            name = threading.current_thread().name
            if name == me:
                caller_has_one.set()
            else:
                assert caller_has_one.wait(timeout=10)
            pay(1e-3)
            seen.append((name, read_slack()))

        try:
            _StealScheduler(engine, [(index, unit) for index in range(6)]).run()
            fanned_out, seen[:] = list(seen), []
            _StealScheduler(engine, [(0, unit)]).run()
            clock.sleep(72e-6)
            return me, fanned_out, seen, read_slack()
        finally:
            engine.close()

    me, fanned_out, alone, afterwards = in_thread(session)
    assert len(fanned_out) == 6 and me in {name for name, _ in fanned_out}
    assert {slack for _, slack in fanned_out} == {default_slack}
    assert alone == [(me, "1")] and afterwards == "1"


def test_unwritable_slack_file_is_tried_once_and_the_sleep_still_happens(monkeypatch, sleeps):
    opened = []

    def refuse(path, flags):
        opened.append(path)
        raise PermissionError(path)

    monkeypatch.setattr(clock, "_slack_file_works", True)  # and put back after the test
    monkeypatch.setattr(clock, "_process_slack", None)
    monkeypatch.setattr(clock, "os", types.SimpleNamespace(open=refuse, O_RDONLY=0, O_WRONLY=1))

    def session():
        clock.sleep(1e-3)
        clock.sleep(2e-3)
        clock.coalesce_timers()  # nor does a change of role ask again
        pay(3e-3)
        clock.precise_timers()
        clock.sleep(4e-3)
        return SLACK_FILE % threading.get_native_id()

    mine = in_thread(session)
    assert sleeps == [1e-3, 2e-3, 3e-3, 4e-3]
    assert opened == [mine]
    in_thread(lambda: clock.sleep(5e-3))  # nor does another thread
    assert opened == [mine]


# -- (c) nothing to wait for: no syscall of either kind -------------------------


def test_zero_and_negative_amounts_return_at_once(monkeypatch, sleeps):
    def no_file(*args):
        raise AssertionError("a sleep that waits for nothing decided the thread's slack")

    monkeypatch.setattr(clock, "os", types.SimpleNamespace(open=no_file))

    def session():
        clock.sleep(0)
        clock.sleep(0.0)
        clock.sleep(-1e-3)
        pay(0.0)
        pay(-1.0)

    in_thread(session)
    assert sleeps == []
