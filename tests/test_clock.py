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
from repro.engine.executor import ConnectionMode, ExecutionEngine
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


def test_no_simulated_wait_while_holding_a_storage_lock(fake, monkeypatch):
    """The lint above reads the source; this watches it run. Every sleep
    checks that the sleeping thread owns no ``Connection._lock`` and is not
    inside a ``database.write_lock()`` — over an autocommit UPDATE, a
    4-source LOCAL commit, XA prepare and phase 2, a BASE commit and a
    connection-strictly read."""
    from repro.engine import build_context, rewrite, route
    from repro.sharding import ShardingRule, build_auto_table_rule
    from repro.sql import parse
    from repro.storage import Connection, DataSource, LatencyModel
    from repro.transaction import TransactionCoordinator, TransactionManager, TransactionType

    connections = []
    init = Connection.__init__

    def remembered(self, *args, **kwargs):
        init(self, *args, **kwargs)
        connections.append(self)

    monkeypatch.setattr(Connection, "__init__", remembered)
    names = [f"ds{i}" for i in range(4)]
    sources = {name: DataSource(name, latency=LatencyModel(write_io=1e-3, commit_io=2e-3))
               for name in names}
    table_rule = build_auto_table_rule("t_acct", names, sharding_column="id",
                                       algorithm_type="MOD", properties={"sharding-count": 8})
    nodes = table_rule.data_nodes
    for index, node in enumerate(nodes):
        sources[node.data_source].execute(f"CREATE TABLE {node.table} (id INT PRIMARY KEY, v INT)")
        sources[node.data_source].execute(f"INSERT INTO {node.table} (id, v) VALUES ({index}, 0)")

    held, slept = [], []
    sleep = clock.sleep  # the fake one

    def checking(seconds):
        if seconds > 0:
            held.extend(f"{slept[-1]}: {c.data_source.name}'s Connection._lock"
                        for c in connections if c._lock._is_owned())
            held.extend(f"{slept[-1]}: {name}'s write_lock"
                        for name, source in sources.items() if source.database._lock._is_owned())
        sleep(seconds)

    monkeypatch.setattr(clock, "sleep", checking)

    def case(name):
        slept.append(name)
        return len(fake.sleeps)

    before = case("autocommit UPDATE")
    assert sources["ds0"].execute(f"UPDATE {nodes[0].table} SET v = v + 1") == 1
    assert len(fake.sleeps) > before
    for type_ in TransactionType:
        before = case(f"{type_.value} commit")
        manager = TransactionManager(sources, type_,
                                     coordinator=TransactionCoordinator(rpc_delay=1e-3))
        txn = manager.begin()
        for node in nodes[:4]:
            txn.connection_for(node.data_source).execute(f"UPDATE {node.table} SET v = v + 1")
        txn.commit()
        assert len(fake.sleeps) > before
    before = case("connection-strictly read")
    sql = "SELECT id, v FROM t_acct"
    rule = ShardingRule([table_rule], default_data_source="ds0")
    context = build_context(parse(sql), sql, (), rule)
    units = rewrite(context, route(context, rule)).execution_units
    engine = ExecutionEngine(sources, max_connections_per_query=1)
    try:
        result = engine.execute(units, is_query=True)
        assert set(result.modes.values()) == {ConnectionMode.CONNECTION_STRICTLY}
        assert len([row for shard in result.results for row in shard]) == len(nodes)
        result.release()
    finally:
        engine.close()
    assert len(fake.sleeps) > before
    assert held == []


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


# -- (b) mechanism: every thread that sleeps sleeps tightly ----------------------


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


def test_unwritable_slack_file_is_tried_once_and_the_sleep_still_happens(monkeypatch, sleeps):
    opened = []

    def refuse(path, flags):
        opened.append(path)
        raise PermissionError(path)

    monkeypatch.setattr(clock, "_slack_file_works", True)  # and put back after the test
    monkeypatch.setattr(clock, "os", types.SimpleNamespace(open=refuse, O_RDONLY=0, O_WRONLY=1))

    def session():
        clock.sleep(1e-3)
        clock.sleep(2e-3)
        pay(3e-3)
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
