"""Thread-portable session identity: the :class:`SessionContext`.

Historically every piece of per-session state in this codebase lived in
its own ``threading.local`` — causal replication tokens in
``storage/replication.py``, the metadata mutation guard in
``metadata.py``, the Governor publish guard in ``adaptors/runtime.py``.
That equates "session" with "OS thread", which breaks down the moment a
session crosses a thread boundary (a proxy worker continuing a client's
session, a JDBC connection handed to another thread) and makes a
multiplexing proxy — thousands of client sessions over a small worker
pool — impossible.

This module replaces all of them with one explicit object:

* :class:`SessionContext` carries **everything** a logical session owns:
  causal replication tokens (read-your-writes), the primary-pin depth,
  re-entrant guard counters (metadata mutation / Governor publishing),
  per-session variables, the statement's pinned metadata snapshot, and
  bookkeeping surfaced by ``SHOW SESSIONS``.
* The *current* session is tracked in a ``contextvars.ContextVar``.
  Contexts are per-thread by default, so code that never activates a
  session explicitly (direct embedding, benches, tests) still gets
  thread-scoped sessions — the old behavior — via the lazily-created
  **thread-root session** of :func:`current_session`.
* Thread boundaries propagate sessions *explicitly*: capture with
  :func:`current_session` on the submitting side, resume with
  :func:`activate` on whichever worker picks the work up. The proxy
  reactor and every JDBC connection entry point do this, so a session
  started by one thread can be continued by any other without losing
  read-your-writes or transaction pinning.

A statement's storage work runs on the thread that executes it, but the
one ``SessionContext`` may still be shared by several threads at once: a
JDBC connection may be driven from several threads. Token/guard updates
therefore go through a small per-session lock; plain reads stay
lock-free.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import threading
import weakref
from typing import Any, Iterator

from . import clock

_session_ids = itertools.count(1)


class SessionContext:
    """All state owned by one logical session, portable across threads."""

    __slots__ = (
        "session_id", "kind", "client", "created_at",
        "tokens", "pin_depth", "variables", "trace", "snapshot",
        "statements", "last_sql", "in_transaction",
        "_guards", "_lock", "__weakref__",
    )

    def __init__(self, kind: str = "embedded", client: str | None = None):
        #: monotonically increasing id (``SHOW SESSIONS``)
        self.session_id = next(_session_ids)
        #: where the session came from: "thread" (implicit thread-root),
        #: "jdbc" (ShardingConnection), "proxy" (wire protocol client)
        self.kind = kind
        #: remote peer ("host:port") for proxy sessions
        self.client = client
        #: birth on the monotonic clock: only ever subtracted from a later
        #: reading (``age_s``), so a stepped wall clock cannot move it
        self.created_at = clock.now()
        #: causal replication tokens: group name -> highest written LSN
        self.tokens: dict[str, int] = {}
        #: depth of PRIMARY-hint pinning (reads bypass replicas while > 0)
        self.pin_depth = 0
        #: per-session variables (reserved for session-scoped SET)
        self.variables: dict[str, Any] = {}
        #: active trace, when tracing attributes spans to this session
        self.trace: Any = None
        #: the MetadataContext snapshot pinned by the statement in flight
        #: (informational: set/restored around each engine execution)
        self.snapshot: Any = None
        #: statements executed through this session (SHOW SESSIONS)
        self.statements = 0
        self.last_sql: str | None = None
        self.in_transaction = False
        #: re-entrant guard depths keyed by owner object — the portable
        #: replacement for per-subsystem ``threading.local`` depth flags
        self._guards: dict[Any, int] = {}
        self._lock = threading.Lock()

    # -- causal tokens (read-your-writes) --------------------------------

    def token(self, group: str) -> int:
        """Highest LSN this session has written in ``group`` (0 = none)."""
        return self.tokens.get(group, 0)

    def note_write(self, group: str, lsn: int) -> None:
        """Advance the causal token for ``group`` to ``lsn``.

        Locked: two threads driving one session (one JDBC connection used
        from several threads) may advance one group at once.
        """
        with self._lock:
            if lsn > self.tokens.get(group, 0):
                self.tokens[group] = lsn

    def reset(self) -> None:
        """Forget causal tokens and pinning (a brand-new session)."""
        with self._lock:
            self.tokens = {}
        self.pin_depth = 0

    # -- primary pinning ---------------------------------------------------

    @contextlib.contextmanager
    def pin(self) -> Iterator[None]:
        """Force reads in this block to primaries (the PRIMARY hint)."""
        self.pin_depth += 1
        try:
            yield
        finally:
            self.pin_depth -= 1

    @property
    def pinned(self) -> bool:
        return self.pin_depth > 0

    # -- re-entrant guards -------------------------------------------------

    def enter_guard(self, key: Any) -> None:
        with self._lock:
            self._guards[key] = self._guards.get(key, 0) + 1

    def exit_guard(self, key: Any) -> None:
        with self._lock:
            depth = self._guards.get(key, 0) - 1
            if depth <= 0:
                self._guards.pop(key, None)
            else:
                self._guards[key] = depth

    def guard_depth(self, key: Any) -> int:
        return self._guards.get(key, 0)

    @contextlib.contextmanager
    def guard(self, key: Any) -> Iterator[None]:
        self.enter_guard(key)
        try:
            yield
        finally:
            self.exit_guard(key)

    # -- introspection -----------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """One ``SHOW SESSIONS`` row."""
        return {
            "id": self.session_id,
            "kind": self.kind,
            "client": self.client or "",
            "age_s": round(clock.now() - self.created_at, 3),
            "statements": self.statements,
            "in_transaction": self.in_transaction,
            "pinned_primary": self.pinned,
            "causal_groups": len(self.tokens),
            "last_sql": (self.last_sql or "")[:80],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SessionContext(id={self.session_id}, kind={self.kind!r})"


#: the active session of the current execution context. Context = thread
#: unless explicitly propagated, so un-instrumented code keeps the old
#: thread-scoped behavior.
_current: contextvars.ContextVar[SessionContext | None] = contextvars.ContextVar(
    "repro_session", default=None
)


def current_session() -> SessionContext:
    """The active session, lazily creating a thread-root session.

    Call sites that never activate a session (direct embedding, tests,
    benches driving the engine from their own threads) get one implicit
    session per thread — exactly the scoping the old ``threading.local``s
    provided.
    """
    session = _current.get()
    if session is None:
        session = SessionContext(kind="thread")
        _current.set(session)
    return session


def try_current() -> SessionContext | None:
    """The active session or None — never creates one."""
    return _current.get()


@contextlib.contextmanager
def activate(session: SessionContext) -> Iterator[SessionContext]:
    """Make ``session`` current for the block; restores the previous one.

    This is the explicit capture/restore point at every thread boundary:
    the submitting side captures :func:`current_session`, the executing
    side runs inside ``with activate(captured):``.
    """
    token = _current.set(session)
    try:
        yield session
    finally:
        _current.reset(token)


class SessionRegistry:
    """Live sessions of one runtime (``SHOW SESSIONS`` / metrics).

    Holds weak references so an abandoned, never-closed connection cannot
    keep its session alive (the old proxy's unbounded ``_clients`` set
    bug, generalized away).
    """

    def __init__(self) -> None:
        self._sessions: "weakref.WeakValueDictionary[int, SessionContext]" = (
            weakref.WeakValueDictionary()
        )
        self._lock = threading.Lock()
        self.sessions_served = 0

    def register(self, session: SessionContext) -> SessionContext:
        with self._lock:
            self._sessions[session.session_id] = session
            self.sessions_served += 1
        return session

    def unregister(self, session: SessionContext) -> None:
        with self._lock:
            self._sessions.pop(session.session_id, None)

    def __len__(self) -> int:
        return len(self._sessions)

    def sessions(self) -> list[SessionContext]:
        with self._lock:
            return sorted(self._sessions.values(), key=lambda s: s.session_id)

    def rows(self) -> list[dict[str, Any]]:
        return [session.describe() for session in self.sessions()]
