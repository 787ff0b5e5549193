"""ShardingSphere-Proxy adaptor: a session-multiplexing reactor server.

The proxy hosts a :class:`ShardingRuntime` behind the wire protocol of
:mod:`repro.protocol`, mimicking how the real ShardingSphere-Proxy
disguises itself as a MySQL/PostgreSQL server. Unlike the original
thread-per-connection implementation, this server follows the reactor /
queue-based-load-leveling patterns a sharding middleware needs to front
thousands of clients:

* **One reactor thread** owns a ``selectors`` loop: it accepts sockets,
  frames inbound bytes incrementally (:class:`~repro.protocol.message.
  Framer`) and flushes outbound buffers. It never parses JSON and never
  executes SQL, so no client can stall another at the framing layer.
* **A bounded worker pool** (default 2× CPU count) pulls requests off a
  bounded admission queue, resumes the client's
  :class:`~repro.session.SessionContext` (via the session-owning
  :class:`~repro.adaptors.jdbc.ShardingConnection`) and executes. A full
  queue is answered with a ``ServerBusyError`` backpressure response —
  load sheds instead of threads piling up.
* **Per-session ordering**: at most one in-flight request per client;
  further frames wait in the client's pending queue (bounded too), so a
  pipelining client cannot reorder its own statements or starve others.

Session state (causal replication tokens, transactions, pinning) is
carried by the connection's SessionContext and resumed on whichever
worker picks the request up — the thread serving a session changes from
request to request, and nothing observable depends on it.
"""

from __future__ import annotations

import collections
import os
import queue
import selectors
import socket
import threading
from typing import Any

from ..exceptions import ProtocolError, ShardingSphereError
from ..protocol.message import Framer, PacketType, decode_body, encode
from .jdbc import ShardingConnection
from .runtime import ShardingRuntime

ROW_BATCH_SIZE = 200

#: per-client cap on frames parked behind the in-flight one; a client
#: pipelining past this gets backpressure rather than unbounded buffering
MAX_PENDING_PER_SESSION = 32

#: bytes drained from a socket per readable event
RECV_SIZE = 64 * 1024


def default_worker_count() -> int:
    """The bounded pool size: 2x CPU count (the acceptance envelope),
    with a floor of 2 so one slow statement cannot idle the server."""
    return max(2, 2 * (os.cpu_count() or 1))


class _ClientSession:
    """Reactor-side state for one connected client.

    Mutated only on the reactor thread (framing, pending queue, outbox)
    except for ``connection``, which exactly one worker at a time uses —
    guaranteed by the per-session ordering discipline.
    """

    __slots__ = ("sock", "addr", "framer", "connection", "outbox",
                 "pending", "busy", "handshaken", "closing", "write_armed")

    def __init__(self, sock: socket.socket, addr: Any,
                 connection: ShardingConnection):
        self.sock = sock
        self.addr = addr
        self.framer = Framer()
        self.connection = connection
        #: outbound byte chunks not yet written to the socket
        self.outbox: collections.deque[memoryview] = collections.deque()
        #: frames received while a request is in flight (FIFO)
        self.pending: collections.deque[tuple[PacketType, bytes]] = collections.deque()
        self.busy = False          # a worker is executing for this client
        self.handshaken = False
        self.closing = False       # close once outbox drains / worker returns
        self.write_armed = False   # EVENT_WRITE currently registered


class ShardingProxyServer:
    """Multiplexing TCP server fronting one runtime.

    Serves N clients with ``1 + workers`` threads total (reactor + the
    bounded pool), regardless of N. ``max_queue`` bounds the admission
    queue; when it is full new requests get an immediate backpressure
    error response instead of queueing (queue-based load leveling).
    """

    def __init__(self, runtime: ShardingRuntime, host: str = "127.0.0.1",
                 port: int = 0, workers: int | None = None,
                 max_queue: int | None = None):
        self.runtime = runtime
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self.workers = workers if workers is not None else default_worker_count()
        self.max_queue = max_queue if max_queue is not None else 1024
        self._sock: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._reactor_thread: threading.Thread | None = None
        self._worker_pool: list[threading.Thread] = []
        self._stop = threading.Event()
        #: admission queue: (client, packet_type, payload bytes)
        self._tasks: "queue.Queue[tuple[_ClientSession, PacketType, bytes] | None]" = (
            queue.Queue(maxsize=self.max_queue)
        )
        #: commands posted to the reactor by workers: ("output"|"done", ...)
        self._commands: collections.deque[tuple] = collections.deque()
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        self._wake_lock = threading.Lock()
        self._sessions: set[_ClientSession] = set()
        # -- counters (reactor-thread writes; racy reads are fine) --------
        self.sessions_served = 0
        self.requests = 0
        self.errors = 0
        self.backpressure_rejections = 0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ShardingProxyServer":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self._requested_port))
        sock.listen(512)
        sock.setblocking(False)
        self._sock = sock
        self.port = sock.getsockname()[1]
        self._stop.clear()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(sock, selectors.EVENT_READ, "accept")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wakeup")
        self._worker_pool = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name=f"ss-proxy-worker-{i}")
            for i in range(self.workers)
        ]
        for thread in self._worker_pool:
            thread.start()
        self._reactor_thread = threading.Thread(
            target=self._reactor_loop, daemon=True, name="ss-proxy-reactor")
        self._reactor_thread.start()
        self.runtime.observability.registry.register_collector(
            self._metric_families, key=self)
        return self

    def stop(self) -> None:
        """Clean shutdown: closes in-flight client sockets, drains the
        worker pool, and releases every session — no tracebacks."""
        if self._stop.is_set():
            return
        self._stop.set()
        self._wakeup()
        if self._reactor_thread is not None:
            self._reactor_thread.join(timeout=5)
            self._reactor_thread = None
        # unblock and retire the workers (sentinels; queue may be full of
        # stale tasks, so drain opportunistically while feeding them)
        for _ in self._worker_pool:
            while True:
                try:
                    self._tasks.put_nowait(None)
                    break
                except queue.Full:
                    try:
                        self._tasks.get_nowait()
                    except queue.Empty:
                        pass
        for thread in self._worker_pool:
            thread.join(timeout=5)
        self._worker_pool = []
        # release sessions only after workers stopped touching them
        for session in list(self._sessions):
            self._close_quietly(session.sock)
            try:
                session.connection.close()
            except ShardingSphereError:
                pass
        self._sessions.clear()
        for sock in (self._wake_r, self._wake_w, self._sock):
            if sock is not None:
                self._close_quietly(sock)
        self._wake_r = self._wake_w = self._sock = None
        try:
            self.runtime.observability.registry.unregister_collector(self)
        except Exception:
            pass

    def __enter__(self) -> "ShardingProxyServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- observability -----------------------------------------------------

    @property
    def active_sessions(self) -> int:
        return len(self._sessions)

    @property
    def queue_depth(self) -> int:
        return self._tasks.qsize()

    def stats(self) -> dict[str, Any]:
        return {
            "active_sessions": self.active_sessions,
            "sessions_served": self.sessions_served,
            "requests": self.requests,
            "errors": self.errors,
            "backpressure_rejections": self.backpressure_rejections,
            "queue_depth": self.queue_depth,
            "max_queue": self.max_queue,
            "workers": self.workers,
        }

    def _metric_families(self):
        return [
            ("proxy_sessions", "gauge", "connected proxy sessions",
             [({}, float(self.active_sessions))]),
            ("proxy_sessions_served_total", "counter",
             "proxy sessions accepted since start",
             [({}, float(self.sessions_served))]),
            ("proxy_requests_total", "counter", "requests executed",
             [({}, float(self.requests))]),
            ("proxy_errors_total", "counter", "requests answered with ERROR",
             [({}, float(self.errors))]),
            ("proxy_backpressure_total", "counter",
             "requests shed by admission-queue backpressure",
             [({}, float(self.backpressure_rejections))]),
            ("proxy_queue_depth", "gauge", "admission queue depth",
             [({}, float(self.queue_depth))]),
            ("proxy_workers", "gauge", "bounded worker pool size",
             [({}, float(self.workers))]),
        ]

    # -- the reactor -------------------------------------------------------

    def _wakeup(self) -> None:
        with self._wake_lock:
            wake = self._wake_w
            if wake is not None:
                try:
                    wake.send(b"\0")
                except OSError:
                    pass

    def _post(self, command: tuple) -> None:
        """Worker -> reactor handoff (the only cross-thread channel)."""
        self._commands.append(command)
        self._wakeup()

    def _reactor_loop(self) -> None:
        selector = self._selector
        assert selector is not None
        while not self._stop.is_set():
            try:
                events = selector.select(timeout=0.5)
            except OSError:
                break
            for key, mask in events:
                if key.data == "accept":
                    self._accept()
                elif key.data == "wakeup":
                    try:
                        key.fileobj.recv(4096)  # type: ignore[union-attr]
                    except OSError:
                        pass
                else:
                    session: _ClientSession = key.data
                    if mask & selectors.EVENT_READ:
                        self._on_readable(session)
                    if mask & selectors.EVENT_WRITE:
                        self._flush(session)
            self._run_commands()

    def _accept(self) -> None:
        assert self._sock is not None and self._selector is not None
        while True:
            try:
                sock, addr = self._sock.accept()
            except BlockingIOError:
                return
            except OSError:
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            connection = ShardingConnection(self.runtime)
            connection.session.kind = "proxy"
            connection.session.client = f"{addr[0]}:{addr[1]}"
            session = _ClientSession(sock, addr, connection)
            self._sessions.add(session)
            self.sessions_served += 1
            try:
                self._selector.register(sock, selectors.EVENT_READ, session)
            except (OSError, ValueError):
                self._teardown(session)

    def _on_readable(self, session: _ClientSession) -> None:
        try:
            data = session.sock.recv(RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            self._disconnect(session)
            return
        if not data:
            self._disconnect(session)
            return
        try:
            packets = session.framer.feed(data)
        except ProtocolError as exc:
            # framing is unrecoverable: answer once, then hang up
            self._send(session, encode(PacketType.ERROR,
                                       {"message": str(exc),
                                        "type": "ProtocolError"}))
            session.closing = True
            self._maybe_close(session)
            return
        for packet_type, payload in packets:
            if session.closing:
                return
            self._on_packet(session, packet_type, payload)

    def _on_packet(self, session: _ClientSession, packet_type: PacketType,
                   payload: bytes) -> None:
        if not session.handshaken:
            if packet_type is not PacketType.HANDSHAKE:
                self._send(session, encode(PacketType.ERROR,
                                           {"message": "expected handshake"}))
                session.closing = True
                self._maybe_close(session)
                return
            session.handshaken = True
            self._send(session, encode(PacketType.HANDSHAKE_OK, {
                "server": "repro-shardingsphere-proxy",
                "version": "5.0.0-repro",
                "session_id": session.connection.session.session_id,
            }))
            return
        if packet_type is PacketType.QUIT:
            session.closing = True
            self._maybe_close(session)
            return
        if packet_type is not PacketType.QUERY:
            self._send(session, encode(
                PacketType.ERROR,
                {"message": f"unexpected {packet_type.name}"}))
            return
        if session.busy:
            if len(session.pending) >= MAX_PENDING_PER_SESSION:
                self._reject_busy(session, "session pipeline limit reached")
                return
            session.pending.append((packet_type, payload))
            return
        self._dispatch(session, payload)

    def _dispatch(self, session: _ClientSession, payload: bytes) -> None:
        """Admit one request to the worker queue, or shed it."""
        try:
            self._tasks.put_nowait((session, PacketType.QUERY, payload))
        except queue.Full:
            self._reject_busy(session, "admission queue full")
            return
        session.busy = True

    def _reject_busy(self, session: _ClientSession, why: str) -> None:
        self.backpressure_rejections += 1
        self._send(session, encode(PacketType.ERROR, {
            "message": f"server busy: {why}; retry",
            "type": "ServerBusyError",
            "backpressure": True,
        }))

    def _run_commands(self) -> None:
        commands = self._commands
        while commands:
            try:
                command = commands.popleft()
            except IndexError:
                break
            kind = command[0]
            if kind == "output":
                _, session, data = command
                if session in self._sessions:
                    self._send(session, data)
            elif kind == "done":
                _, session = command
                session.busy = False
                if session not in self._sessions:
                    continue
                if session.closing:
                    self._maybe_close(session)
                    continue
                if session.pending:
                    _packet_type, payload = session.pending.popleft()
                    self._dispatch(session, payload)

    # -- writes ------------------------------------------------------------

    def _send(self, session: _ClientSession, data: bytes) -> None:
        session.outbox.append(memoryview(data))
        self._flush(session)

    def _flush(self, session: _ClientSession) -> None:
        outbox = session.outbox
        try:
            while outbox:
                chunk = outbox[0]
                try:
                    sent = session.sock.send(chunk)
                except BlockingIOError:
                    break
                if sent < len(chunk):
                    outbox[0] = chunk[sent:]
                    break
                outbox.popleft()
        except OSError:
            self._disconnect(session)
            return
        self._arm_write(session, bool(outbox))
        if not outbox:
            self._maybe_close(session)

    def _arm_write(self, session: _ClientSession, want_write: bool) -> None:
        if want_write == session.write_armed or self._selector is None:
            return
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if want_write else 0)
        try:
            self._selector.modify(session.sock, events, session)
            session.write_armed = want_write
        except (KeyError, OSError, ValueError):
            pass

    # -- teardown ----------------------------------------------------------

    def _maybe_close(self, session: _ClientSession) -> None:
        if session.closing and not session.outbox and not session.busy:
            self._teardown(session)

    def _disconnect(self, session: _ClientSession) -> None:
        """Peer went away. If a worker is mid-request, defer the teardown
        to its 'done' command so the connection is never closed under it."""
        session.closing = True
        session.pending.clear()
        session.outbox.clear()
        if not session.busy:
            self._teardown(session)

    def _teardown(self, session: _ClientSession) -> None:
        if session not in self._sessions:
            return
        self._sessions.discard(session)
        if self._selector is not None:
            try:
                self._selector.unregister(session.sock)
            except (KeyError, OSError, ValueError):
                pass
        self._close_quietly(session.sock)
        try:
            session.connection.close()
        except ShardingSphereError:
            pass

    @staticmethod
    def _close_quietly(sock: socket.socket) -> None:
        try:
            sock.close()
        except OSError:
            pass

    # -- the worker pool ---------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            task = self._tasks.get()
            if task is None:
                return
            session, packet_type, payload = task
            try:
                response = self._handle_query(session, payload)
            except Exception as exc:  # never let a worker die
                self.errors += 1
                response = encode(PacketType.ERROR, {
                    "message": str(exc), "type": type(exc).__name__})
            self._post(("output", session, response))
            self._post(("done", session))

    def _handle_query(self, session: _ClientSession, payload: bytes) -> bytes:
        """Execute one QUERY on the client's connection; returns the full
        encoded response (one or many packets).

        Runs on a pool worker. ``connection.execute`` resumes the
        client's SessionContext, so causal tokens, pinning and open
        transactions follow the *session* here no matter which worker
        got the request.
        """
        body = decode_body(payload) or {}
        sql = body.get("sql", "")
        params = tuple(body.get("params") or ())
        self.requests += 1
        try:
            result = session.connection.execute(sql, params)
        except ShardingSphereError as exc:
            self.errors += 1
            return encode(PacketType.ERROR,
                          {"message": str(exc), "type": type(exc).__name__})
        if result.description is None:
            return encode(PacketType.OK, {
                "rowcount": result.rowcount,
                "message": result.message or "OK",
                "generated_keys": result.generated_keys,
            })
        chunks = [encode(PacketType.RESULT_HEADER, {"columns": result.columns})]
        while True:
            batch = result.fetchmany(ROW_BATCH_SIZE)
            if not batch:
                break
            chunks.append(encode(PacketType.ROW_BATCH,
                                 {"rows": [list(r) for r in batch]}))
        chunks.append(encode(PacketType.RESULT_END, {}))
        return b"".join(chunks)
