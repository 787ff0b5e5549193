"""The session-multiplexing proxy reactor.

Drives the :class:`ShardingProxyServer` the way the paper's experiments
drive ShardingSphere-Proxy: many concurrent clients against a small,
bounded thread budget. Covers the concurrency smoke (hundreds of mixed
sessions, read-your-writes through laggy replicas, zero errors), the
thread-count envelope (1k sessions on ``1 + workers`` threads),
queue-based backpressure at saturation, lifecycle hygiene, and the
hardened client's behaviour against wedged or half-closed peers.
"""

import socket
import threading
import time

import pytest

from repro.adaptors import ShardingProxyServer, ShardingRuntime
from repro.adaptors.proxy import default_worker_count
from repro.exceptions import ExecutionError, ProtocolError, ServerBusyError
from repro.protocol import PacketType, ProxyClient, encode
from repro.protocol.message import read_packet, send_packet
from repro.storage import DataSource, LatencyModel

from tests.test_sessions import make_replicated_sharded_runtime


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def proxy_thread_count() -> int:
    return sum(1 for t in threading.enumerate()
               if t.is_alive() and t.name.startswith("ss-proxy"))


@pytest.fixture
def simple_runtime():
    rt = ShardingRuntime({"ds0": DataSource("ds0")})
    rt.engine.execute("CREATE TABLE t_one (uid INT PRIMARY KEY, v INT)")
    rt.engine.execute("INSERT INTO t_one (uid, v) VALUES (1, 7)")
    yield rt
    rt.close()


# ---------------------------------------------------------------------------
# Concurrency smoke: the acceptance workload
# ---------------------------------------------------------------------------


class TestConcurrencySmoke:
    def test_200_clients_read_their_writes_through_lag(self):
        """200 concurrent sessions spread over 4 replicated shard groups
        (30s replica lag). Each inserts its own row then reads it back:
        only per-session causal tokens — resumed by whichever pool
        worker serves the request — make the read hit the primary."""
        runtime, _groups = make_replicated_sharded_runtime()
        errors: list[BaseException] = []
        clients = 200

        def one_session(i):
            try:
                with ProxyClient("127.0.0.1", server.port) as client:
                    client.execute(
                        f"INSERT INTO t_user (uid, v) VALUES ({i}, {i + 1000})")
                    rows = client.execute(
                        f"SELECT v FROM t_user WHERE uid = {i}").fetchall()
                    assert rows == [(i + 1000,)], rows
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        with ShardingProxyServer(runtime) as server:
            threads = [threading.Thread(target=one_session, args=(i,))
                       for i in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            stats = server.stats()
            assert not errors, errors[:3]
            assert stats["errors"] == 0
            assert stats["backpressure_rejections"] == 0
            assert stats["sessions_served"] >= clients
            # the whole burst ran on the bounded pool
            assert proxy_thread_count() == 1 + server.workers
        runtime.close()

    def test_1000_sessions_on_a_bounded_thread_pool(self, simple_runtime):
        """1k concurrently-open sessions are served by 1 + workers
        threads, where the pool honours the 2x-CPU envelope."""
        with ShardingProxyServer(simple_runtime) as server:
            assert server.workers == default_worker_count()
            clients = [ProxyClient("127.0.0.1", server.port)
                       for _ in range(1000)]
            try:
                assert server.active_sessions == 1000
                # thread count is a function of the pool, not the
                # session count: the whole point of the reactor
                assert proxy_thread_count() == 1 + server.workers
                errors: list[BaseException] = []

                def drive(chunk):
                    try:
                        for client in chunk:
                            rows = client.execute(
                                "SELECT v FROM t_one WHERE uid = 1").fetchall()
                            assert rows == [(7,)]
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

                drivers = [threading.Thread(target=drive,
                                            args=(clients[i::20],))
                           for i in range(20)]
                for t in drivers:
                    t.start()
                for t in drivers:
                    t.join(timeout=120)
                assert not errors, errors[:3]
                assert server.stats()["errors"] == 0
                assert proxy_thread_count() == 1 + server.workers
            finally:
                for client in clients:
                    client.close()
            assert wait_until(lambda: server.active_sessions == 0)


# ---------------------------------------------------------------------------
# Backpressure: queue-based load leveling
# ---------------------------------------------------------------------------


class TestBackpressure:
    def test_saturation_sheds_load_and_recovers(self):
        """With slow statements, 2 workers and a 2-deep admission queue,
        a 10-client burst must shed the overflow as ServerBusyError —
        and keep serving normally afterwards."""
        slow = LatencyModel(base=0.15, index_io=0.0, row_cost=0.0,
                            commit_io=0.0, scale=1.0)
        runtime = ShardingRuntime({"ds0": DataSource("ds0", latency=slow)})
        runtime.engine.execute("CREATE TABLE t_one (uid INT PRIMARY KEY, v INT)")
        outcomes: list[str] = []
        lock = threading.Lock()

        def one_request(i):
            try:
                with ProxyClient("127.0.0.1", server.port, timeout=30.0) as c:
                    c.execute(f"INSERT INTO t_one (uid, v) VALUES ({i}, 0)")
                outcome = "ok"
            except ServerBusyError:
                outcome = "busy"
            with lock:
                outcomes.append(outcome)

        with ShardingProxyServer(runtime, workers=2, max_queue=2) as server:
            threads = [threading.Thread(target=one_request, args=(i,))
                       for i in range(10)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert len(outcomes) == 10
            assert outcomes.count("busy") >= 1
            assert outcomes.count("ok") >= 2  # workers kept draining
            assert server.stats()["backpressure_rejections"] == outcomes.count("busy")
            # the server recovered: a fresh client is served normally
            with ProxyClient("127.0.0.1", server.port) as client:
                assert client.execute("SELECT COUNT(*) FROM t_one").fetchall() \
                    == [(outcomes.count("ok"),)]
        runtime.close()

    def test_busy_error_does_not_break_the_client(self, simple_runtime):
        """Backpressure is an orderly response: the same client can
        retry on the same socket (framing was never disturbed)."""
        with ShardingProxyServer(simple_runtime, workers=2) as server:
            with ProxyClient("127.0.0.1", server.port) as client:
                # provoke the *pipeline* limit by poking the server's
                # reject path directly is reactor-internal; instead
                # check the wire contract: an ERROR with backpressure
                # set maps to ServerBusyError and leaves the client OK
                session = next(iter(server._sessions))
                server._post(("output", session, encode(
                    PacketType.ERROR,
                    {"message": "server busy: test; retry",
                     "type": "ServerBusyError", "backpressure": True})))
                with pytest.raises(ServerBusyError):
                    client.execute("SELECT v FROM t_one WHERE uid = 1")
                # next request resynchronizes? No: the injected packet
                # consumed nothing, so the *real* answer to the above
                # query is still in flight — drain it, then reuse.
                packet_type, _body = read_packet(client._sock)
                assert packet_type is PacketType.RESULT_HEADER
                while read_packet(client._sock)[0] is not PacketType.RESULT_END:
                    pass
                rows = client.execute(
                    "SELECT v FROM t_one WHERE uid = 1").fetchall()
                assert rows == [(7,)]


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_sessions_are_reaped_on_disconnect(self, simple_runtime):
        with ShardingProxyServer(simple_runtime) as server:
            a = ProxyClient("127.0.0.1", server.port)
            b = ProxyClient("127.0.0.1", server.port)
            assert wait_until(lambda: server.active_sessions == 2)
            a.close()  # polite QUIT
            assert wait_until(lambda: server.active_sessions == 1)
            b._sock.close()  # impolite: peer vanishes mid-session
            assert wait_until(lambda: server.active_sessions == 0)
            assert server.sessions_served == 2
            # runtime-side sessions were unregistered too
            assert wait_until(lambda: len(simple_runtime.sessions) == 0)

    def test_stop_with_connected_clients_is_clean(self, simple_runtime):
        server = ShardingProxyServer(simple_runtime).start()
        clients = [ProxyClient("127.0.0.1", server.port) for _ in range(5)]
        server.stop()
        assert wait_until(lambda: proxy_thread_count() == 0)
        for client in clients:
            with pytest.raises(ProtocolError):
                client.execute("SELECT 1")
            client.close()
        server.stop()  # idempotent

    def test_restart_on_same_object(self, simple_runtime):
        server = ShardingProxyServer(simple_runtime)
        server.start()
        port1 = server.port
        with ProxyClient("127.0.0.1", port1) as client:
            client.execute("SELECT v FROM t_one WHERE uid = 1")
        server.stop()
        server.start()
        with ProxyClient("127.0.0.1", server.port) as client:
            assert client.execute(
                "SELECT v FROM t_one WHERE uid = 1").fetchall() == [(7,)]
        server.stop()

    def test_proxy_metrics_exported(self, simple_runtime):
        with ShardingProxyServer(simple_runtime) as server:
            with ProxyClient("127.0.0.1", server.port) as client:
                client.execute("SELECT v FROM t_one WHERE uid = 1")
            names = {family[0] for family in server._metric_families()}
            assert {"proxy_sessions", "proxy_requests_total",
                    "proxy_backpressure_total", "proxy_workers"} <= names
            text = simple_runtime.observability.registry.render_prometheus()
            assert "proxy_requests_total" in text
        # unregistered on stop
        text = simple_runtime.observability.registry.render_prometheus()
        assert "proxy_requests_total" not in text


# ---------------------------------------------------------------------------
# Reactor framing + SHOW SESSIONS
# ---------------------------------------------------------------------------


class TestReactorFraming:
    def test_trickled_bytes_are_reassembled(self, simple_runtime):
        """The reactor frames incrementally: a client dribbling one byte
        at a time still gets a well-formed response."""
        with ShardingProxyServer(simple_runtime) as server:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                sock.settimeout(10)
                for byte in encode(PacketType.HANDSHAKE, {"client": "drip"}):
                    sock.sendall(bytes([byte]))
                packet_type, body = read_packet(sock)
                assert packet_type is PacketType.HANDSHAKE_OK
                assert body["session_id"]
                query = encode(PacketType.QUERY,
                               {"sql": "SELECT v FROM t_one WHERE uid = 1",
                                "params": []})
                sock.sendall(query[:3])
                time.sleep(0.05)
                sock.sendall(query[3:])
                assert read_packet(sock)[0] is PacketType.RESULT_HEADER

    def test_garbage_frame_gets_error_then_close(self, simple_runtime):
        with ShardingProxyServer(simple_runtime) as server:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                sock.settimeout(10)
                sock.sendall(b"\xff\xff\xff\xff\xffGET / HTTP/1.1")
                packet_type, body = read_packet(sock)
                assert packet_type is PacketType.ERROR
                assert body["type"] == "ProtocolError"
                assert sock.recv(1) == b""  # server hung up
            assert wait_until(lambda: server.active_sessions == 0)

    def test_show_sessions_over_the_proxy(self, simple_runtime):
        with ShardingProxyServer(simple_runtime) as server:
            with ProxyClient("127.0.0.1", server.port) as a, \
                    ProxyClient("127.0.0.1", server.port) as b:
                a.execute("SELECT v FROM t_one WHERE uid = 1")
                result = b.execute("SHOW SESSIONS")
                kinds = [row[result.columns.index("kind")]
                         for row in result.rows]
                assert kinds.count("proxy") >= 2
                ids = {row[0] for row in result.rows}
                assert a.server_info["session_id"] in ids
                assert b.server_info["session_id"] in ids


# ---------------------------------------------------------------------------
# Client hardening against bad peers
# ---------------------------------------------------------------------------


@pytest.fixture
def wedged_server():
    """Accepts connections, optionally answers the handshake, then goes
    silent forever — the half-closed/wedged peer the client must not
    hang on."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    port = listener.getsockname()[1]
    stop = threading.Event()
    held: list[socket.socket] = []

    def serve(answer_handshake):
        while not stop.is_set():
            try:
                sock, _ = listener.accept()
            except OSError:
                return
            held.append(sock)
            if answer_handshake:
                try:
                    read_packet(sock)
                    send_packet(sock, PacketType.HANDSHAKE_OK, {"server": "wedge"})
                except (OSError, ProtocolError):
                    pass
            # ...and never speak again

    state = {"port": port, "listener": listener, "stop": stop,
             "held": held, "serve": serve, "thread": None}

    def start(answer_handshake):
        state["thread"] = threading.Thread(
            target=serve, args=(answer_handshake,), daemon=True)
        state["thread"].start()
        return port

    state["start"] = start
    yield state
    stop.set()
    if state["thread"] is not None:
        # closing a listening socket from another thread does not wake a
        # blocked accept() on Linux; one last connection does
        socket.create_connection(("127.0.0.1", port), timeout=5).close()
        state["thread"].join(timeout=5)
        assert not state["thread"].is_alive(), "wedged_server's accept loop never woke"
    listener.close()
    for sock in held:
        try:
            sock.close()
        except OSError:
            pass


class TestClientHardening:
    def test_handshake_timeout_raises_not_hangs(self, wedged_server):
        port = wedged_server["start"](False)
        started = time.monotonic()
        with pytest.raises(ProtocolError, match="handshake"):
            ProxyClient("127.0.0.1", port, timeout=0.3)
        assert time.monotonic() - started < 5

    def test_request_timeout_poisons_the_client(self, wedged_server):
        port = wedged_server["start"](True)
        client = ProxyClient("127.0.0.1", port, timeout=0.3)
        with pytest.raises(ProtocolError, match="timed out"):
            client.execute("SELECT 1")
        # the stream position is unknowable: the client refuses reuse
        with pytest.raises(ProtocolError, match="broken"):
            client.execute("SELECT 1")
        client.close()

    def test_peer_hangup_mid_request(self, simple_runtime):
        with ShardingProxyServer(simple_runtime) as server:
            client = ProxyClient("127.0.0.1", server.port, timeout=2.0)
            server.stop()
            with pytest.raises(ProtocolError):
                client.execute("SELECT v FROM t_one WHERE uid = 1")
            client.close()

    def test_server_error_does_not_poison(self, simple_runtime):
        """Semantic errors keep framing intact: the client stays live."""
        with ShardingProxyServer(simple_runtime) as server:
            with ProxyClient("127.0.0.1", server.port) as client:
                with pytest.raises(ExecutionError):
                    client.execute("SELECT v FROM t_missing WHERE uid = 1")
                assert client.execute(
                    "SELECT v FROM t_one WHERE uid = 1").fetchall() == [(7,)]
            assert server.stats()["errors"] == 1
