"""Tests for the JDBC and Proxy adaptors plus the wire protocol."""

import socket
import threading

import pytest

from repro.adaptors import (
    ShardingConnection,
    ShardingDataSource,
    ShardingProxyServer,
    ShardingRuntime,
)
from repro.exceptions import (
    ConnectionClosedError,
    ExecutionError,
    ProtocolError,
    TransactionError,
    UnsupportedSQLError,
)
from repro.protocol import PacketType, ProxyClient, encode
from repro.protocol.message import read_packet, send_packet


@pytest.fixture
def runtime():
    rt = ShardingRuntime()
    with ShardingDataSource(rt).get_connection() as conn:
        conn.execute("REGISTER RESOURCE ds0, ds1")
        conn.execute(
            "CREATE SHARDING TABLE RULE t_user (RESOURCES(ds0, ds1), "
            "SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES('sharding-count'=2))"
        )
        conn.execute("CREATE TABLE t_user (uid INT PRIMARY KEY, name VARCHAR(64), age INT)")
        conn.execute(
            "INSERT INTO t_user (uid, name, age) VALUES "
            "(1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35)"
        )
    yield rt
    rt.close()


class TestShardingDataSource:
    def test_query_round_trip(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        result = conn.execute("SELECT name FROM t_user WHERE uid = 2")
        assert result.fetchall() == [("bob",)]
        conn.close()

    def test_fetch_interfaces(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        result = conn.execute("SELECT uid FROM t_user ORDER BY uid")
        assert result.fetchone() == (1,)
        assert result.fetchmany(1) == [(2,)]
        assert result.fetchall() == [(3,)]
        assert result.fetchone() is None
        conn.close()

    def test_description(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        result = conn.execute("SELECT uid, name FROM t_user WHERE uid = 1")
        assert [d[0] for d in result.description] == ["uid", "name"]
        assert conn.execute("DELETE FROM t_user WHERE uid = 99").description is None
        conn.close()

    def test_closed_connection_rejects(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.close()
        with pytest.raises(ConnectionClosedError):
            conn.execute("SELECT 1")

    def test_transaction_commit(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.begin()
        conn.execute("UPDATE t_user SET age = 99 WHERE uid = 1")
        conn.execute("UPDATE t_user SET age = 98 WHERE uid = 2")
        conn.commit()
        rows = conn.execute("SELECT age FROM t_user WHERE uid IN (1, 2) ORDER BY uid").fetchall()
        assert rows == [(99,), (98,)]
        conn.close()

    def test_transaction_rollback_spans_shards(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.begin()
        conn.execute("UPDATE t_user SET age = 0")  # hits both shards
        conn.rollback()
        rows = conn.execute("SELECT SUM(age) FROM t_user").fetchall()
        assert rows == [(90,)]
        conn.close()

    def test_read_your_writes_in_transaction(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.begin()
        conn.execute("UPDATE t_user SET age = 77 WHERE uid = 3")
        rows = conn.execute("SELECT age FROM t_user WHERE uid = 3").fetchall()
        assert rows == [(77,)]
        conn.rollback()
        conn.close()

    def test_nested_begin_rejected(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.begin()
        with pytest.raises(TransactionError):
            conn.begin()
        conn.rollback()
        conn.close()

    def test_close_rolls_back(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.begin()
        conn.execute("DELETE FROM t_user")
        conn.close()
        check = ShardingDataSource(runtime).get_connection()
        assert check.execute("SELECT COUNT(*) FROM t_user").fetchall() == [(3,)]
        check.close()

    def test_sql_level_tcl(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.execute("BEGIN")
        assert conn.in_transaction
        conn.execute("DELETE FROM t_user WHERE uid = 1")
        conn.execute("ROLLBACK")
        assert not conn.in_transaction
        assert conn.execute("SELECT COUNT(*) FROM t_user").fetchall() == [(3,)]
        conn.close()

    def test_xa_transaction_type(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.execute("SET VARIABLE transaction_type = 'XA'")
        conn.begin()
        conn.execute("UPDATE t_user SET age = age + 1")
        conn.commit()
        assert conn.execute("SELECT SUM(age) FROM t_user").fetchall() == [(93,)]
        conn.close()

    def test_generated_keys_surface(self, runtime):
        with ShardingDataSource(runtime).get_connection() as conn:
            conn.execute(
                "CREATE SHARDING TABLE RULE t_auto (RESOURCES(ds0, ds1), "
                "SHARDING_COLUMN=id, TYPE=hash_mod, PROPERTIES('sharding-count'=2), "
                "KEY_GENERATE_COLUMN=id, KEY_GENERATOR=snowflake)"
            )
            conn.execute("CREATE TABLE t_auto (id BIGINT PRIMARY KEY, v VARCHAR(10))")
            result = conn.execute("INSERT INTO t_auto (v) VALUES ('x'), ('y')")
            assert result.rowcount == 2
            column, keys = result.generated_keys
            assert column == "id"
            assert len(keys) == 2

    def test_hints(self, runtime):
        conn = ShardingDataSource(runtime).get_connection()
        conn.set_hint(1)
        assert conn.hint_values == [1]
        conn.clear_hint()
        assert conn.hint_values == []
        conn.close()


class TestCommentedStatements:
    """A statement's leading words are read past comments, as the lexer
    reads them: a commented BEGIN, ROLLBACK or DistSQL statement is still
    what it says."""

    def test_commented_begin_and_rollback_drive_the_transaction(self, runtime):
        with ShardingDataSource(runtime).get_connection() as conn:
            conn.execute("/* c */ BEGIN")
            assert conn.in_transaction
            conn.execute("INSERT INTO t_user (uid, name, age) VALUES (7, 'dave', 40)")
            assert conn.in_transaction
            conn.execute("-- x\nROLLBACK")
            assert not conn.in_transaction
            assert conn.execute("SELECT COUNT(*) FROM t_user WHERE uid = 7").fetchall() == [(0,)]

    def test_commented_distsql_is_distsql(self, runtime):
        with ShardingDataSource(runtime).get_connection() as conn:
            assert conn.execute("/* c */ SET VARIABLE tracing = on").message == "tracing = ON"
            shown = conn.execute("-- x\nSHOW VARIABLE tracing")
            assert (shown.columns, shown.fetchall()) == (["variable", "value"], [("tracing", "ON")])
            traced = conn.execute("/* c */ TRACE SELECT name FROM t_user WHERE uid = 1")
            assert traced.columns == ["span", "wall_ms", "simulated_ms", "detail"]
            assert traced.message.startswith("trace #")

    def test_pipeline_refuses_a_commented_commit(self, runtime):
        with ShardingDataSource(runtime).get_connection() as conn:
            conn.begin()
            conn.execute_pipeline([("INSERT INTO t_user (uid, name, age) VALUES (7, 'dave', 40)", ())])
            with pytest.raises(UnsupportedSQLError):
                conn.execute_pipeline([
                    ("INSERT INTO t_user (uid, name, age) VALUES (8, 'erin', 41)", ()),
                    ("/* c */ COMMIT", ()),
                ])
            assert conn.in_transaction
            conn.rollback()
            rows = conn.execute("SELECT uid FROM t_user WHERE uid IN (7, 8)").fetchall()
            assert rows == []


@pytest.fixture
def proxy(runtime):
    server = ShardingProxyServer(runtime).start()
    yield server
    server.stop()


class TestProxy:
    def test_handshake(self, proxy):
        client = ProxyClient("127.0.0.1", proxy.port)
        assert "repro-shardingsphere-proxy" in client.server_info["server"]
        client.close()

    def test_query_round_trip(self, proxy):
        with ProxyClient("127.0.0.1", proxy.port) as client:
            rows = client.execute("SELECT name FROM t_user WHERE uid = 1").fetchall()
            assert rows == [("alice",)]

    def test_dml_rowcount(self, proxy):
        with ProxyClient("127.0.0.1", proxy.port) as client:
            result = client.execute("UPDATE t_user SET age = 50 WHERE uid = 2")
            assert result.rowcount == 1

    def test_multi_row_streaming(self, proxy, runtime):
        with ShardingDataSource(runtime).get_connection() as conn:
            rows = ", ".join(f"({i + 10}, 'u{i}', {20 + i % 30})" for i in range(500))
            conn.execute(f"INSERT INTO t_user (uid, name, age) VALUES {rows}")
        with ProxyClient("127.0.0.1", proxy.port) as client:
            fetched = client.execute("SELECT uid FROM t_user ORDER BY uid").fetchall()
            assert len(fetched) == 503

    def test_error_keeps_session_alive(self, proxy):
        with ProxyClient("127.0.0.1", proxy.port) as client:
            with pytest.raises(ExecutionError):
                client.execute("SELECT * FROM no_such_table_anywhere")
            assert client.execute("SELECT COUNT(*) FROM t_user").fetchall()[0][0] >= 3

    def test_per_session_transactions(self, proxy):
        with ProxyClient("127.0.0.1", proxy.port) as a, ProxyClient("127.0.0.1", proxy.port) as b:
            a.begin()
            a.execute("UPDATE t_user SET age = 1 WHERE uid = 1")
            a.rollback()
            rows = b.execute("SELECT age FROM t_user WHERE uid = 1").fetchall()
            assert rows == [(30,)]

    def test_commented_tcl_over_proxy(self, proxy):
        with ProxyClient("127.0.0.1", proxy.port) as client:
            client.execute("/* c */ BEGIN")
            client.execute("UPDATE t_user SET age = 1 WHERE uid = 1")
            client.execute("-- x\nROLLBACK")
            rows = client.execute("SELECT age FROM t_user WHERE uid = 1").fetchall()
            assert rows == [(30,)]

    def test_distsql_over_proxy(self, proxy):
        with ProxyClient("127.0.0.1", proxy.port) as client:
            rows = client.execute("SHOW SHARDING TABLE RULES").fetchall()
            assert rows[0][0] == "t_user"

    def test_concurrent_clients(self, proxy):
        errors = []

        def worker():
            try:
                with ProxyClient("127.0.0.1", proxy.port) as client:
                    for _ in range(10):
                        client.execute("SELECT * FROM t_user WHERE uid = 1").fetchall()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors

    def test_bad_handshake_rejected(self, proxy):
        sock = socket.create_connection(("127.0.0.1", proxy.port))
        send_packet(sock, PacketType.QUERY, {"sql": "SELECT 1"})
        packet_type, body = read_packet(sock)
        assert packet_type is PacketType.ERROR
        sock.close()


class TestProtocolFraming:
    def test_encode_decode_roundtrip(self):
        import io

        payload = {"sql": "SELECT 'héllo'", "params": [1, 2.5, None, True]}
        raw = encode(PacketType.QUERY, payload)

        class FakeSock:
            def __init__(self, data):
                self.buffer = io.BytesIO(data)

            def recv(self, n):
                return self.buffer.read(n)

        packet_type, body = read_packet(FakeSock(raw))
        assert packet_type is PacketType.QUERY
        assert body == payload

    def test_datetime_survives(self):
        import datetime
        import io

        moment = datetime.datetime(2021, 11, 10, 12, 0)
        raw = encode(PacketType.ROW_BATCH, {"rows": [[moment]]})

        class FakeSock:
            def __init__(self, data):
                self.buffer = io.BytesIO(data)

            def recv(self, n):
                return self.buffer.read(n)

        _, body = read_packet(FakeSock(raw))
        assert body["rows"][0][0] == moment

    def test_truncated_packet_raises(self):
        class EmptySock:
            def recv(self, n):
                return b""

        with pytest.raises(ProtocolError):
            read_packet(EmptySock())
