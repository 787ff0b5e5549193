"""Edge-case tests for the wire protocol: fragmentation, limits, garbage."""

import io
import socket
import struct
import threading

import pytest

from repro.exceptions import ProtocolError
from repro.protocol import PacketType, encode
from repro.protocol.message import MAX_PACKET, read_packet, send_packet


class FakeSock:
    """A socket stub that serves bytes in configurable chunk sizes."""

    def __init__(self, data: bytes, chunk: int = 1):
        self.buffer = io.BytesIO(data)
        self.chunk = chunk

    def recv(self, n: int) -> bytes:
        return self.buffer.read(min(n, self.chunk))


class TestFraming:
    def test_one_byte_at_a_time(self):
        raw = encode(PacketType.QUERY, {"sql": "SELECT 1", "params": []})
        packet_type, body = read_packet(FakeSock(raw, chunk=1))
        assert packet_type is PacketType.QUERY
        assert body["sql"] == "SELECT 1"

    def test_irregular_chunks(self):
        raw = encode(PacketType.ROW_BATCH, {"rows": [[1, "x", None, True]] * 50})
        packet_type, body = read_packet(FakeSock(raw, chunk=7))
        assert packet_type is PacketType.ROW_BATCH
        assert len(body["rows"]) == 50

    def test_back_to_back_packets(self):
        raw = encode(PacketType.OK, {"rowcount": 1}) + encode(PacketType.OK, {"rowcount": 2})
        sock = FakeSock(raw, chunk=3)
        _, first = read_packet(sock)
        _, second = read_packet(sock)
        assert (first["rowcount"], second["rowcount"]) == (1, 2)

    def test_empty_body(self):
        raw = encode(PacketType.RESULT_END, None)
        packet_type, body = read_packet(FakeSock(raw))
        assert packet_type is PacketType.RESULT_END
        assert body is None

    def test_unicode_payload(self):
        raw = encode(PacketType.QUERY, {"sql": "SELECT '数据分片'"})
        _, body = read_packet(FakeSock(raw))
        assert body["sql"] == "SELECT '数据分片'"

    def test_unknown_type_byte(self):
        payload = b"{}"
        raw = struct.pack(">IB", len(payload) + 1, 250) + payload
        with pytest.raises(ProtocolError, match="unknown packet type"):
            read_packet(FakeSock(raw))

    def test_oversized_length_rejected(self):
        raw = struct.pack(">IB", MAX_PACKET + 10, int(PacketType.QUERY))
        with pytest.raises(ProtocolError, match="bad packet length"):
            read_packet(FakeSock(raw))

    def test_oversized_encode_rejected(self):
        with pytest.raises(ProtocolError):
            encode(PacketType.ROW_BATCH, {"blob": "x" * (MAX_PACKET + 1)})

    def test_bytes_are_json_dumps_and_datetimes_round_trip(self):
        import datetime
        import json

        from repro.protocol.message import _default, decode_body

        when = datetime.datetime(2022, 5, 9, 12, 30, 1)
        body = {"rows": [[1, "é", None, True, 2.5, when]], "columns": ["a"]}
        raw = encode(PacketType.ROW_BATCH, body)
        assert raw[5:] == json.dumps(body, default=_default).encode("utf-8")
        assert decode_body(raw[5:]) == body
        assert read_packet(FakeSock(raw, chunk=4)) == (PacketType.ROW_BATCH, body)

    def test_truncated_mid_body(self):
        raw = encode(PacketType.QUERY, {"sql": "SELECT 1"})
        with pytest.raises(ProtocolError, match="closed mid-packet"):
            read_packet(FakeSock(raw[: len(raw) - 3]))


class TestRealSocketPair:
    def test_send_and_read_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            payload = {"rows": [[i, f"row-{i}"] for i in range(100)]}

            def writer():
                send_packet(left, PacketType.ROW_BATCH, payload)

            thread = threading.Thread(target=writer)
            thread.start()
            packet_type, body = read_packet(right)
            thread.join()
            assert packet_type is PacketType.ROW_BATCH
            assert body == payload
        finally:
            left.close()
            right.close()
