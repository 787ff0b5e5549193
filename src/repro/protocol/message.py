"""Wire protocol framing for the proxy adaptor.

A simplified stand-in for the MySQL/PostgreSQL client-server protocols the
real ShardingSphere-Proxy implements: length-prefixed packets carrying a
one-byte command/response type and a JSON body. What matters for the
paper's measurements is that every proxy request really crosses a socket
with serialize/deserialize cost on both sides.

Packet layout: ``uint32 length (big endian) | uint8 type | body(json)``.
"""

from __future__ import annotations

import datetime
import enum
import json
import socket
import struct
from typing import Any

from ..exceptions import ProtocolError

MAX_PACKET = 64 * 1024 * 1024


class PacketType(enum.IntEnum):
    # client -> server
    HANDSHAKE = 1
    QUERY = 2
    QUIT = 3
    # server -> client
    HANDSHAKE_OK = 10
    OK = 11
    RESULT_HEADER = 12
    ROW_BATCH = 13
    RESULT_END = 14
    ERROR = 15


def _default(value: Any) -> Any:
    if isinstance(value, (datetime.datetime, datetime.date)):
        return {"__dt__": value.isoformat()}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _object_hook(obj: dict) -> Any:
    if "__dt__" in obj and len(obj) == 1:
        return datetime.datetime.fromisoformat(obj["__dt__"])
    return obj


# One coder of each kind per process: ``json.dumps(default=)`` and
# ``json.loads(object_hook=)`` build a new one per call. Both hold only
# their settings, so threads share them as ``json`` shares its defaults.
_ENCODER = json.JSONEncoder(default=_default)
_DECODER = json.JSONDecoder(object_hook=_object_hook)


def encode(packet_type: PacketType, body: Any) -> bytes:
    payload = _ENCODER.encode(body).encode("utf-8")
    if len(payload) + 1 > MAX_PACKET:
        raise ProtocolError(f"packet of {len(payload)} bytes exceeds limit")
    return struct.pack(">IB", len(payload) + 1, int(packet_type)) + payload


def read_packet(sock: socket.socket) -> tuple[PacketType, Any]:
    header = _read_exact(sock, 5)
    (length, type_byte) = struct.unpack(">IB", header)
    if length < 1 or length > MAX_PACKET:
        raise ProtocolError(f"bad packet length {length}")
    payload = _read_exact(sock, length - 1)
    try:
        packet_type = PacketType(type_byte)
    except ValueError:
        raise ProtocolError(f"unknown packet type {type_byte}") from None
    body = _DECODER.decode(payload.decode("utf-8")) if payload else None
    return packet_type, body


def send_packet(sock: socket.socket, packet_type: PacketType, body: Any) -> None:
    sock.sendall(encode(packet_type, body))


def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError("connection closed mid-packet")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def decode_body(payload: bytes) -> Any:
    """Decode one packet body (the reactor defers this to worker threads
    so JSON cost never serializes on the single reactor thread)."""
    if not payload:
        return None
    return _DECODER.decode(payload.decode("utf-8"))


class Framer:
    """Incremental, non-blocking packet framer for the proxy reactor.

    Bytes arrive from ``recv`` in arbitrary slices — possibly splitting
    the 5-byte header itself — and :meth:`feed` buffers until whole
    packets are available. Bodies are returned as raw payload bytes
    (see :func:`decode_body`); malformed lengths or unknown types raise
    :class:`ProtocolError` so the server can reject the client instead
    of mis-framing everything after.
    """

    __slots__ = ("_buf",)

    HEADER = 5

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def buffered(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes) -> list[tuple[PacketType, bytes]]:
        """Append received bytes; return every now-complete packet."""
        self._buf += data
        packets: list[tuple[PacketType, bytes]] = []
        buf = self._buf
        offset = 0
        while len(buf) - offset >= self.HEADER:
            length, type_byte = struct.unpack_from(">IB", buf, offset)
            if length < 1 or length > MAX_PACKET:
                raise ProtocolError(f"bad packet length {length}")
            end = offset + self.HEADER + (length - 1)
            if len(buf) < end:
                break
            try:
                packet_type = PacketType(type_byte)
            except ValueError:
                raise ProtocolError(f"unknown packet type {type_byte}") from None
            packets.append((packet_type, bytes(buf[offset + self.HEADER:end])))
            offset = end
        if offset:
            del buf[:offset]
        return packets
