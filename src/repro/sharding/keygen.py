"""Distributed key generators.

Sharded INSERTs cannot rely on per-table AUTO_INCREMENT (two shards would
hand out the same id), so ShardingSphere generates keys in the middleware.
We provide the same two presets as upstream: SNOWFLAKE (time-ordered
64-bit ids) and UUID, behind an SPI-style registry.
"""

from __future__ import annotations

import abc
import threading
import uuid
from typing import Any

from .. import clock
from ..exceptions import ShardingConfigError, UnknownAlgorithmError

#: Snowflake epoch used by ShardingSphere (2016-11-01 00:00:00 UTC).
SNOWFLAKE_EPOCH_MS = 1477958400000

_WORKER_ID_BITS = 10
_SEQUENCE_BITS = 12
_MAX_WORKER_ID = (1 << _WORKER_ID_BITS) - 1
_SEQUENCE_MASK = (1 << _SEQUENCE_BITS) - 1


class KeyGenerator(abc.ABC):
    """Base class for distributed key generators."""

    type_name: str = ""

    def __init__(self, props: dict[str, Any] | None = None):
        self.props = dict(props or {})

    @abc.abstractmethod
    def next_key(self) -> Any:
        """Generate the next key."""


class SnowflakeKeyGenerator(KeyGenerator):
    """64-bit ids: 41-bit ms timestamp | 10-bit worker id | 12-bit sequence.

    Monotonic per worker; tolerates small clock regressions by waiting.
    """

    type_name = "SNOWFLAKE"

    def __init__(self, props: dict[str, Any] | None = None):
        super().__init__(props)
        self.worker_id = int(self.props.get("worker-id", 0))
        if not 0 <= self.worker_id <= _MAX_WORKER_ID:
            raise ShardingConfigError(f"worker-id must be in [0, {_MAX_WORKER_ID}]")
        self._lock = threading.Lock()
        self._last_ms = -1
        self._sequence = 0

    @staticmethod
    def _now_ms() -> int:
        return int(clock.wall() * 1000)

    def next_key(self) -> int:
        with self._lock:
            now = self._now_ms()
            if now < self._last_ms:
                # Clock went backwards: spin until it catches up.
                while now < self._last_ms:
                    clock.sleep(0.0005)
                    now = self._now_ms()
            if now == self._last_ms:
                self._sequence = (self._sequence + 1) & _SEQUENCE_MASK
                if self._sequence == 0:
                    while now <= self._last_ms:
                        now = self._now_ms()
            else:
                self._sequence = 0
            self._last_ms = now
            timestamp = now - SNOWFLAKE_EPOCH_MS
            return (timestamp << (_WORKER_ID_BITS + _SEQUENCE_BITS)) | (
                self.worker_id << _SEQUENCE_BITS
            ) | self._sequence

    @staticmethod
    def extract_timestamp_ms(key: int) -> int:
        """Recover the millisecond timestamp embedded in a snowflake id."""
        return (key >> (_WORKER_ID_BITS + _SEQUENCE_BITS)) + SNOWFLAKE_EPOCH_MS


class UUIDKeyGenerator(KeyGenerator):
    """Random 32-hex-char keys (UUID4 without dashes, as upstream)."""

    type_name = "UUID"

    def next_key(self) -> str:
        return uuid.uuid4().hex


_GENERATORS: dict[str, type[KeyGenerator]] = {}


def register_key_generator(cls: type[KeyGenerator]) -> type[KeyGenerator]:
    """Register a key generator class (SPI analogue); decorator-friendly."""
    if not cls.type_name:
        raise ShardingConfigError(f"{cls.__name__} must define a type_name")
    _GENERATORS[cls.type_name.upper()] = cls
    return cls


def create_key_generator(type_name: str, props: dict[str, Any] | None = None) -> KeyGenerator:
    try:
        cls = _GENERATORS[type_name.upper()]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown key generator {type_name!r}; known: {sorted(_GENERATORS)}"
        ) from None
    return cls(props)


def available_key_generators() -> list[str]:
    return sorted(_GENERATORS)


register_key_generator(SnowflakeKeyGenerator)
register_key_generator(UUIDKeyGenerator)
