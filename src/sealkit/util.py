"""Shared runtime helpers: seeded randomness and the simulated clock."""

from __future__ import annotations

import datetime
import random
import struct


def make_rng(seed: int | None = None) -> random.Random:
    """Deterministic generator for a given seed; OS entropy otherwise."""
    if seed is None:
        return random.SystemRandom()
    return random.Random(seed)


class SimClock:
    """Monotonic simulated clock.

    Every observation advances time by one second, so repeated runs with
    the same seed produce byte-identical timestamps in logs and dumps.
    """

    EPOCH = datetime.datetime(2021, 3, 1, 0, 0, 0, tzinfo=datetime.timezone.utc)

    def __init__(self):
        self._ticks = 0

    def now(self) -> datetime.datetime:
        current = self.EPOCH + datetime.timedelta(seconds=self._ticks)
        self._ticks += 1
        return current

    def stamp(self) -> str:
        return self.now().strftime("%a %b %d %H:%M:%S UTC %Y")

    def zip_date_time(self) -> tuple[int, int, int, int, int, int]:
        t = self.now()
        return (t.year, t.month, t.day, t.hour, t.minute, t.second)


def pack_bytes(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def unpack_bytes(buf: bytes, offset: int) -> tuple[bytes, int]:
    if offset + 4 > len(buf):
        raise ValueError("truncated length prefix")
    (n,) = struct.unpack_from(">I", buf, offset)
    offset += 4
    if offset + n > len(buf):
        raise ValueError("truncated payload")
    return buf[offset : offset + n], offset + n
