"""Background UE traffic: iPerf-style constant-bitrate UDP load.

Each UE is a CBR source emitting fixed-size datagrams at exact integer
nanosecond times: packet k of a flow at rate r arrives at
floor(k * packet_bits * 1e9 / r), so the long-run offered rate matches the
configured rate to within one packet regardless of tick size.
"""

from __future__ import annotations

import math
import socket
import time
from dataclasses import dataclass

from .netem import Direction

DEFAULT_PACKET_BYTES = 1400


@dataclass(frozen=True)
class BackgroundLoad:
    ue_count: int
    per_ue_rate_bps: int
    direction: Direction
    packet_size_bytes: int = DEFAULT_PACKET_BYTES

    def __post_init__(self) -> None:
        if self.ue_count < 0:
            raise ValueError("ue_count must be nonnegative")
        if self.per_ue_rate_bps < 0:
            raise ValueError("rate must be nonnegative")
        if self.packet_size_bytes <= 0:
            raise ValueError("packet size must be positive")

    @property
    def total_rate_bps(self) -> int:
        return self.ue_count * self.per_ue_rate_bps


def parse_load(text: str, direction: Direction,
               packet_size_bytes: int = DEFAULT_PACKET_BYTES) -> BackgroundLoad:
    """Parse a load spec like "1x5" (1 UE at 5 Mbps) or "none"."""
    cleaned = text.strip().lower()
    if cleaned in ("none", "no load", ""):
        return BackgroundLoad(ue_count=0, per_ue_rate_bps=0, direction=direction,
                              packet_size_bytes=packet_size_bytes)
    try:
        count_str, mbps_str = cleaned.split("x")
        ue_count = int(count_str)
        rate_bps = float(mbps_str) * 1_000_000
        if not math.isfinite(rate_bps):
            raise ValueError
    except ValueError:
        raise ValueError(
            f"load spec {text!r} must look like '<ue_count>x<mbps>' or 'none'") from None
    return BackgroundLoad(ue_count=ue_count,
                          per_ue_rate_bps=round(rate_bps),
                          direction=direction,
                          packet_size_bytes=packet_size_bytes)


class CbrPacketSource:
    """Packet arrival stream for one UE flow.

    arrivals(t0, t1) yields the (time_ns, size_bits) pairs falling in
    [t0, t1); windows must be queried in increasing, non-overlapping order.
    open_window(t0, t1), take_before(t) and next_arrival() consume the same
    stream by count instead, for callers that enqueue packets in runs.
    """

    def __init__(self, flow_id: str, rate_bps: int,
                 packet_size_bytes: int = DEFAULT_PACKET_BYTES,
                 start_ns: int = 0, stop_ns: int | None = None) -> None:
        if rate_bps < 0:
            raise ValueError("rate must be nonnegative")
        self.flow_id = flow_id
        self.rate_bps = rate_bps
        self.packet_bits = packet_size_bytes * 8
        self.start_ns = start_ns
        self.stop_ns = stop_ns
        self._k = 0
        self._window_t1 = start_ns
        self._window_end = 0

    def _packet_time(self, k: int) -> int:
        return self.start_ns + (k * self.packet_bits * 1_000_000_000) // self.rate_bps

    def _count_before(self, t: int) -> int:
        """Packets of the whole stream arriving before t: the k with
        _packet_time(k) < t, i.e. k * packet_bits * 1e9 < (t - start) * rate."""
        if self.stop_ns is not None and t > self.stop_ns:
            t = self.stop_ns
        span = t - self.start_ns
        if span <= 0 or self.rate_bps == 0:
            return 0
        return -(-span * self.rate_bps // (self.packet_bits * 1_000_000_000))

    def arrivals(self, t0: int, t1: int):
        if self.rate_bps == 0:
            return
        while True:
            t = self._packet_time(self._k)
            if t >= t1 or (self.stop_ns is not None and t >= self.stop_ns):
                return
            self._k += 1
            if t >= t0:
                yield t, self.packet_bits

    def open_window(self, t0: int, t1: int) -> int | None:
        """Start on the window [t0, t1), skipping packets before t0 as
        arrivals() does; returns the window's first arrival time, or None
        if no packet arrives in it."""
        skipped = self._count_before(t0)
        if skipped > self._k:
            self._k = skipped
        self._window_t1 = t1
        self._window_end = self._count_before(t1)
        return self.next_arrival()

    def next_arrival(self) -> int | None:
        """Time of the open window's next packet, or None when it has none."""
        return self._packet_time(self._k) if self._k < self._window_end else None

    def take_before(self, t: int) -> int:
        """Consume the open window's packets arriving before t; returns how
        many there were."""
        end = self._window_end
        if t < self._window_t1:
            end = min(end, self._count_before(t))
        if end <= self._k:
            return 0
        taken, self._k = end - self._k, end
        return taken


def blast_udp(target: tuple[str, int], rate_bps: int, duration_s: float,
              packet_size_bytes: int = DEFAULT_PACKET_BYTES) -> int:
    """Real-socket CBR UDP blaster for loopback/lab use; returns packets sent."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    payload = b"\x00" * packet_size_bytes
    interval = packet_size_bytes * 8 / rate_bps
    deadline = time.monotonic() + duration_s
    next_send = time.monotonic()
    sent = 0
    try:
        while time.monotonic() < deadline:
            sock.sendto(payload, target)
            sent += 1
            next_send += interval
            sleep_for = next_send - time.monotonic()
            if sleep_for > 0:
                time.sleep(sleep_for)
    finally:
        sock.close()
    return sent
