"""Background UE traffic: iPerf-style constant-bitrate UDP load.

Each UE is a CBR source emitting fixed-size datagrams at exact integer
nanosecond times: packet k of a flow at rate r arrives at
floor(k * packet_bits * 1e9 / r), so the long-run offered rate matches the
configured rate to within one packet regardless of tick size.  A source
keeps no position in its stream: packet_time(k), count_before(t) and
arrivals(t0, t1) are pure, and the emulator keeps each one's next packet.
"""

from __future__ import annotations

import math
import socket
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
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

    Two pure functions count the stream: packet k arrives at
    packet_time(k), and count_before(t) is the number of packets arriving
    before t, so the packets in [t0, t1) are those numbered
    count_before(t0) to count_before(t1) - 1.  arrivals(t0, t1) yields
    their (time_ns, size_bits) pairs, for any window in any order.
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

    def packet_time(self, k: int) -> int:
        return self.start_ns + (k * self.packet_bits * 1_000_000_000) // self.rate_bps

    def count_before(self, t: int) -> int:
        """Packets of the whole stream arriving before t and before stop_ns:
        the k with packet_time(k) < t, i.e. k * packet_bits * 1e9 <
        (t - start) * rate."""
        if self.stop_ns is not None and t > self.stop_ns:
            t = self.stop_ns
        span = t - self.start_ns
        if span <= 0 or self.rate_bps == 0:
            return 0
        return -(-span * self.rate_bps // (self.packet_bits * 1_000_000_000))

    def arrivals(self, t0: int, t1: int):
        for k in range(self.count_before(t0), self.count_before(t1)):
            yield self.packet_time(k), self.packet_bits


def blast_udp(target: tuple[str, int], rate_bps: float, duration_s: float,
              packet_size_bytes: int = DEFAULT_PACKET_BYTES) -> int:
    """Real-socket CBR UDP blaster for loopback/lab use; returns packets sent.
    It sends until duration_s has passed, and never sleeps past that."""
    if rate_bps <= 0:
        raise ValueError("rate must be positive")
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
            sleep_for = min(next_send, deadline) - time.monotonic()
            if sleep_for > 0:
                time.sleep(sleep_for)
    finally:
        sock.close()
    return sent
