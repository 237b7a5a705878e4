"""Constant-bitrate background traffic tests."""

from __future__ import annotations

import socket
import time

import pytest

from cv2x_bench.loadgen import (BackgroundLoad, CbrPacketSource, blast_udp,
                                parse_load)
from cv2x_bench.netem import Direction

TICK = 2_500_000


def test_parse_load_none():
    load = parse_load("none", Direction.UPLINK)
    assert load.ue_count == 0


def test_parse_load_rejects_garbage():
    with pytest.raises(ValueError):
        parse_load("fast", Direction.UPLINK)
    with pytest.raises(ValueError):
        parse_load("2x", Direction.UPLINK)


def test_background_load_validation():
    with pytest.raises(ValueError):
        BackgroundLoad(ue_count=-1, per_ue_rate_bps=0, direction=Direction.UPLINK)
    with pytest.raises(ValueError):
        BackgroundLoad(ue_count=1, per_ue_rate_bps=-5, direction=Direction.UPLINK)


def test_cbr_arrivals_are_quantized_and_roll_over():
    # 40 Mbps in 1400 B packets is 8.93 packets per 2.5 ms tick, so each
    # tick holds 8 or 9 whole packets and the remainder rolls over
    src = CbrPacketSource("bg", 40_000_000, 1400)
    counts = []
    for tick in range(100):
        arrivals = list(src.arrivals(tick * TICK, (tick + 1) * TICK))
        assert all(tick * TICK <= t < (tick + 1) * TICK for t, _ in arrivals)
        counts.append(len(arrivals))
    assert set(counts) == {8, 9}


def test_cbr_arrivals_are_pure():
    # a window yields the same packets when asked again, also after a
    # later window
    src = CbrPacketSource("bg", 40_000_000, 1400, start_ns=TICK // 3)
    window = [(src.packet_time(k), 11_200)
              for k in range(src.count_before(TICK), src.count_before(2 * TICK))]
    assert window
    assert list(src.arrivals(TICK, 2 * TICK)) == window
    assert list(src.arrivals(TICK, 2 * TICK)) == window
    later = list(src.arrivals(5 * TICK, 6 * TICK))
    assert later
    assert list(src.arrivals(TICK, 2 * TICK)) == window
    assert list(src.arrivals(5 * TICK, 6 * TICK)) == later


def test_cbr_long_run_rate_converges():
    rate = 5_000_000
    src = CbrPacketSource("bg", rate, 1400)
    total_bits = 0
    duration = 10_000_000_000
    for tick in range(duration // TICK):
        for _, bits in src.arrivals(tick * TICK, (tick + 1) * TICK):
            total_bits += bits
    expected = rate * duration // 1_000_000_000
    assert abs(total_bits - expected) <= 1400 * 8


def test_cbr_arrival_times_strictly_increase():
    src = CbrPacketSource("bg", 110_000_000, 1400)
    times = [t for t, _ in src.arrivals(0, 50_000_000)]
    assert times == sorted(times)
    assert len(set(times)) == len(times)


def test_cbr_stops_at_stop_time():
    src = CbrPacketSource("bg", 10_000_000, 1400, stop_ns=5_000_000)
    arrivals = list(src.arrivals(0, 50_000_000))
    assert arrivals
    assert all(t < 5_000_000 for t, _ in arrivals)


def test_cbr_zero_rate_is_silent():
    src = CbrPacketSource("bg", 0, 1400)
    assert list(src.arrivals(0, 1_000_000_000)) == []


def _received(sock: socket.socket) -> int:
    sock.settimeout(0.5)
    count = 0
    try:
        while True:
            sock.recv(2048)
            count += 1
    except socket.timeout:
        return count


def test_blast_udp_sends_at_its_rate():
    # 100-byte datagrams at 80 kbit/s: one every 10 ms, 25 in 0.25 s
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sink:
        sink.bind(("127.0.0.1", 0))
        sent = blast_udp(sink.getsockname(), 80_000, 0.25, packet_size_bytes=100)
        assert 22 <= sent <= 27
        assert _received(sink) == sent


def test_blast_udp_never_sleeps_past_its_duration():
    # one datagram every 2 s, for 0.1 s
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sink:
        sink.bind(("127.0.0.1", 0))
        started = time.monotonic()
        assert blast_udp(sink.getsockname(), 400, 0.1, packet_size_bytes=100) == 1
        assert time.monotonic() - started < 1.0
        assert _received(sink) == 1


@pytest.mark.parametrize("rate_bps", [0, -8_000])
def test_blast_udp_rejects_a_rate_that_is_not_positive(rate_bps):
    with pytest.raises(ValueError, match="rate must be positive"):
        blast_udp(("127.0.0.1", 9), rate_bps, 0.01)
