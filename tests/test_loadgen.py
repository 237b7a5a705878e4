"""Constant-bitrate background traffic tests."""

from __future__ import annotations

import pytest

from cv2x_bench.loadgen import BackgroundLoad, CbrPacketSource, parse_load
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


def test_cbr_arrivals_are_quantized_with_carry():
    # 40 Mbps in 1400 B packets is 8.93 packets per 2.5 ms tick, so each
    # tick carries 8 or 9 whole packets and the remainder rolls over
    src = CbrPacketSource("bg", 40_000_000, 1400)
    counts = []
    for tick in range(100):
        arrivals = list(src.arrivals(tick * TICK, (tick + 1) * TICK))
        assert all(tick * TICK <= t < (tick + 1) * TICK for t, _ in arrivals)
        counts.append(len(arrivals))
    assert set(counts) == {8, 9}


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
