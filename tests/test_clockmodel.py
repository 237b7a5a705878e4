"""Clock law, offset estimation, and corrected-latency arithmetic."""

from __future__ import annotations

import random

import pytest

from cv2x_bench.clockmodel import (DriftingClock, MissingStampError,
                                   OffsetProvider, corrected_latency_dl,
                                   corrected_latency_e2e, corrected_latency_ul,
                                   ntp_query)
from cv2x_bench.protocol import V2XMessage

MS = 1_000_000


def test_ideal_clock_is_identity():
    clock = DriftingClock()
    assert clock.local_now(5_000_000) == 5_000_000
    assert clock.local_now(0) == 0


def test_constant_offset_is_additive():
    clock = DriftingClock(offset0_ns=2 * MS)
    assert clock.local_now(100 * MS) == 102 * MS


def test_linear_drift_accumulates():
    # +10 ppm over 100 s is exactly 1 ms
    clock = DriftingClock(drift_ppm=10.0)
    t = 100 * 1_000_000_000
    assert clock.local_now(t) == t + 1 * MS


def test_jitter_reproducible_from_seed():
    a = DriftingClock(jitter_ns=1000, rng_seed=5)
    b = DriftingClock(jitter_ns=1000, rng_seed=5)
    readings_a = [a.local_now(i * 1000) for i in range(100)]
    readings_b = [b.local_now(i * 1000) for i in range(100)]
    assert readings_a == readings_b
    assert any(r != i * 1000 for i, r in enumerate(readings_a))


def test_ntp_query_sign_convention():
    # clock runs 2 ms fast; the estimate maps local back onto reference
    clock = DriftingClock(offset0_ns=2 * MS)
    est = ntp_query(clock, reference_ns=50 * MS)
    assert est == -2 * MS
    assert clock.local_now(50 * MS) + est == 50 * MS


def test_ntp_query_ideal_clock_zero_estimate():
    assert ntp_query(DriftingClock(), reference_ns=123) == 0


def test_ntp_query_noise_stays_within_bound():
    clock = DriftingClock(offset0_ns=7 * MS, drift_ppm=3.0)
    rng = random.Random(11)
    bound = 500_000
    errors = set()
    for i in range(10_000):
        t = i * 1_000_000
        est = ntp_query(clock, t, noise_bound_ns=bound, rng=rng)
        errors.add(est - (-clock.true_offset_ns(t)))
    assert max(map(abs, errors)) <= bound
    assert len(errors) > 1


def test_offset_provider_period_caching():
    # 20 ppm of drift moves the true offset by 20 us over the 1 s period
    clock = DriftingClock(offset0_ns=MS, drift_ppm=20.0)
    provider = OffsetProvider(clock, period_ns=1000 * MS)
    assert provider.estimate_at(250 * MS) == -MS  # queried at 0
    assert provider.estimate_at(999 * MS) == -MS  # same period, cached
    assert provider.estimate_at(1000 * MS) == -MS - 20_000
    assert provider.estimate_at(1999 * MS) == -MS - 20_000


def test_offset_provider_reuses_a_noisy_estimate_within_its_period():
    clock = DriftingClock(offset0_ns=MS)
    provider = OffsetProvider(clock, period_ns=1000 * MS,
                              noise_bound_ns=500_000, rng_seed=4)
    first = provider.estimate_at(0)
    assert all(provider.estimate_at(t * MS) == first for t in range(1, 1000))
    assert provider.estimate_at(1000 * MS) != first


def test_offset_provider_continuous_mode():
    clock = DriftingClock(offset0_ns=MS, drift_ppm=50.0)
    provider = OffsetProvider(clock, period_ns=0)
    for t in (0, 777, 123_456_789):
        assert clock.local_now(t) + provider.estimate_at(t) == t


def test_corrected_ul_perfect_sync():
    msg = V2XMessage(t1=100 * MS, t2=103 * MS)
    assert corrected_latency_ul(msg) == 3 * MS


def test_corrected_ul_cancels_sender_offset():
    # sender clock runs 2 ms fast: stamp reads 100 ms, estimate is -2 ms
    msg = V2XMessage(t1=100 * MS, e1=-2 * MS, t2=103 * MS, e2=0)
    assert corrected_latency_ul(msg) == 5 * MS


def test_corrected_dl_perfect_sync():
    msg = V2XMessage(t1=1, t2=1, t3=200 * MS, t4=210 * MS)
    assert corrected_latency_dl(msg) == 10 * MS


def test_corrected_dl_offset_cancels():
    msg = V2XMessage(t3=200 * MS, t4=211 * MS, e4=-1 * MS)
    assert corrected_latency_dl(msg) == 10 * MS


def test_missing_stamps_raise():
    with pytest.raises(MissingStampError):
        corrected_latency_ul(V2XMessage(t1=5))
    with pytest.raises(MissingStampError):
        corrected_latency_dl(V2XMessage(t3=5))
    with pytest.raises(MissingStampError):
        corrected_latency_e2e(V2XMessage(t4=5))


def test_perfect_estimates_recover_true_delay_exactly():
    """With per-stamp offset queries and no jitter, the corrected latency is
    the true one-way delay, exactly, for arbitrary offset and drift."""
    rng = random.Random(2024)
    for _ in range(10_000):
        sender = DriftingClock(offset0_ns=rng.randint(-50 * MS, 50 * MS),
                               drift_ppm=rng.uniform(-50, 50))
        receiver = DriftingClock(offset0_ns=rng.randint(-50 * MS, 50 * MS),
                                 drift_ppm=rng.uniform(-50, 50))
        t_send = rng.randint(0, 10**15)
        delay = rng.randint(0, 10**9)
        t_recv = t_send + delay
        msg = V2XMessage(
            t1=sender.local_now(t_send),
            e1=ntp_query(sender, t_send),
            t2=receiver.local_now(t_recv),
            e2=ntp_query(receiver, t_recv))
        assert corrected_latency_ul(msg) == delay


def test_uncorrected_latency_shows_offset_error():
    # receiver 2 ms fast, estimates ignored: raw difference is off by +2 ms
    receiver = DriftingClock(offset0_ns=2 * MS)
    t_send, delay = 500 * MS, 4 * MS
    t1 = t_send
    t2 = receiver.local_now(t_send + delay)
    assert (t2 - t1) - delay == 2 * MS
