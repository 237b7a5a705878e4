"""The real-loopback stream schedule and its latency calibration."""

import pytest

import refpipe
import workload_real
from workload_real import REF_FRAMES, Stream


def test_plan_interleaves_blocks_with_reference_segments():
    segments = Stream.plan(40_000, reference=True)
    kinds = [seg.reference for seg in segments]
    assert kinds == [True, False] * workload_real.BLOCKS + [True]
    blocks = [seg for seg in segments if not seg.reference]
    assert [b.first for b in blocks] == [4000 * i for i in range(10)]
    assert sum(b.n for b in blocks) == 40_000
    assert all(seg.n == REF_FRAMES for seg in segments if seg.reference)
    for earlier, later in zip(segments, segments[1:]):
        assert later.start_s == pytest.approx(earlier.end_s + workload_real.GAP_S)


def test_plan_without_reference_is_one_block():
    (block,) = Stream.plan(2000, reference=False)
    assert (block.start_s, block.n, block.first, block.reference) == (0.0, 2000, 0, False)


def test_calibration_cancels_a_host_slowdown_of_both():
    ref = workload_real.REFERENCE_LATENCY_MS
    quiet = workload_real.calibrated_latency([0.30, 0.31, 0.29], [ref] * 4)
    slow = workload_real.calibrated_latency([0.90, 0.93, 0.87], [3 * ref] * 4)
    assert quiet == pytest.approx(0.30)
    assert slow == pytest.approx(quiet)


def test_calibration_uses_the_reference_around_each_block():
    ref = workload_real.REFERENCE_LATENCY_MS
    value = workload_real.calibrated_latency([0.3, 0.6, 0.6],
                                             [ref, ref, 3 * ref, ref])
    # Each block, scaled by the mean of the segments around it, reads 0.3.
    assert value == pytest.approx(0.3)


def test_calibration_keeps_the_programs_own_time():
    before = workload_real.calibrated_latency([0.30] * 3, [0.25] * 4)
    after = workload_real.calibrated_latency([0.27] * 3, [0.25] * 4)
    assert after / before == pytest.approx(0.9)


def test_reference_frames_carry_due_time_and_checksum():
    frame = refpipe.make_frame(123, 4, True, workload_real.FRAME_BYTES)
    assert len(frame) == workload_real.FRAME_BYTES
    assert refpipe.HEAD.unpack_from(frame) == (123, 4, 1)
