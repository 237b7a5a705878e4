"""Acceptance suite: one test per exit criterion, each printing a PASS line
with the measured figures (run with `pytest tests/test_acceptance.py -v -s`).

The emulated-link criteria share two full runs of the shipped 13-cell
matrix (session fixture) so determinism can be checked byte-for-byte
without re-running everything.
"""

from __future__ import annotations

import math
import random
import time
import zlib

import pytest

from cv2x_bench import analysis, scenario
from cv2x_bench.clockmodel import corrected_latency_dl, corrected_latency_ul
from cv2x_bench.protocol import (ChecksumError, MalformedFrameError,
                                 V2XMessage, decode, encode)
from handover import detect_handover_affected
from shipped_matrix import shipped_matrix

MS = 1_000_000
TICK_NS = 2_500_000
MASTER_SEED = 20240510

EXPECTED_RECORDS = {
    "1k-10hz": 100, "10k-20hz": 200,  # 10 s cells
    "mobility": 2400,                  # 120 s at 20 Hz
}


def _passed(label: str, detail: str) -> None:
    print(f"ACCEPTANCE {label}: PASS - {detail}")


@pytest.fixture(scope="session")
def matrix_runs(tmp_path_factory):
    """Two identical full matrix runs plus the wall time of the first."""
    out_a = tmp_path_factory.mktemp("matrix-a")
    out_b = tmp_path_factory.mktemp("matrix-b")
    start = time.monotonic()
    run_a = scenario.run_matrix(shipped_matrix(MASTER_SEED), out_a)
    elapsed_a = time.monotonic() - start
    run_b = scenario.run_matrix(shipped_matrix(MASTER_SEED), out_b)
    return run_a, run_b, elapsed_a


def _randomized_clock_agents(rng: random.Random, *, offset_ns: int,
                             drift_ppm: float, noise_bound_ns: int) -> dict:
    agents = {}
    for name in ("sensor", "relay", "vehicle"):
        agents[name] = {
            "clock": {"offset0_ns": rng.randint(-offset_ns, offset_ns),
                      "drift_ppm": rng.uniform(-drift_ppm, drift_ppm)},
            "ntp": {"period_s": 0, "noise_bound_ns": noise_bound_ns}}
    return agents


def _correction_error_runs(seed_base: int, *, drift_ppm: float,
                           noise_bound_ns: int) -> tuple[int, int]:
    """Ten 1000-message runs with randomized clocks; returns the total
    message count and the max |corrected - ground truth| over both legs."""
    rng = random.Random(seed_base)
    total = 0
    max_err = 0
    for run in range(10):
        cfg = scenario.config_from_obj({
            "name": f"corr-{seed_base}-{run}", "mode": "sim",
            "scheduler": "BL", "seed": seed_base + run, "duration_s": 1.0,
            "message": {"size_bytes": 200, "rate_hz": 1000.0},
            "agents": _randomized_clock_agents(
                rng, offset_ns=50 * MS, drift_ppm=drift_ppm,
                noise_bound_ns=noise_bound_ns)})
        res = scenario.run_scenario(cfg)
        total += len(res.records)
        for rec in res.records:
            max_err = max(max_err,
                          abs(corrected_latency_ul(rec) - rec.gt_ul),
                          abs(corrected_latency_dl(rec) - rec.gt_dl))
    return total, max_err


def test_correction_exactness_with_perfect_estimates():
    """Randomized offsets (±50 ms) and drift (±50 ppm) with perfect per-stamp
    offset estimates: corrected latency equals ground truth exactly."""
    start = time.monotonic()
    total, max_err = _correction_error_runs(1000, drift_ppm=50.0,
                                            noise_bound_ns=0)
    elapsed = time.monotonic() - start
    assert total == 10_000
    assert max_err == 0
    assert elapsed < 10.0
    _passed("correction-exactness",
            f"{total} messages, max error {max_err} ns, {elapsed:.1f}s")


def test_bounded_correction_error_with_noisy_estimates():
    """Estimation noise bounded by 1 ms at each endpoint keeps the corrected
    latency within 2 ms of ground truth."""
    total, max_err = _correction_error_runs(2000, drift_ppm=0.0,
                                            noise_bound_ns=1 * MS)
    assert total == 10_000
    assert max_err <= 2 * MS
    _passed("bounded-correction-error",
            f"{total} messages, max error {max_err / 1e6:.3f} ms <= 2 ms")


def test_nominal_bl_ap_equivalence(matrix_runs):
    """Across all 8 nominal cells the AP and BL p99 agree within 10%."""
    run, _, elapsed = matrix_runs
    assert elapsed < 60.0
    pairs = 0
    worst = 0.0
    for load_tag in ("noload", "load5-110"):
        for msg_tag in ("1k-10hz", "10k-20hz"):
            bl = run.results[f"nominal-bl-{load_tag}-{msg_tag}"].stats("e2e").p99_ns
            ap = run.results[f"nominal-ap-{load_tag}-{msg_tag}"].stats("e2e").p99_ns
            rel = abs(ap - bl) / bl
            worst = max(worst, rel)
            assert rel < 0.10, f"{load_tag}/{msg_tag}: {rel:.3f}"
            pairs += 1
    assert pairs == 4
    _passed("nominal-equivalence",
            f"4 BL/AP pairs, worst relative p99 gap {worst:.4f} < 0.10, "
            f"matrix wall {elapsed:.1f}s")


def test_overload_priority_protection(matrix_runs):
    """Uplink overload: absolute priority keeps the application flow at its
    no-load latency while the baseline scheduler lets it blow up."""
    run, _, _ = matrix_runs
    bl_base = run.results["nominal-bl-noload-10k-20hz"].stats("ul").p99_ns
    ap_base = run.results["nominal-ap-noload-10k-20hz"].stats("ul").p99_ns
    ratios = {}
    for ue_tag in ("1x40", "2x40"):
        bl = run.results[f"overload-bl-{ue_tag}-10k-20hz"].stats("ul").p99_ns
        ap = run.results[f"overload-ap-{ue_tag}-10k-20hz"].stats("ul").p99_ns
        ratios[f"BL {ue_tag}"] = bl / bl_base
        ratios[f"AP {ue_tag}"] = ap / ap_base
        assert ap <= 2 * ap_base, f"AP not protected under {ue_tag}"
        assert bl >= 10 * bl_base, f"BL did not degrade under {ue_tag}"
    _passed("overload-protection",
            ", ".join(f"{k} p99 ratio {v:.1f}" for k, v in ratios.items()))


def test_mobility_handover(matrix_runs):
    """Default route: exactly one handover; interrupted packets carry at
    least the interruption's worth of extra downlink latency; everything
    else matches the idle distribution within one tick."""
    run, _, _ = matrix_runs
    res = run.results["mobility-bl-noload-10k-20hz"]
    assert len(res.handover_events) == 1
    event = res.handover_events[0]
    interruption = event.interruption_ns

    flagged = detect_handover_affected(res.records, res.handover_events)
    flagged_seqs = {r.seq for r in flagged}
    assert flagged_seqs == res.affected_seqs  # zero false pos/neg vs emulator
    assert len(flagged_seqs) >= 1
    for rec in flagged:
        assert corrected_latency_dl(rec) >= interruption

    idle = run.results["nominal-bl-noload-10k-20hz"]
    idle_dl = analysis.latency_samples(idle.records, "dl")
    lo, hi = min(idle_dl) - TICK_NS, max(idle_dl) + TICK_NS
    for rec in res.records:
        if rec.seq not in flagged_seqs:
            assert lo <= corrected_latency_dl(rec) <= hi
    _passed("mobility-handover",
            f"1 event at cell {event.from_cell}->{event.to_cell}, "
            f"{len(flagged_seqs)} affected packet(s), max affected DL "
            f"{max(corrected_latency_dl(r) for r in flagged) / 1e6:.1f} ms "
            f">= {interruption / 1e6:.0f} ms, others within 1 tick of idle")


def test_scheduler_invariants_over_matrix(matrix_runs):
    """Conservation, work conservation, priority dominance, and queue caps
    are asserted on every emulator tick (violations raise and would fail the
    cell); reliable flows deliver every sequence number in order."""
    run, _, _ = matrix_runs
    assert run.failures == {}
    assert len(run.results) == 13
    for name, res in run.results.items():
        n = len(res.records)
        assert n == res.sensor_sent, f"{name}: lost packets"
        assert [r.seq for r in res.records] == list(range(n)), f"{name}: order"
        assert all(not r.corrupt for r in res.records), f"{name}: corruption"
        if "mobility" in name:
            assert n == EXPECTED_RECORDS["mobility"]
        elif name.endswith("1k-10hz"):
            assert n == EXPECTED_RECORDS["1k-10hz"]
        else:
            assert n == EXPECTED_RECORDS["10k-20hz"]
    _passed("scheduler-invariants",
            "13/13 cells clean: per-tick checks, zero loss, in-order delivery")


def test_statistics_match_bruteforce_oracle():
    """Nearest-rank percentile and the empirical CDF agree exactly with a
    brute-force sorted-list oracle on 1000 random sample sets."""
    rng = random.Random(777)
    for _ in range(1000):
        n = rng.randrange(1, 10_001)
        samples = [rng.randrange(0, 10**9) for _ in range(n)]
        ordered = sorted(samples)
        for q in (rng.uniform(0.001, 1.0), 0.95, 0.99, 1.0):
            assert analysis.percentile(samples, q) == ordered[math.ceil(q * n) - 1]
        points = analysis.cdf(samples)
        expected = []
        for i, v in enumerate(ordered):
            if i + 1 == n or ordered[i + 1] != v:
                expected.append((v, (i + 1) / n))
        assert points == expected
        assert points[-1][1] == 1.0
        assert len(points) == len(set(samples))
    _passed("statistics-oracle",
            "1000 sample sets (sizes 1..10000), exact percentile + CDF match")


def test_codec_roundtrip_and_corruption_detection():
    """Round-trip identity on 10k randomized messages (including 10 kB
    frames), 100% rejection of 1000 random single-bit flips, and the
    standard CRC-32 check value verified against an independent bitwise
    implementation."""
    rng = random.Random(4242)
    for i in range(10_000):
        payload_len = 9912 if i % 10 == 0 else rng.randrange(0, 2000)
        msg = V2XMessage(
            source_id=rng.randrange(1 << 16), seq=rng.randrange(1 << 64),
            t1=rng.randrange(1, 1 << 62), t2=rng.randrange(1, 1 << 62),
            t3=rng.randrange(1, 1 << 62), t4=rng.randrange(1, 1 << 62),
            e1=rng.randrange(-1 << 40, 1 << 40),
            e2=rng.randrange(-1 << 40, 1 << 40),
            e3=rng.randrange(-1 << 40, 1 << 40),
            e4=rng.randrange(-1 << 40, 1 << 40),
            payload=rng.randbytes(payload_len))
        frame = encode(msg)
        if payload_len == 9912:
            assert len(frame) == 10_000
        assert decode(frame) == msg

    frame = bytearray(encode(V2XMessage(seq=1, payload=rng.randbytes(9912))))
    rejected = 0
    for _ in range(1000):
        pos = rng.randrange(len(frame) * 8)
        frame[pos // 8] ^= 1 << (pos % 8)
        try:
            decode(bytes(frame))
        except (ChecksumError, MalformedFrameError):
            rejected += 1
        frame[pos // 8] ^= 1 << (pos % 8)
    assert rejected == 1000

    def crc32_bitwise(data: bytes) -> int:
        crc = 0xFFFFFFFF
        for byte in data:
            crc ^= byte
            for _ in range(8):
                crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
        return crc ^ 0xFFFFFFFF

    assert zlib.crc32(b"123456789") == 0xCBF43926
    assert crc32_bitwise(b"123456789") == 0xCBF43926
    _passed("codec",
            "10000 round-trips (incl. 10 kB frames), 1000/1000 bit flips "
            "rejected, CRC check value 0xCBF43926 verified")


def test_matrix_determinism(matrix_runs):
    """Two full matrix runs from the same master seed produce byte-identical
    stats.csv, packet logs, and per-packet CSVs."""
    run_a, run_b, _ = matrix_runs
    stats_a = run_a.stats_csv.read_bytes()
    stats_b = run_b.stats_csv.read_bytes()
    assert stats_a == stats_b
    logs_a = sorted(p.relative_to(run_a.out_dir)
                    for p in run_a.out_dir.rglob("*.jsonl"))
    logs_b = sorted(p.relative_to(run_b.out_dir)
                    for p in run_b.out_dir.rglob("*.jsonl"))
    assert logs_a == logs_b and len(logs_a) == 13
    compared = 0
    for rel in logs_a:
        assert (run_a.out_dir / rel).read_bytes() == (run_b.out_dir / rel).read_bytes()
        compared += 1
    for rel in sorted(p.relative_to(run_a.out_dir)
                      for p in run_a.out_dir.glob("per_packet_*.csv")):
        assert (run_a.out_dir / rel).read_bytes() == (run_b.out_dir / rel).read_bytes()
        compared += 1
    _passed("determinism",
            f"stats.csv plus {compared} log/per-packet files byte-identical")


def test_real_socket_smoke():
    """Loopback broker + sensor (1 kB @ 10 Hz) + relay + vehicle for 10 s:
    exactly 100 records, zero loss, in order, end-to-end p99 < 50 ms."""
    cfg = scenario.config_from_obj({
        "name": "real-smoke", "mode": "real", "scheduler": "BL",
        "duration_s": 10.0, "message": {"size_bytes": 1000, "rate_hz": 10.0}})
    res = scenario.run_scenario(cfg)
    assert res.sensor_sent == 100
    assert len(res.records) == 100
    assert [r.seq for r in res.records] == list(range(100))
    assert all(not r.corrupt for r in res.records)
    stats = res.stats("e2e")
    assert stats.p99_ns < 50 * MS
    _passed("real-socket-smoke",
            f"100/100 records in order, e2e p99 {stats.p99_ns / 1e6:.2f} ms < 50 ms")
