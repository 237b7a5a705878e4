"""Wire codec tests: round-trips, framing errors, corruption detection,
checksum check values, CRC combination, one CRC pass per frame, and
deterministic padding."""

from __future__ import annotations

import random
import sys
import threading
import types
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cv2x_bench import protocol
from cv2x_bench.protocol import (ChecksumError, FrameSizeError,
                                 MalformedFrameError, V2XMessage, decode,
                                 decode_unchecked, encode, make_padded_payload)


def compute_checksum(data: bytes) -> int:
    """The CRC-32 the codec computes for its trailer (IEEE 802.3
    polynomial, reflected, init/xorout all-ones)."""
    return zlib.crc32(data)


def _crc32_bitwise(data: bytes) -> int:
    """Independent CRC-32 reference: bit-at-a-time, reflected 0xEDB88320."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def _random_message(rng: random.Random, max_payload: int = 2000) -> V2XMessage:
    return V2XMessage(
        source_id=rng.randrange(0, 1 << 16),
        seq=rng.randrange(0, 1 << 64),
        t1=rng.randrange(0, 1 << 62), t2=rng.randrange(0, 1 << 62),
        t3=rng.randrange(0, 1 << 62), t4=rng.randrange(0, 1 << 62),
        e1=rng.randrange(-1 << 40, 1 << 40), e2=rng.randrange(-1 << 40, 1 << 40),
        e3=rng.randrange(-1 << 40, 1 << 40), e4=rng.randrange(-1 << 40, 1 << 40),
        payload=rng.randbytes(rng.randrange(0, max_payload)),
        flags=rng.randrange(0, 256))


def _reference_frame(msg: V2XMessage) -> bytes:
    """The frame as header + payload + CRC-32 of both, packed field by
    field."""
    body = b"".join((
        b"CV2X", bytes((1, msg.flags)), msg.source_id.to_bytes(2, "big"),
        msg.seq.to_bytes(8, "big"),
        *(v.to_bytes(8, "big", signed=True)
          for v in (msg.t1, msg.t2, msg.t3, msg.t4, msg.e1, msg.e2, msg.e3, msg.e4)),
        len(msg.payload).to_bytes(4, "big"), msg.payload))
    return body + compute_checksum(body).to_bytes(4, "big")


def _crc_reads(monkeypatch) -> list[bytes]:
    """Record the bytes the codec hands to zlib.crc32, call by call."""
    reads: list[bytes] = []

    def crc32(data, value=0):
        reads.append(bytes(data))
        return zlib.crc32(data, value)
    monkeypatch.setattr(protocol, "zlib", types.SimpleNamespace(crc32=crc32))
    return reads


def test_empty_message_round_trip():
    msg = V2XMessage(source_id=1, seq=0)
    frame = encode(msg)
    assert len(frame) == protocol.FRAME_OVERHEAD
    assert decode(frame) == msg


def test_frame_length_is_exact_function_of_payload():
    # a 1000-byte frame carries 1000 - 88 payload bytes
    payload = make_padded_payload(1000, seed=5, seq=0)
    assert len(payload) == 912
    frame = encode(V2XMessage(source_id=2, seq=7, payload=payload))
    assert len(frame) == 1000
    for n in (0, 1, 13, 916, 9912):
        frame = encode(V2XMessage(payload=b"x" * n))
        assert len(frame) == protocol.FRAME_OVERHEAD + n


def test_round_trip_randomized_messages():
    rng = random.Random(1234)
    for _ in range(1000):
        msg = _random_message(rng)
        decoded = decode(encode(msg))
        assert decoded == msg
        assert decoded.payload == msg.payload
        assert decoded.flags == msg.flags


def test_encoding_is_byte_stable():
    msg = V2XMessage(source_id=3, seq=42, t1=10, e1=-4, payload=b"abc")
    assert encode(msg) == encode(msg)
    assert encode(msg).hex().startswith("43563258")  # magic "CV2X"


def test_wire_layout_field_offsets():
    msg = V2XMessage(source_id=0x1234, seq=0x1122334455667788,
                     t1=1, t2=2, t3=3, t4=4, e1=-1, e2=-2, e3=-3, e4=-4,
                     payload=b"\xAA\xBB", flags=0x01)
    frame = encode(msg)
    assert frame[0:4] == b"CV2X"
    assert frame[4] == 1                                   # version
    assert frame[5] == 0x01                                # flags
    assert frame[6:8] == (0x1234).to_bytes(2, "big")
    assert frame[8:16] == (0x1122334455667788).to_bytes(8, "big")
    assert frame[16:24] == (1).to_bytes(8, "big", signed=True)
    assert frame[40:48] == (4).to_bytes(8, "big", signed=True)   # t4
    assert frame[48:56] == (-1).to_bytes(8, "big", signed=True)  # e1
    assert frame[72:80] == (-4).to_bytes(8, "big", signed=True)  # e4
    assert frame[80:84] == (2).to_bytes(4, "big")                # payload len
    assert frame[84:86] == b"\xAA\xBB"
    assert frame[86:90] == compute_checksum(frame[:86]).to_bytes(4, "big")


def test_encode_matches_the_reference_frame():
    # random payloads, padded payloads, payloads of decoded frames, and
    # bytearray payloads
    rng = random.Random(4321)
    for i in range(600):
        msg = _random_message(rng)
        kind = i % 4
        if kind == 1:
            msg.payload = make_padded_payload(
                rng.choice((protocol.FRAME_OVERHEAD + 3, 1000, 10_000,
                            rng.randrange(96, 3000))), rng.randrange(4), msg.seq)
        elif kind == 2:
            msg.payload = decode(encode(_random_message(rng))).payload
        elif kind == 3:
            msg.payload = bytearray(msg.payload)
        frame = encode(msg)
        assert frame == _reference_frame(msg)
        decoded = decode(frame)
        assert decoded == msg
        decoded.t2, decoded.t3 = msg.t3, msg.t2  # the relay's re-encode
        assert encode(decoded) == _reference_frame(decoded)


def test_flags_are_zero_on_freshly_built_frames():
    from cv2x_bench.agents import SimSensor
    from cv2x_bench.clockmodel import DriftingClock, OffsetProvider
    from config_defaults import NTP_PERIOD_NS
    clock = DriftingClock()
    sensor = SimSensor(1, 200, 10.0, 1_000_000_000, clock,
                       OffsetProvider(clock, period_ns=NTP_PERIOD_NS))
    msg = sensor.build_frame(1_000)
    assert msg.flags == 0
    assert decode(encode(msg)).flags == 0


def test_decoded_checksum_matches_frame():
    msg = V2XMessage(source_id=9, seq=1, payload=b"hello")
    frame = encode(msg)
    assert int.from_bytes(frame[-4:], "big") == compute_checksum(frame[:-4])
    assert int.from_bytes(frame[-4:], "big") == _crc32_bitwise(frame[:-4])
    assert decode(frame) == msg


def test_single_bit_flips_rejected():
    rng = random.Random(99)
    frame = bytearray(encode(_random_message(rng, max_payload=500)))
    for _ in range(1000):
        pos = rng.randrange(len(frame) * 8)
        frame[pos // 8] ^= 1 << (pos % 8)
        with pytest.raises(protocol.ProtocolError):
            decode(bytes(frame))
        frame[pos // 8] ^= 1 << (pos % 8)  # restore


def test_payload_bit_flip_is_checksum_error():
    frame = bytearray(encode(V2XMessage(payload=b"\x00" * 64)))
    frame[protocol.HEADER_LEN + 10] ^= 0x01
    with pytest.raises(ChecksumError):
        decode(bytes(frame))


def test_truncated_frame_rejected():
    frame = encode(V2XMessage())
    with pytest.raises(MalformedFrameError):
        decode(frame[:83])


def test_bad_magic_rejected():
    frame = bytearray(encode(V2XMessage()))
    frame[0] = 0x00
    with pytest.raises(MalformedFrameError):
        decode(bytes(frame))


def test_bad_version_rejected():
    frame = bytearray(encode(V2XMessage()))
    frame[4] = 2
    # keep the checksum consistent so the version check itself fires
    body = bytes(frame[:-4])
    frame[-4:] = compute_checksum(body).to_bytes(4, "big")
    with pytest.raises(MalformedFrameError):
        decode(bytes(frame))


def test_length_mismatch_rejected():
    frame = encode(V2XMessage(payload=b"abcd"))
    with pytest.raises(MalformedFrameError):
        decode(frame + b"\x00")


def test_payload_too_large_rejected():
    msg = V2XMessage(payload=b"\x00" * (protocol.MAX_PAYLOAD + 1))
    with pytest.raises(FrameSizeError):
        encode(msg)


def test_decode_unchecked_salvages_header():
    frame = bytearray(encode(V2XMessage(source_id=5, seq=77, t1=123)))
    frame[protocol.HEADER_LEN] ^= 0xFF if len(frame) > protocol.FRAME_OVERHEAD else 0
    frame[-1] ^= 0xFF
    salvaged = decode_unchecked(bytes(frame))
    assert salvaged is not None
    assert salvaged.source_id == 5 and salvaged.seq == 77 and salvaged.t1 == 123
    assert decode_unchecked(b"\x00" * 84) is None


def test_checksum_empty_input_is_zero():
    assert compute_checksum(b"") == 0x00000000


def test_checksum_standard_check_value():
    assert compute_checksum(b"123456789") == 0xCBF43926
    assert _crc32_bitwise(b"123456789") == 0xCBF43926


def test_checksum_matches_independent_reference():
    rng = random.Random(7)
    for _ in range(50):
        data = rng.randbytes(rng.randrange(0, 300))
        assert compute_checksum(data) == _crc32_bitwise(data)


def test_checksum_deterministic():
    data = b"repeatable"
    assert compute_checksum(data) == compute_checksum(bytes(data))


def test_other_frames_are_read_once(monkeypatch):
    # every encode and every decode hands each byte before the trailer to
    # zlib.crc32 once, in order, whatever the payload and the frame's type
    messages = [V2XMessage(seq=5, t1=3, payload=make_padded_payload(10_000, seed=11, seq=5)),
                V2XMessage(seq=6, payload=bytes(range(256)) * 39)]
    reads = _crc_reads(monkeypatch)
    for msg in messages:
        reads.clear()
        frame = encode(msg)
        assert b"".join(reads) == frame[:-protocol.CHECKSUM_LEN]
        for copy in (frame, bytes(bytearray(frame)), bytearray(frame),
                     memoryview(frame)):
            reads.clear()
            got = decode(copy)
            assert got == msg
            assert b"".join(reads) == frame[:-protocol.CHECKSUM_LEN]
        got.t2, got.t3 = 7, 8  # the relay's stamps, then its re-encode
        reads.clear()
        frame = encode(got)
        assert b"".join(reads) == frame[:-protocol.CHECKSUM_LEN]
        assert decode(frame) == got


def test_threaded_encode_and_decode():
    # relay and vehicle threads share the codec, as in a loopback run
    errors: list[BaseException] = []

    def work(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for seq in range(1500):
                payload = (make_padded_payload(rng.choice((200, 1000)), seed, seq)
                           if seq % 2 else rng.randbytes(rng.randrange(64)))
                msg = V2XMessage(source_id=seed, seq=seq, payload=payload)
                frame = encode(msg)
                assert frame == _reference_frame(msg)
                got = decode(frame)
                assert got == msg
                got.t3 = seq
                assert decode(encode(got)) == got
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


_FRAMES = st.builds(
    lambda seed, n, padded: encode(V2XMessage(
        source_id=seed & 0xFFFF, seq=seed, t1=seed * 3, e1=-seed,
        payload=(make_padded_payload(protocol.FRAME_OVERHEAD + n, seed, seed)
                 if padded else random.Random(seed).randbytes(n)))),
    st.integers(0, 2**32), st.integers(0, 2000), st.booleans())


@settings(max_examples=300, deadline=None)
@given(_FRAMES, st.data())
def test_fuzzed_frames_raise_only_protocol_errors(frame, data):
    mutated = bytearray(frame)
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(("flip", "truncate", "extend")))
        if kind == "flip" and mutated:
            pos = data.draw(st.integers(0, len(mutated) * 8 - 1))
            mutated[pos // 8] ^= 1 << (pos % 8)
        elif kind == "truncate":
            del mutated[data.draw(st.integers(0, len(mutated))):]
        else:
            mutated += data.draw(st.binary(min_size=1, max_size=16))
    for candidate in (bytes(mutated), mutated):
        try:
            decode(candidate)
        except protocol.ProtocolError:
            pass
        salvaged = decode_unchecked(candidate)
        assert salvaged is None or isinstance(salvaged, V2XMessage)


@settings(max_examples=300, deadline=None)
@given(_FRAMES, st.integers(0, 2**32))
def test_corrupt_copy_of_an_encoded_frame_is_caught(frame, draw):
    # any bit but those of magic, version and payload length, whose
    # corruption the framing checks find before the checksum
    checked = [*range(5 * 8, 80 * 8), *range(protocol.HEADER_LEN * 8, len(frame) * 8)]
    bit = checked[draw % len(checked)]
    corrupt = bytearray(frame)
    corrupt[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(ChecksumError):
        decode(bytes(corrupt))
    # a bytearray is read in full every time, however it changes
    with pytest.raises(ChecksumError):
        decode(corrupt)
    corrupt[bit // 8] ^= 1 << (bit % 8)
    assert decode(corrupt) == decode(frame)


def test_padded_payload_minimum_target_is_empty():
    assert make_padded_payload(protocol.FRAME_OVERHEAD, seed=1, seq=1) == b""


def test_padded_payload_below_overhead_rejected():
    with pytest.raises(FrameSizeError):
        make_padded_payload(protocol.FRAME_OVERHEAD - 1, seed=1, seq=1)


def test_padded_payload_deterministic():
    a = make_padded_payload(10_000, seed=3, seq=12)
    b = make_padded_payload(10_000, seed=3, seq=12)
    assert a == b
    assert len(a) == 10_000 - protocol.FRAME_OVERHEAD


def test_padded_payload_varies_with_seq_and_seed():
    assert (make_padded_payload(10_000, seed=3, seq=12)
            != make_padded_payload(10_000, seed=3, seq=13))
    assert (make_padded_payload(10_000, seed=3, seq=12)
            != make_padded_payload(10_000, seed=4, seq=12))


def test_padded_payload_no_collisions_over_consecutive_seqs():
    seen = set()
    for seq in range(10_000):
        seen.add(make_padded_payload(180, seed=8, seq=seq))
    assert len(seen) == 10_000


def test_full_size_padded_payloads_do_not_collide():
    # 9,912-byte payloads, as the 10 kB matrix cells send
    seen = set()
    for seq in range(10_000):
        seen.add(make_padded_payload(10_000, seed=8, seq=seq))
    assert len(seen) == 10_000


def test_padded_payload_derivation():
    # the 8-byte seq, then one per-seed block from its eighth byte on
    a = make_padded_payload(1000, seed=3, seq=12)
    b = make_padded_payload(1000, seed=3, seq=2**40 + 7)
    assert a[:8] == (12).to_bytes(8, "big")
    assert b[:8] == (2**40 + 7).to_bytes(8, "big")
    assert a[8:] == b[8:] == random.Random(3).randbytes(912)[8:]
    # the seed changes every padding byte after the seq, bar chance equals
    c = make_padded_payload(1000, seed=4, seq=12)
    assert a[:8] == c[:8]
    assert sum(x != y for x, y in zip(a[8:], c[8:])) > 850
    # seqs and seeds are taken mod 2**64
    assert make_padded_payload(1000, seed=3 - 2**64, seq=12 + 2**64) == a


@pytest.mark.parametrize("n", range(0, 10))
def test_short_padded_payloads(n):
    # shorter than a seq, a payload is the seq's last n bytes; a frame of
    # only overhead gets b""
    seq = 0x0102030405060708
    payload = make_padded_payload(protocol.FRAME_OVERHEAD + n, seed=1, seq=seq)
    assert len(payload) == n
    assert payload[:8] == seq.to_bytes(8, "big")[max(0, 8 - n):]
    frame = encode(V2XMessage(seq=5, payload=payload))
    assert len(frame) == protocol.FRAME_OVERHEAD + n
    assert decode(frame).payload == payload


def test_padded_payload_is_covered_by_the_checksum():
    frame = bytearray(encode(V2XMessage(seq=3, payload=make_padded_payload(10_000, 5, 3))))
    for index in (protocol.HEADER_LEN, protocol.HEADER_LEN + 8, len(frame) - 5):
        flipped = bytearray(frame)
        flipped[index] ^= 0x40
        with pytest.raises(ChecksumError):
            decode(bytes(flipped))
