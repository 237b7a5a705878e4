"""Wire format for timestamped V2X messages.

Frame layout (all multi-byte fields big-endian):

  +-------+---------+-------+-----------+-----+-----------+-----------+-------------+---------+----------+
  | magic | version | flags | source_id | seq | t1..t4    | e1..e4    | payload_len | payload | checksum |
  | 4 B   | 1 B     | 1 B   | 2 B       | 8 B | 4 x 8 B   | 4 x 8 B   | 4 B         | n B     | 4 B      |
  +-------+---------+-------+-----------+-----+-----------+-----------+-------------+---------+----------+

Header is 84 bytes; the CRC-32 trailer (zlib.crc32's, of IEEE 802.3)
covers everything before it, so the fixed per-frame overhead is 88 bytes.
Timestamps t1..t4 are nanoseconds since the Unix epoch with 0 meaning "not
yet stamped"; e1..e4 are the sender-side clock offset estimates (value to
ADD to the matching local timestamp to map it onto reference time).
Offsets are always carried on the wire and are meaningful only where the
matching timestamp is nonzero.

Agents stamp V2XMessage objects; the codec runs only where a frame meets
a socket, and each encode or decode reads every byte before the trailer
once, in a single CRC-32 pass.
"""

from __future__ import annotations

import random
import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache

MAGIC = b"CV2X"
VERSION = 1
HEADER_LEN = 84
CHECKSUM_LEN = 4
FRAME_OVERHEAD = HEADER_LEN + CHECKSUM_LEN  # 88 bytes
MAX_PAYLOAD = 10_000_000
MAX_FRAME_SIZE = FRAME_OVERHEAD + MAX_PAYLOAD  # 10,000,088 bytes

_HEADER = struct.Struct(">4sBBHQqqqqqqqqI")
assert _HEADER.size == HEADER_LEN


class ProtocolError(ValueError):
    """Base class for frame encode/decode failures."""


class FrameSizeError(ProtocolError):
    """Payload or target frame size outside the allowed bounds."""


class MalformedFrameError(ProtocolError):
    """Frame too short, bad magic, bad version, or inconsistent length."""


class ChecksumError(ProtocolError):
    """Frame failed CRC-32 verification."""


@dataclass
class V2XMessage:
    """One application message as carried on the wire; the codec computes
    its CRC-32 trailer on encode and checks it on decode.  The fields up to
    e4 are the header's after flags, in the same order."""

    source_id: int = 0
    seq: int = 0
    t1: int = 0
    t2: int = 0
    t3: int = 0
    t4: int = 0
    e1: int = 0
    e2: int = 0
    e3: int = 0
    e4: int = 0
    payload: bytes = b""
    flags: int = 0


def encode(msg: V2XMessage) -> bytes:
    """Serialize a message to its wire frame.

    The checksum is computed here over header + payload and appended as the
    trailing 4 bytes.
    """
    if len(msg.payload) > MAX_PAYLOAD:
        raise FrameSizeError(
            f"payload of {len(msg.payload)} bytes exceeds maximum {MAX_PAYLOAD}")
    if not 0 <= msg.source_id <= 0xFFFF:
        raise ProtocolError(f"source_id {msg.source_id} does not fit in 16 bits")
    if not 0 <= msg.seq <= 0xFFFFFFFFFFFFFFFF:
        raise ProtocolError(f"seq {msg.seq} does not fit in 64 bits")
    try:
        header = _HEADER.pack(
            MAGIC, VERSION, msg.flags, msg.source_id, msg.seq,
            msg.t1, msg.t2, msg.t3, msg.t4,
            msg.e1, msg.e2, msg.e3, msg.e4,
            len(msg.payload))
    except struct.error as exc:
        raise ProtocolError(f"field out of range: {exc}") from None
    crc = zlib.crc32(msg.payload, zlib.crc32(header))
    return b"".join((header, msg.payload, crc.to_bytes(CHECKSUM_LEN, "big")))


def _parse(frame: bytes) -> tuple[bytes, int, int, V2XMessage]:
    """The magic, version and payload length in the header of a frame at
    least HEADER_LEN bytes long, and the message the frame carries."""
    magic, version, flags, *fields, payload_len = _HEADER.unpack_from(frame)
    payload = frame[HEADER_LEN:HEADER_LEN + payload_len]
    return magic, version, payload_len, V2XMessage(*fields, payload, flags)


def decode(frame: bytes) -> V2XMessage:
    """Parse and verify a wire frame.

    Raises MalformedFrameError on framing problems (short frame, bad magic
    or version, length mismatch) and ChecksumError when the CRC-32 trailer
    does not match, which signals in-flight corruption.
    """
    if len(frame) < FRAME_OVERHEAD:
        raise MalformedFrameError(
            f"frame of {len(frame)} bytes is shorter than minimum {FRAME_OVERHEAD}")
    magic, version, payload_len, msg = _parse(frame)
    if magic != MAGIC:
        raise MalformedFrameError(f"bad magic {magic!r}")
    if version != VERSION:
        raise MalformedFrameError(f"unsupported version {version}")
    if len(frame) != FRAME_OVERHEAD + payload_len:
        raise MalformedFrameError(
            f"frame length {len(frame)} does not match header payload_len {payload_len}")
    received = int.from_bytes(frame[-CHECKSUM_LEN:], "big")
    expected = zlib.crc32(memoryview(frame)[:-CHECKSUM_LEN])
    if received != expected:
        raise ChecksumError(
            f"checksum mismatch: frame carries 0x{received:08X}, computed 0x{expected:08X}")
    return msg


def decode_unchecked(frame: bytes) -> V2XMessage | None:
    """Best-effort header parse without checksum verification.

    Used to salvage identifying fields (source, seq, stamps) from a frame
    that failed verification so the receiver can log it as corrupt.
    Returns None when the frame is shorter than a header or its magic is
    wrong; the version, length and checksum are not checked, and the
    payload is whatever the frame holds of it.
    """
    if len(frame) < HEADER_LEN:
        return None
    magic, _, _, msg = _parse(frame)
    return msg if magic == MAGIC else None


@lru_cache(maxsize=4)
def _padding_tail(seed: int, n: int) -> bytes:
    """Bytes 8 .. n - 1 of the n pseudorandom bytes drawn from the seed."""
    return random.Random(seed).randbytes(n)[8:]


def make_padded_payload(target_frame_size: int, seed: int, seq: int) -> bytes:
    """Deterministic pseudorandom padding so a frame hits an exact size.

    Returns ``n = target_frame_size - 88`` bytes: the seq as 8 bytes
    big-endian, then bytes 8 .. n - 1 of one block of n pseudorandom bytes
    drawn from the seed.  The block is the same for every seq, so it is
    drawn once per (seed, n) and kept (a few blocks at most); a payload
    then costs one copy.  A payload shorter than 8 bytes is the seq's
    last n bytes.  Seed and seq are taken mod 2**64.  The same (seed, seq)
    always yields the same bytes, and for n >= 8 different seqs certainly
    yield different bytes.
    """
    if target_frame_size < FRAME_OVERHEAD:
        raise FrameSizeError(
            f"target frame size {target_frame_size} is below the {FRAME_OVERHEAD}-byte overhead")
    n = target_frame_size - FRAME_OVERHEAD
    head = (seq & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
    if n <= 8:
        return head[8 - n:]
    return head + _padding_tail(seed & 0xFFFFFFFFFFFFFFFF, n)
