"""The three ITS agents: sensor (producer), edge relay (broker/proxy), and
vehicle (consumer).

Both transports share one stamping contract: the sensor sets t1/e1 right
before sending, the relay sets t2/e2 on receipt and t3/e3 when it
re-publishes (recomputing the checksum since the stamps changed), and the
vehicle sets t4/e4 and logs one PacketRecord per message.

In emulation mode the agents are passive state machines driven by the
SimWorld event loop through a SimPipeline; in real-socket mode each agent
is a blocking loop over a BrokerClient connection.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from functools import partial

from . import protocol
from .analysis import PacketRecord, RecordWriter
from .broker import BrokerClient
from .clockmodel import (DriftingClock, OffsetProvider, SystemClock,
                         ZeroOffsetProvider)
from .netem import Delivery, LinkSimulator, SimWorld


UPLINK_TOPIC = "UL"
DOWNLINK_TOPIC = "DL"


@dataclass(frozen=True)
class ProcessingDelay:
    """Server residence time: constant, or uniform over a closed range."""

    constant_ns: int = 0
    uniform_ns: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.uniform_ns is not None:
            if self.constant_ns:
                raise ValueError("set constant_ns or uniform_ns, not both")
            low, high = self.uniform_ns
            if low < 0 or high < low:
                raise ValueError("uniform range must satisfy 0 <= low <= high")
        elif self.constant_ns < 0:
            raise ValueError("constant delay must be nonnegative")

    def sample(self, rng: random.Random) -> int:
        if self.uniform_ns is not None:
            return rng.randint(self.uniform_ns[0], self.uniform_ns[1])
        return self.constant_ns


def publish_offset_ns(k: int, rate_hz: float) -> int:
    """Offset of message k from the start of a run publishing at rate_hz."""
    return int(k * 1_000_000_000 / rate_hz)


def message_count(rate_hz: float, duration_ns: int) -> int:
    """Messages a run of duration_ns publishing at rate_hz sends: those
    whose publish offset falls before the end.  Sim and real mode both
    use this rule."""
    n = int(duration_ns * rate_hz / 1_000_000_000)
    # int(x) < d exactly when x < d, for x >= 0 and an integer d, so the
    # offsets are compared before rounding; an offset too large for an int
    # at a tiny rate then ends the count instead of overflowing
    while n * 1_000_000_000 / rate_hz < duration_ns:
        n += 1
    while n > 0 and (n - 1) * 1_000_000_000 / rate_hz >= duration_ns:
        n -= 1
    return n


class SimSensor:
    """Publishes fixed-size frames at a fixed rate; consumes nothing."""

    def __init__(self, source_id: int, frame_size_bytes: int, rate_hz: float,
                 duration_ns: int, clock: DriftingClock,
                 provider: OffsetProvider, payload_seed: int = 0,
                 start_ns: int = 0) -> None:
        if frame_size_bytes < protocol.FRAME_OVERHEAD:
            raise ValueError(
                f"frame size {frame_size_bytes} below minimum {protocol.FRAME_OVERHEAD}")
        if rate_hz <= 0:
            raise ValueError("rate must be positive")
        self.source_id = source_id
        self.frame_size_bytes = frame_size_bytes
        self.rate_hz = rate_hz
        self.clock = clock
        self.provider = provider
        self.payload_seed = payload_seed
        self.start_ns = start_ns
        self.next_seq = 0
        self.app_frames_received = 0  # role purity: must stay 0
        self.n_messages = message_count(rate_hz, duration_ns)

    def publish_time(self, k: int) -> int:
        return self.start_ns + publish_offset_ns(k, self.rate_hz)

    @property
    def offered_bps(self) -> float:
        return self.frame_size_bytes * 8 * self.rate_hz

    def build_frame(self, reference_ns: int) -> bytes:
        seq = self.next_seq
        self.next_seq += 1
        est = self.provider.estimate_at(reference_ns)
        msg = protocol.V2XMessage(
            source_id=self.source_id, seq=seq,
            t1=self.clock.local_now(reference_ns), e1=est.estimate_ns,
            payload=protocol.make_padded_payload(self.frame_size_bytes,
                                                 self.payload_seed, seq))
        return protocol.encode(msg)


class SimRelay:
    """Receives on the uplink topic, stamps, delays, re-publishes downlink."""

    def __init__(self, clock: DriftingClock, provider: OffsetProvider,
                 processing: ProcessingDelay | None = None,
                 rng_seed: int = 0) -> None:
        self.clock = clock
        self.provider = provider
        self.processing = processing or ProcessingDelay()
        self.rng = random.Random(rng_seed)
        self.forwarded = 0
        self.corrupt_drops = 0

    def receive(self, frame: bytes, reference_ns: int) -> protocol.V2XMessage | None:
        """Stamp t2/e2 on a verified frame; corrupt frames are dropped."""
        try:
            msg = protocol.decode(frame)
        except protocol.ProtocolError:
            self.corrupt_drops += 1
            return None
        est = self.provider.estimate_at(reference_ns)
        msg.t2 = self.clock.local_now(reference_ns)
        msg.e2 = est.estimate_ns
        return msg

    def forward(self, msg: protocol.V2XMessage, reference_ns: int) -> bytes:
        """Stamp t3/e3 and re-encode (stamps changed, so the checksum must be
        recomputed)."""
        est = self.provider.estimate_at(reference_ns)
        msg.t3 = self.clock.local_now(reference_ns)
        msg.e3 = est.estimate_ns
        self.forwarded += 1
        return protocol.encode(msg)


class SimVehicle:
    """Consumes downlink frames and logs one PacketRecord per message."""

    def __init__(self, clock: DriftingClock, provider: OffsetProvider) -> None:
        self.clock = clock
        self.provider = provider
        self.records: list[PacketRecord] = []
        self.affected_seqs: set[int] = set()
        self.app_frames_published = 0  # role purity: must stay 0

    def receive(self, frame: bytes, reference_ns: int, serving_cell: int,
                gt_ul: int, gt_dl: int, affected: bool = False) -> PacketRecord:
        est = self.provider.estimate_at(reference_ns)
        t4 = self.clock.local_now(reference_ns)
        try:
            msg = protocol.decode(frame)
            corrupt = False
        except protocol.ProtocolError:
            salvaged = protocol.decode_unchecked(frame)
            msg = salvaged if salvaged is not None else protocol.V2XMessage()
            corrupt = True
        rec = PacketRecord(
            source_id=msg.source_id, seq=msg.seq,
            t1=msg.t1, t2=msg.t2, t3=msg.t3, t4=t4,
            e1=msg.e1, e2=msg.e2, e3=msg.e3, e4=est.estimate_ns,
            frame_size=len(frame), serving_cell=serving_cell,
            corrupt=corrupt, gt_ul=gt_ul, gt_dl=gt_dl)
        self.records.append(rec)
        if affected and not corrupt:
            self.affected_seqs.add(msg.seq)
        return rec


class SimPipeline:
    """Wires sensor -> uplink flow -> relay -> downlink flow -> vehicle onto
    a SimWorld, including the reverse-direction acknowledgment load."""

    def __init__(self, world: SimWorld, link: LinkSimulator,
                 sensor: SimSensor, relay: SimRelay, vehicle: SimVehicle, *,
                 ul_flow: str = "app-ul", dl_flow: str = "app-dl",
                 ul_ack_flow: str | None = None, dl_ack_flow: str | None = None,
                 ack_ratio: float = 0.05,
                 interruption_windows: list[tuple[int, int]] | None = None) -> None:
        self.world = world
        self.link = link
        self.sensor = sensor
        self.relay = relay
        self.vehicle = vehicle
        self.ul_flow = ul_flow
        self.dl_flow = dl_flow
        self.ul_ack_flow = ul_ack_flow
        self.dl_ack_flow = dl_ack_flow
        self.ack_ratio = ack_ratio
        self.windows = list(interruption_windows or [])
        world.on_delivery = self.on_delivery

    def start(self) -> None:
        if self.sensor.n_messages > 0:
            self.world.schedule(self.sensor.publish_time(0), self._publish)

    @property
    def complete(self) -> bool:
        delivered = len(self.vehicle.records) + self.relay.corrupt_drops
        return delivered >= self.sensor.n_messages

    def _publish(self, now_ns: int) -> None:
        frame = self.sensor.build_frame(now_ns)
        self.link.enqueue(self.ul_flow, len(frame) * 8, now_ns,
                          meta={"kind": "app-ul", "frame": frame,
                                "published_ns": now_ns})
        if self.sensor.next_seq < self.sensor.n_messages:
            self.world.schedule(self.sensor.publish_time(self.sensor.next_seq),
                                self._publish)

    def on_delivery(self, d: Delivery) -> None:
        kind = d.meta.get("kind") if d.meta else None
        arrival = d.delivery_ns + self.world.base_delay_ns
        if kind == "app-ul":
            self.world.schedule(arrival, partial(self._relay_receive, meta=d.meta))
        elif kind == "app-dl":
            self.world.schedule(arrival, partial(self._vehicle_receive,
                                                 meta=d.meta, cell_id=d.cell_id))

    def _enqueue_ack(self, flow_id: str | None, frame_len: int, now_ns: int) -> None:
        if flow_id is None or self.ack_ratio <= 0:
            return
        ack_bits = round(frame_len * self.ack_ratio) * 8
        if ack_bits > 0:
            self.link.enqueue(flow_id, ack_bits, now_ns, meta={"kind": "ack"})

    def _relay_receive(self, now_ns: int, meta: dict) -> None:
        frame = meta["frame"]
        msg = self.relay.receive(frame, now_ns)
        self._enqueue_ack(self.ul_ack_flow, len(frame), now_ns)
        if msg is None:
            return
        meta = dict(meta, ul_arrival_ns=now_ns)
        forward_at = now_ns + self.relay.processing.sample(self.relay.rng)
        self.world.schedule(forward_at, partial(self._relay_forward,
                                                meta=meta, msg=msg))

    def _relay_forward(self, now_ns: int, meta: dict, msg: protocol.V2XMessage) -> None:
        frame = self.relay.forward(msg, now_ns)
        self.link.enqueue(self.dl_flow, len(frame) * 8, now_ns,
                          meta={"kind": "app-dl", "frame": frame,
                                "published_ns": meta["published_ns"],
                                "ul_arrival_ns": meta["ul_arrival_ns"],
                                "forward_ns": now_ns})

    def _vehicle_receive(self, now_ns: int, meta: dict, cell_id: int) -> None:
        frame = meta["frame"]
        gt_ul = meta["ul_arrival_ns"] - meta["published_ns"]
        gt_dl = now_ns - meta["forward_ns"]
        affected = any(meta["forward_ns"] < end and now_ns > start
                       for start, end in self.windows)
        self.vehicle.receive(frame, now_ns, cell_id, gt_ul, gt_dl, affected)
        self._enqueue_ack(self.dl_ack_flow, len(frame), now_ns)


# --------------------------------------------------------------------------
# Real-socket agents
# --------------------------------------------------------------------------

def _paced_deadlines(rate_hz: float, n: int, start: float):
    for k in range(n):
        yield start + k / rate_hz


def run_real_sensor(host: str, port: int, *, frame_size_bytes: int,
                    rate_hz: float, duration_s: float, source_id: int = 1,
                    topic: str = UPLINK_TOPIC, payload_seed: int = 0,
                    clock: SystemClock | None = None,
                    provider: ZeroOffsetProvider | None = None,
                    max_retries: int = 5) -> int:
    """Publish message_count(rate, duration) frames at the configured pace;
    returns the number sent.  Transport failures trigger reconnect with
    backoff."""
    clock = clock or SystemClock()
    provider = provider or ZeroOffsetProvider()
    n = message_count(rate_hz, round(duration_s * 1_000_000_000))
    client = BrokerClient(host, port)
    sent = 0
    try:
        start = time.monotonic()
        for seq, deadline in enumerate(_paced_deadlines(rate_hz, n, start)):
            delay = deadline - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            now = clock.now_ns()
            msg = protocol.V2XMessage(
                source_id=source_id, seq=seq,
                t1=now, e1=provider.estimate_at(now).estimate_ns,
                payload=protocol.make_padded_payload(frame_size_bytes,
                                                     payload_seed, seq))
            frame = protocol.encode(msg)
            for attempt in range(max_retries):
                try:
                    client.publish(topic, frame)
                    break
                except OSError:
                    time.sleep(0.05 * (2 ** attempt))
                    client.close()
                    client = BrokerClient(host, port)
            else:
                raise ConnectionError(f"publish failed after {max_retries} retries")
            sent += 1
    finally:
        client.close()
    return sent


def run_real_relay(host: str, port: int, *, stop: threading.Event,
                   sub_topic: str = UPLINK_TOPIC,
                   pub_topic: str = DOWNLINK_TOPIC,
                   processing: ProcessingDelay | None = None,
                   clock: SystemClock | None = None,
                   provider: ZeroOffsetProvider | None = None,
                   rng_seed: int = 0,
                   poll_s: float = 0.2) -> tuple[int, int]:
    """Forward uplink frames to the downlink topic until stopped; returns
    (forwarded, corrupt_drops)."""
    clock = clock or SystemClock()
    provider = provider or ZeroOffsetProvider()
    processing = processing or ProcessingDelay()
    rng = random.Random(rng_seed)
    forwarded = 0
    corrupt = 0
    with BrokerClient(host, port) as client:
        client.subscribe(sub_topic)
        while not stop.is_set():
            got = client.recv_message(timeout=poll_s)
            if got is None:
                continue
            _, frame = got
            now = clock.now_ns()
            try:
                msg = protocol.decode(frame)
            except protocol.ProtocolError:
                corrupt += 1
                continue
            msg.t2 = now
            msg.e2 = provider.estimate_at(now).estimate_ns
            delay_ns = processing.sample(rng)
            if delay_ns > 0:
                time.sleep(delay_ns / 1e9)
            fwd_now = clock.now_ns()
            msg.t3 = fwd_now
            msg.e3 = provider.estimate_at(fwd_now).estimate_ns
            client.publish(pub_topic, protocol.encode(msg))
            forwarded += 1
    return forwarded, corrupt


def run_real_vehicle(host: str, port: int, *, stop: threading.Event,
                     topic: str = DOWNLINK_TOPIC,
                     sink: RecordWriter | None = None,
                     expected: int | None = None,
                     clock: SystemClock | None = None,
                     provider: ZeroOffsetProvider | None = None,
                     poll_s: float = 0.2) -> list[PacketRecord]:
    """Consume downlink frames into PacketRecords until stopped (or until
    `expected` records have arrived)."""
    clock = clock or SystemClock()
    provider = provider or ZeroOffsetProvider()
    records: list[PacketRecord] = []
    with BrokerClient(host, port) as client:
        client.subscribe(topic)
        while not stop.is_set():
            got = client.recv_message(timeout=poll_s)
            if got is None:
                if expected is not None and len(records) >= expected:
                    break
                continue
            _, frame = got
            now = clock.now_ns()
            try:
                msg = protocol.decode(frame)
                corrupt = False
            except protocol.ProtocolError:
                salvaged = protocol.decode_unchecked(frame)
                msg = salvaged if salvaged is not None else protocol.V2XMessage()
                corrupt = True
            rec = PacketRecord(
                source_id=msg.source_id, seq=msg.seq,
                t1=msg.t1, t2=msg.t2, t3=msg.t3, t4=now,
                e1=msg.e1, e2=msg.e2, e3=msg.e3,
                e4=provider.estimate_at(now).estimate_ns,
                frame_size=len(frame), serving_cell=-1,
                corrupt=corrupt, gt_ul=-1, gt_dl=-1)
            records.append(rec)
            if sink is not None:
                sink.append(rec)
            if expected is not None and len(records) >= expected:
                break
    return records
