"""The three ITS agents: sensor (producer), edge relay (broker/proxy), and
vehicle (consumer).

SimSensor, SimRelay and SimVehicle are the one implementation of the
stamping contract, and they stamp protocol.V2XMessage objects: the sensor
sets t1/e1 when it builds a message, the relay sets t2/e2 on receipt and
t3/e3 when it re-publishes, and the vehicle sets t4/e4 and logs one
PacketRecord per message.  Each stamp reads the agent's clock and offset
provider at a reference instant the caller passes in.

Two transports drive them.  In emulation mode a SimPipeline schedules them
on the SimWorld event loop at simulated reference times and hands each
message object from hop to hop; the link sees only its frame size, so a
message carries no payload and nothing is encoded.  In real-socket mode
run_real_sensor, run_real_relay and run_real_vehicle are blocking loops
over a BrokerClient connection, wired sensor -> UPLINK_TOPIC -> relay ->
DOWNLINK_TOPIC -> vehicle; they pad and encode, or decode, at the socket,
the relay dropping corrupt frames and the vehicle logging what it can
salvage of them.  They give each agent an ideal clock and zero offset
estimates and pass the host's epoch time as the reference instant.  Each
ends cleanly when its stop event is set, the relay and the vehicle also
when the broker closes their connection.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator

from . import protocol
from .analysis import PacketRecord, RecordWriter
from .broker import BrokerClient, ConnectionClosed
from .clockmodel import DriftingClock, OffsetProvider, ZeroOffsetProvider

if TYPE_CHECKING:
    from .netem import Delivery, SimWorld


UPLINK_TOPIC = "UL"
DOWNLINK_TOPIC = "DL"

Provider = OffsetProvider | ZeroOffsetProvider


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
    """Publishes messages of a fixed frame size at a fixed rate, with no
    payload (run_real_sensor pads them at the socket); consumes nothing."""

    def __init__(self, source_id: int, frame_size_bytes: int, rate_hz: float,
                 duration_ns: int, clock: DriftingClock,
                 provider: Provider, start_ns: int = 0) -> None:
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
        self.start_ns = start_ns
        self.next_seq = 0
        self.n_messages = message_count(rate_hz, duration_ns)

    def publish_time(self, k: int) -> int:
        return self.start_ns + publish_offset_ns(k, self.rate_hz)

    def build_frame(self, reference_ns: int) -> protocol.V2XMessage:
        """The next message, stamped with t1/e1, with an empty payload."""
        seq = self.next_seq
        self.next_seq += 1
        e1 = self.provider.estimate_at(reference_ns)
        return protocol.V2XMessage(source_id=self.source_id, seq=seq,
                                   t1=self.clock.local_now(reference_ns), e1=e1)


class SimRelay:
    """Receives on the uplink topic, stamps, delays, re-publishes downlink."""

    def __init__(self, clock: DriftingClock, provider: Provider,
                 processing: ProcessingDelay, rng_seed: int = 0) -> None:
        self.clock = clock
        self.provider = provider
        self.processing = processing
        self.rng = random.Random(rng_seed)
        self.forwarded = 0

    def receive(self, msg: protocol.V2XMessage,
                reference_ns: int) -> protocol.V2XMessage:
        """Stamp t2/e2 on the received message, in place."""
        msg.e2 = self.provider.estimate_at(reference_ns)
        msg.t2 = self.clock.local_now(reference_ns)
        return msg

    def forward(self, msg: protocol.V2XMessage,
                reference_ns: int) -> protocol.V2XMessage:
        """Stamp t3/e3 on the message to re-publish, in place."""
        msg.e3 = self.provider.estimate_at(reference_ns)
        msg.t3 = self.clock.local_now(reference_ns)
        self.forwarded += 1
        return msg


class SimVehicle:
    """Consumes downlink frames and logs one PacketRecord per message."""

    def __init__(self, clock: DriftingClock, provider: Provider) -> None:
        self.clock = clock
        self.provider = provider
        self.records: list[PacketRecord] = []

    def receive(self, msg: protocol.V2XMessage, reference_ns: int,
                frame_size: int, serving_cell: int, gt_ul: int, gt_dl: int,
                corrupt: bool = False) -> PacketRecord:
        """Stamp t4/e4 and log the message, which arrived in a frame of
        frame_size bytes (corrupt: one that failed verification)."""
        e4 = self.provider.estimate_at(reference_ns)
        t4 = self.clock.local_now(reference_ns)
        rec = PacketRecord(
            source_id=msg.source_id, seq=msg.seq,
            t1=msg.t1, t2=msg.t2, t3=msg.t3, t4=t4,
            e1=msg.e1, e2=msg.e2, e3=msg.e3, e4=e4,
            frame_size=frame_size, serving_cell=serving_cell,
            corrupt=corrupt, gt_ul=gt_ul, gt_dl=gt_dl)
        self.records.append(rec)
        return rec


class SimPipeline:
    """Wires sensor -> uplink flow -> relay -> downlink flow -> vehicle onto
    a SimWorld, including the reverse-direction acknowledgment load.

    It adds its own flows to the world's link: "app-ul" in the sensor's
    cell and "app-dl" to the mobile vehicle, and with a positive ack_ratio
    the acknowledgment flows "app-ul-ack" and "app-dl-ack" in the opposite
    directions.  The per-hop base delay is the pipeline's: a frame reaches
    its receiver base_delay_ns after the link delivers it."""

    def __init__(self, world: SimWorld, sensor: SimSensor, relay: SimRelay,
                 vehicle: SimVehicle, *, sensor_cell: int, ack_ratio: float,
                 base_delay_ns: int) -> None:
        # the emulator is imported only here, so the real agents never load it
        from .netem import Direction, PriorityClass
        # a flow with no cell follows the vehicle
        flows = [("app-ul", Direction.UPLINK, sensor_cell),
                 ("app-dl", Direction.DOWNLINK, None)]
        if ack_ratio > 0:
            flows += [("app-ul-ack", Direction.DOWNLINK, sensor_cell),
                      ("app-dl-ack", Direction.UPLINK, None)]
        link = world.link
        for flow_id, direction, cell_id in flows:
            link.add_flow(flow_id, direction, PriorityClass.APPLICATION, cell_id, None)
        self.world = world
        self.link = link
        self.base_delay_ns = base_delay_ns
        self.sensor = sensor
        self.relay = relay
        self.vehicle = vehicle
        # every frame, a message's on either hop, is the sensor's size; an
        # ack is ack_ratio of it, and without ack flows the ratio is 0
        self.frame_bits = sensor.frame_size_bytes * 8
        self.ack_bits = round(sensor.frame_size_bytes * ack_ratio) * 8
        # the seqs of the messages whose downlink a handover interrupted
        self.affected_seqs: set[int] = set()
        world.on_delivery = self.on_delivery

    def start(self) -> None:
        if self.sensor.n_messages > 0:
            self.world.schedule(self.sensor.publish_time(0), self._publish)

    @property
    def complete(self) -> bool:
        return len(self.vehicle.records) >= self.sensor.n_messages

    def _publish(self, now_ns: int) -> None:
        msg = self.sensor.build_frame(now_ns)
        self.link.enqueue("app-ul", self.frame_bits, now_ns,
                          meta={"kind": "app-ul", "msg": msg,
                                "published_ns": now_ns})
        if self.sensor.next_seq < self.sensor.n_messages:
            self.world.schedule(self.sensor.publish_time(self.sensor.next_seq),
                                self._publish)

    def on_delivery(self, d: Delivery) -> None:
        kind = d.meta.get("kind") if d.meta else None
        arrival = d.delivery_ns + self.base_delay_ns
        if kind == "app-ul":
            self.world.schedule(arrival, partial(self._relay_receive, meta=d.meta))
        elif kind == "app-dl":
            self.world.schedule(arrival, partial(self._vehicle_receive,
                                                 meta=d.meta, cell_id=d.cell_id))

    def _enqueue_ack(self, flow_id: str, now_ns: int) -> None:
        if self.ack_bits > 0:
            self.link.enqueue(flow_id, self.ack_bits, now_ns, meta={"kind": "ack"})

    def _relay_receive(self, now_ns: int, meta: dict) -> None:
        self.relay.receive(meta["msg"], now_ns)
        self._enqueue_ack("app-ul-ack", now_ns)
        meta = dict(meta, ul_arrival_ns=now_ns)
        forward_at = now_ns + self.relay.processing.sample(self.relay.rng)
        self.world.schedule(forward_at, partial(self._relay_forward, meta=meta))

    def _relay_forward(self, now_ns: int, meta: dict) -> None:
        msg = self.relay.forward(meta["msg"], now_ns)
        self.link.enqueue("app-dl", self.frame_bits, now_ns,
                          meta={"kind": "app-dl", "msg": msg,
                                "published_ns": meta["published_ns"],
                                "ul_arrival_ns": meta["ul_arrival_ns"],
                                "forward_ns": now_ns})

    def _vehicle_receive(self, now_ns: int, meta: dict, cell_id: int) -> None:
        gt_ul = meta["ul_arrival_ns"] - meta["published_ns"]
        gt_dl = now_ns - meta["forward_ns"]
        rec = self.vehicle.receive(meta["msg"], now_ns, self.sensor.frame_size_bytes,
                                   cell_id, gt_ul, gt_dl)
        if self.link.interrupted(meta["forward_ns"], now_ns):
            self.affected_seqs.add(rec.seq)
        self._enqueue_ack("app-dl-ack", now_ns)


# --------------------------------------------------------------------------
# Real-socket drivers
# --------------------------------------------------------------------------

_PUBLISH_RETRIES = 5
_POLL_S = 0.2


def run_real_sensor(host: str, port: int, *, stop: threading.Event,
                    frame_size_bytes: int, rate_hz: float, duration_s: float,
                    source_id: int = 1, payload_seed: int = 0) -> int:
    """Publish message_count(rate, duration) frames on the sim publish
    schedule, each SimSensor's message padded to frame_size_bytes from
    payload_seed, until all are sent or stop is set; returns the number
    sent.  A failed connect or publish is retried on a new connection with
    backoff, which stop also ends."""
    sensor = SimSensor(source_id, frame_size_bytes, rate_hz,
                       round(duration_s * 1_000_000_000), DriftingClock(),
                       ZeroOffsetProvider())
    client = None
    try:
        start = time.monotonic()
        while sensor.next_seq < sensor.n_messages:
            delay = (start + sensor.publish_time(sensor.next_seq) / 1e9
                     - time.monotonic())
            if stop.wait(delay):
                break
            msg = sensor.build_frame(time.time_ns())
            msg.payload = protocol.make_padded_payload(frame_size_bytes,
                                                       payload_seed, msg.seq)
            frame = protocol.encode(msg)
            for attempt in range(_PUBLISH_RETRIES):
                try:
                    if client is None:
                        client = BrokerClient(host, port)
                    client.publish(UPLINK_TOPIC, frame)
                    break
                except OSError:
                    if client is not None:
                        client.close()
                        client = None
                    if stop.wait(0.05 * (2 ** attempt)):
                        return sensor.next_seq - 1  # this frame was not sent
            else:
                raise ConnectionError(
                    f"publish failed after {_PUBLISH_RETRIES} retries")
    finally:
        if client is not None:
            client.close()
    return sensor.next_seq


def _frames(client: BrokerClient, done: Callable[[], bool]) -> Iterator[bytes]:
    """The frames delivered to the client until done() holds before a
    receive, or until the broker closes the connection between two
    envelopes.  A malformed envelope raises TransportError."""
    while not done():
        try:
            got = client.recv_message(timeout=_POLL_S)
        except ConnectionClosed:
            return
        if got is not None:
            yield got[1]


def run_real_relay(host: str, port: int, *, stop: threading.Event,
                   processing: ProcessingDelay) -> tuple[int, int]:
    """Forward uplink frames to the downlink topic until stopped or the
    broker goes; returns (forwarded, corrupt_drops).  A stop during a
    frame's processing delay ends the relay without forwarding it."""
    relay = SimRelay(DriftingClock(), ZeroOffsetProvider(), processing)
    corrupt_drops = 0
    with BrokerClient(host, port) as client:
        client.subscribe(UPLINK_TOPIC)
        for frame in _frames(client, stop.is_set):
            now_ns = time.time_ns()
            try:
                msg = protocol.decode(frame)
            except protocol.ProtocolError:
                corrupt_drops += 1
                continue
            relay.receive(msg, now_ns)
            delay_ns = relay.processing.sample(relay.rng)
            if delay_ns > 0 and stop.wait(delay_ns / 1e9):
                break
            client.publish(DOWNLINK_TOPIC,
                           protocol.encode(relay.forward(msg, time.time_ns())))
    return relay.forwarded, corrupt_drops


def run_real_vehicle(host: str, port: int, *, stop: threading.Event,
                     sink: RecordWriter | None = None,
                     expected: int | None = None) -> list[PacketRecord]:
    """Consume downlink frames into PacketRecords until stopped, until
    `expected` records have arrived, or until the broker goes.  A frame
    that fails verification is logged as corrupt, with the fields its
    header still holds, or none if its header is lost too."""
    vehicle = SimVehicle(DriftingClock(), ZeroOffsetProvider())
    records = vehicle.records

    def done() -> bool:
        return stop.is_set() or (expected is not None and len(records) >= expected)

    with BrokerClient(host, port) as client:
        client.subscribe(DOWNLINK_TOPIC)
        for frame in _frames(client, done):
            now_ns = time.time_ns()
            try:
                msg, corrupt = protocol.decode(frame), False
            except protocol.ProtocolError:
                msg = protocol.decode_unchecked(frame) or protocol.V2XMessage()
                corrupt = True
            rec = vehicle.receive(msg, now_ns, len(frame), serving_cell=-1,
                                  gt_ul=-1, gt_dl=-1, corrupt=corrupt)
            if sink is not None:
                sink.append(rec)
    return records
