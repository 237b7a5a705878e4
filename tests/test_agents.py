"""Agent pipeline tests: stamping order, residence time, handover
flagging, and the real-socket drivers' corrupt-frame handling and
reconnect."""

from __future__ import annotations

import os
import random
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from cv2x_bench import protocol, scenario
from cv2x_bench.agents import (DOWNLINK_TOPIC, UPLINK_TOPIC, ProcessingDelay,
                               SimRelay, SimSensor, SimVehicle, run_real_relay,
                               run_real_sensor, run_real_vehicle)
from cv2x_bench.analysis import PacketRecord, RecordWriter, ingest
from cv2x_bench.broker import (Broker, BrokerClient, TransportError,
                               recv_envelope)
from cv2x_bench.clockmodel import (DriftingClock, OffsetProvider,
                                   ZeroOffsetProvider, corrected_latency_dl, corrected_latency_e2e,
                                   corrected_latency_ul)
from cv2x_bench.netem import HandoverEvent
from cv2x_bench.scenario import config_from_obj, run_scenario
from config_defaults import NTP_PERIOD_NS, PROCESSING

MS = 1_000_000


def _sim_config(**overrides) -> dict:
    cfg = {"name": "agents-test", "mode": "sim", "scheduler": "BL", "seed": 5,
           "duration_s": 10.0, "message": {"size_bytes": 1000, "rate_hz": 10.0}}
    cfg.update(overrides)
    return cfg


def _run(**overrides):
    return run_scenario(config_from_obj(_sim_config(**overrides)))


def test_sensor_rate_times_duration_messages():
    res = _run()
    assert res.sensor_sent == 100
    assert [r.seq for r in res.records] == list(range(100))


def test_sensor_offered_load_arithmetic():
    clock = DriftingClock()
    provider = OffsetProvider(clock, period_ns=NTP_PERIOD_NS)
    sensor20 = SimSensor(1, 10_000, 20.0, 10_000_000_000, clock, provider)
    assert sensor20.n_messages == 200


def test_sensor_rejects_undersized_frames():
    clock = DriftingClock()
    with pytest.raises(ValueError):
        SimSensor(1, 50, 10.0, 1_000_000_000, clock,
                  OffsetProvider(clock, period_ns=NTP_PERIOD_NS))


def test_stamps_follow_pipeline_order():
    res = _run()
    for rec in res.records:
        assert rec.t1 < rec.t2 <= rec.t3 < rec.t4


def test_pipeline_telescoping_identity():
    # corrected UL + corrected residence + corrected DL is exactly the
    # corrected end-to-end latency
    res = _run(agents={
        "sensor": {"clock": {"offset0_ns": 3 * MS, "drift_ppm": 12.0},
                   "ntp": {"period_s": 0}},
        "relay": {"clock": {"offset0_ns": -2 * MS},
                  "processing_delay": {"uniform_ns": [0, 4 * MS]},
                  "ntp": {"period_s": 0}},
        "vehicle": {"clock": {"offset0_ns": 1 * MS, "drift_ppm": -9.0},
                    "ntp": {"period_s": 0}}})
    for rec in res.records:
        residence = (rec.t3 + rec.e3) - (rec.t2 + rec.e2)
        assert (corrected_latency_ul(rec) + residence + corrected_latency_dl(rec)
                == corrected_latency_e2e(rec))


def test_relay_constant_processing_delay():
    res = _run(agents={"relay": {"processing_delay": {"constant_ns": 5 * MS}}},
               duration_s=2.0)
    for rec in res.records:
        assert rec.t3 - rec.t2 == 5 * MS


def test_relay_zero_processing_is_pure_proxy():
    res = _run(duration_s=2.0)
    for rec in res.records:
        assert rec.t3 == rec.t2


def test_relay_recomputes_checksum_after_stamping():
    # the relay stamps the message in place; its frame is encoded afresh
    clock = DriftingClock()
    relay = SimRelay(clock, OffsetProvider(clock, period_ns=NTP_PERIOD_NS),
                     PROCESSING)
    msg = relay.forward(relay.receive(protocol.V2XMessage(seq=3, t1=9), 100), 200)
    assert (msg.t1, msg.t2, msg.t3) == (9, 100, 200)
    assert relay.forwarded == 1
    assert protocol.decode(protocol.encode(msg)) == msg


def test_pipeline_flags_only_intact_frames_a_handover_interrupted():
    _, pipeline = scenario._build_sim(config_from_obj(_sim_config()))
    first, second = pipeline.link.cells
    pipeline.link.set_mobility(first, [HandoverEvent(1000, first, second, 500)])

    def arrive(seq: int, forward_ns: int, now_ns: int) -> None:
        meta = {"msg": protocol.V2XMessage(seq=seq), "published_ns": 0,
                "ul_arrival_ns": 0, "forward_ns": forward_ns}
        pipeline._vehicle_receive(now_ns, meta=meta, cell_id=second)

    arrive(1, 900, 1200)
    arrive(3, 1500, 2000)  # after the interruption's end
    assert [rec.seq for rec in pipeline.vehicle.records] == [1, 3]
    assert not any(rec.corrupt for rec in pipeline.vehicle.records)
    assert pipeline.affected_seqs == {1}


def test_vehicle_logs_one_record_per_sent_message():
    cfg = config_from_obj(_sim_config(duration_s=2.0))
    from cv2x_bench.scenario import _build_sim
    world, pipeline = _build_sim(cfg)
    pipeline.start()
    world.run_until(world.start_ns + cfg.duration_ns + 50_000_000)
    assert len(pipeline.vehicle.records) == pipeline.sensor.next_seq


def test_processing_delay_sampling():
    rng = random.Random(1)
    const = ProcessingDelay(constant_ns=7)
    assert all(const.sample(rng) == 7 for _ in range(10))
    uni = ProcessingDelay(uniform_ns=(10, 20))
    samples = {uni.sample(rng) for _ in range(500)}
    assert min(samples) >= 10 and max(samples) <= 20
    assert len(samples) > 1
    with pytest.raises(ValueError):
        ProcessingDelay(uniform_ns=(5, 2))
    with pytest.raises(ValueError):
        ProcessingDelay(constant_ns=-1)


def test_reliable_delivery_no_gaps_under_load():
    res = _run(load={"ul": "1x40", "dl": "none"},
               message={"size_bytes": 10_000, "rate_hz": 20.0},
               duration_s=5.0)
    assert [r.seq for r in res.records] == list(range(100))
    assert all(not r.corrupt for r in res.records)


def test_message_count_matches_the_publish_timeline():
    from cv2x_bench.agents import message_count, publish_offset_ns
    for rate_hz, duration_ns in ((1.0, 500_000_000), (10.0, 10_000_000_000),
                                 (3.0, 1_000_000_000), (7.0, 1_000_000_001),
                                 (0.3, 10_000_000_000)):
        n = message_count(rate_hz, duration_ns)
        assert publish_offset_ns(n - 1, rate_hz) < duration_ns
        assert publish_offset_ns(n, rate_hz) >= duration_ns
    assert message_count(1.0, 500_000_000) == 1


# -- real-socket drivers ----------------------------------------------------

def _payload_flipped_frame(source_id: int, seq: int) -> bytes:
    frame = bytearray(protocol.encode(protocol.V2XMessage(
        source_id=source_id, seq=seq, t1=11, t2=22, t3=33, payload=b"p" * 64)))
    frame[protocol.HEADER_LEN] ^= 0x01  # first payload byte
    return bytes(frame)


def _run_agent_thread(target, **kwargs):
    """Start a real agent on a thread; its return value lands in the list."""
    result = []
    thread = threading.Thread(target=lambda: result.append(target(**kwargs)),
                              daemon=True)
    thread.start()
    return thread, result


def _wait_for(condition) -> None:
    deadline = time.monotonic() + 5.0
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def test_real_relay_drops_a_corrupt_frame():
    stop = threading.Event()
    with Broker() as broker:
        thread, result = _run_agent_thread(run_real_relay, host=broker.host,
                                           port=broker.port, stop=stop,
                                           processing=PROCESSING)
        try:
            _wait_for(lambda: broker.subscriber_count(UPLINK_TOPIC) == 1)
            with BrokerClient(broker.host, broker.port) as pub:
                pub.publish(UPLINK_TOPIC, _payload_flipped_frame(7, 42))
            _wait_for(lambda: broker.frames_relayed == 1)
            # the frame is in the relay's socket; its next poll takes it
            time.sleep(0.5)
        finally:
            stop.set()
            thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert result == [(0, 1)]


def _real_vehicle_log(tmp_path, frame: bytes) -> PacketRecord:
    """The one record a real vehicle logs of a frame sent on the downlink."""
    log = tmp_path / "vehicle.jsonl"
    sink = RecordWriter(log)
    stop = threading.Event()
    with Broker() as broker:
        thread, result = _run_agent_thread(run_real_vehicle, host=broker.host,
                                           port=broker.port, stop=stop,
                                           sink=sink, expected=1)
        try:
            _wait_for(lambda: broker.subscriber_count(DOWNLINK_TOPIC) == 1)
            with BrokerClient(broker.host, broker.port) as pub:
                pub.publish(DOWNLINK_TOPIC, frame)
            thread.join(timeout=5.0)
        finally:
            stop.set()
            thread.join(timeout=5.0)
            sink.close()
    assert not thread.is_alive()
    [rec] = ingest(log)
    assert result == [[rec]]
    assert rec.corrupt is True
    assert rec.t4 > 0 and rec.serving_cell == -1
    assert rec.frame_size == len(frame)
    return rec


def test_real_vehicle_logs_a_corrupt_frame(tmp_path):
    rec = _real_vehicle_log(tmp_path, _payload_flipped_frame(7, 42))
    assert (rec.source_id, rec.seq) == (7, 42)
    assert (rec.t1, rec.t2, rec.t3) == (11, 22, 33)


@pytest.mark.parametrize("frame", [
    b"CV2X\x01\x00\x00\x07\x00\x2a",
    b"XV2X" + _payload_flipped_frame(7, 42)[4:],
], ids=["shorter-than-a-header", "bad-magic"])
def test_real_vehicle_logs_an_unsalvageable_frame(tmp_path, frame):
    # nothing of the header can be trusted, so the record carries only
    # the vehicle's own stamp
    rec = _real_vehicle_log(tmp_path, frame)
    assert rec.source_id == rec.seq == 0
    assert rec.t1 == rec.t2 == rec.t3 == 0


def test_real_sensor_reconnects_to_a_restarted_broker():
    # the broker goes away 0.3 s into a 1 s, 100 Hz run and comes back on
    # the same port 0.3 s later, within the sensor's publish retries
    with Broker() as broker:
        host, port = broker.host, broker.port
        thread, result = _run_agent_thread(
            run_real_sensor, host=host, port=port, stop=threading.Event(),
            frame_size_bytes=1000, rate_hz=100.0, duration_s=1.0)
        time.sleep(0.3)
    time.sleep(0.3)
    with Broker(host, port):
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert result == [100]


def test_a_stop_ends_the_sensors_retries_with_the_count_it_sent():
    # a broker that takes 20 frames of a 20 Hz, 10 s run, then resets the
    # connection and stops listening, so the sensor's next publish fails
    # and it retries with backoff; the stop comes 0.15 s later
    stop = threading.Event()
    with socket.create_server(("127.0.0.1", 0)) as server:
        host, port = server.getsockname()
        thread, result = _run_agent_thread(
            run_real_sensor, host=host, port=port, stop=stop,
            frame_size_bytes=1000, rate_hz=20.0, duration_s=10.0)
        conn, _ = server.accept()
        with conn:
            for _ in range(20):
                assert recv_envelope(conn)[0] == f"PUB {UPLINK_TOPIC}"
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
    time.sleep(0.15)
    stop.set()
    stopped = time.monotonic()
    thread.join(timeout=5.0)
    assert time.monotonic() - stopped < 0.5
    assert not thread.is_alive()
    assert result == [20]


def test_a_stop_ends_the_relays_processing_delay():
    stop = threading.Event()
    with Broker() as broker:
        thread, result = _run_agent_thread(
            run_real_relay, host=broker.host, port=broker.port, stop=stop,
            processing=ProcessingDelay(constant_ns=10_000 * MS))
        _wait_for(lambda: broker.subscriber_count(UPLINK_TOPIC) == 1)
        with BrokerClient(broker.host, broker.port) as pub:
            pub.publish(UPLINK_TOPIC, _frame(0))
        _wait_for(lambda: broker.frames_relayed == 1)
        time.sleep(0.2)  # the relay has taken the frame and waits
        stop.set()
        stopped = time.monotonic()
        thread.join(timeout=15.0)
        assert time.monotonic() - stopped < 0.5
    assert not thread.is_alive()
    # the frame whose delay the stop cut short is not forwarded
    assert result == [(0, 0)]


def test_real_and_sim_sensors_build_the_same_frames():
    # the real driver stamps t1 from the wall clock and pads each message
    # at the socket; all else is the sim sensor's, whose messages carry no
    # payload
    with Broker() as broker, BrokerClient(broker.host, broker.port) as sub:
        sub.subscribe(UPLINK_TOPIC)
        _wait_for(lambda: broker.subscriber_count(UPLINK_TOPIC) == 1)
        sent = run_real_sensor(broker.host, broker.port, stop=threading.Event(),
                               frame_size_bytes=10_000, rate_hz=100.0,
                               duration_s=0.05, payload_seed=9)
        real = [protocol.decode(sub.recv_message(timeout=5.0)[1])
                for _ in range(sent)]
    sim = SimSensor(1, 10_000, 100.0, 50 * MS, DriftingClock(),
                    ZeroOffsetProvider())
    want = [sim.build_frame(0) for _ in range(sim.n_messages)]
    assert sent == len(want) == 5
    for msg in want:
        assert msg.payload == b""
        msg.payload = protocol.make_padded_payload(10_000, 9, msg.seq)
    for msg in real:
        assert msg.t1 > 0
        msg.t1 = 0
    assert real == want
    assert len({msg.payload for msg in real}) == 5


def _frame(seq: int) -> bytes:
    return protocol.encode(protocol.V2XMessage(source_id=1, seq=seq,
                                               payload=b"p" * 64))


def test_real_vehicle_returns_its_records_when_the_broker_goes():
    stop = threading.Event()
    timer = threading.Timer(5.0, stop.set)  # ends the vehicle if it misses the close
    broker = Broker()
    broker.start()
    try:
        thread, result = _run_agent_thread(run_real_vehicle, host=broker.host,
                                           port=broker.port, stop=stop)
        timer.start()
        _wait_for(lambda: broker.subscriber_count(DOWNLINK_TOPIC) == 1)
        with BrokerClient(broker.host, broker.port) as pub:
            pub.publish(DOWNLINK_TOPIC, _frame(0))
            pub.publish(DOWNLINK_TOPIC, _frame(1))
        _wait_for(lambda: broker.frames_relayed == 2)
        broker.stop()
        stopped = time.monotonic()
        thread.join(timeout=5.0)
        assert time.monotonic() - stopped < 1.0
    finally:
        timer.cancel()
        broker.stop()
    assert not thread.is_alive()
    [records] = result
    assert [rec.seq for rec in records] == [0, 1]


def test_real_relay_raises_on_a_malformed_envelope():
    with socket.create_server(("127.0.0.1", 0)) as server:
        def serve() -> None:
            conn, _ = server.accept()
            with conn:
                recv_envelope(conn)  # the relay's subscription
                conn.sendall((3).to_bytes(4, "big") + b"\xff\xfe\n")
                conn.recv(1)  # hold the connection until the relay closes it

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        with pytest.raises(TransportError, match="not UTF-8"):
            run_real_relay(*server.getsockname(), stop=threading.Event(),
                           processing=PROCESSING)
        thread.join(timeout=5.0)
    assert not thread.is_alive()


def test_real_agents_do_not_load_the_emulator():
    # a fresh interpreter, since this one has loaded every module
    code = ("import sys, cv2x_bench.agents; "
            "print('cv2x_bench.netem' in sys.modules)")
    src = str(Path(protocol.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.stdout.split() == ["False"]
