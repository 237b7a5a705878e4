"""TCP pub-sub broker: ordering, fan-out, and discard semantics."""

from __future__ import annotations

import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cv2x_bench import protocol
from cv2x_bench.broker import (_MAX_COMMAND_LINE, _MAX_ENVELOPE, Broker,
                               BrokerClient, ConnectionClosed, TransportError,
                               recv_envelope, send_envelope)


def test_envelope_round_trip():
    a, b = socket.socketpair()
    try:
        send_envelope(a, "PUB topic", b"\x01\x02frame")
        command, frame = recv_envelope(b)
        assert command == "PUB topic"
        assert frame == b"\x01\x02frame"
        send_envelope(a, "SUB topic")
        assert recv_envelope(b) == ("SUB topic", b"")
    finally:
        a.close()
        b.close()


def test_envelope_requires_command_line():
    a, b = socket.socketpair()
    try:
        a.sendall((3).to_bytes(4, "big") + b"abc")
        with pytest.raises(TransportError):
            recv_envelope(b)
    finally:
        a.close()
        b.close()


def test_peer_closing_between_envelopes_raises_connection_closed():
    a, b = socket.socketpair()
    with b:
        with a:
            send_envelope(a, "MSG UL", b"last")
        assert recv_envelope(b) == ("MSG UL", b"last")
        with pytest.raises(ConnectionClosed):
            recv_envelope(b)


@pytest.mark.parametrize("sent", [1, 2, 3])
def test_peer_closing_inside_the_prefix_is_not_a_clean_close(sent):
    a, b = socket.socketpair()
    with b:
        with a:
            a.sendall((5).to_bytes(4, "big")[:sent])
        with pytest.raises(TransportError) as caught:
            recv_envelope(b)
        assert not isinstance(caught.value, ConnectionClosed)


def test_client_socket_keeps_its_timeout_across_receives():
    # a receive's own timeout must not replace the socket's 5 s one, which
    # bounds every send and the rest of an envelope
    with socket.create_server(("127.0.0.1", 0)) as server:
        with BrokerClient(*server.getsockname()) as client:
            conn, _ = server.accept()
            with conn:
                send_envelope(conn, "MSG DL", b"frame")
                assert client.recv_message(timeout=2.0) == ("DL", b"frame")
                assert client._sock.gettimeout() == 5.0
                assert client.recv_message(timeout=0.05) is None
                assert client._sock.gettimeout() == 5.0


def test_envelope_limit_fits_one_frame():
    # a full-size frame plus a command line must pass, nothing far beyond it
    largest = protocol.FRAME_OVERHEAD + protocol.MAX_PAYLOAD
    assert largest + len("MSG some-topic\n") <= _MAX_ENVELOPE < largest + 4096


def test_envelope_over_the_limit_is_refused_on_both_read_paths():
    # the peer closes after the prefix, so a reader that accepted the
    # length would fail on the missing body instead
    prefix = (_MAX_ENVELOPE + 1).to_bytes(4, "big")
    a, b = socket.socketpair()
    with b:
        with a:
            a.sendall(prefix)
        with pytest.raises(TransportError, match="exceeds limit"):
            recv_envelope(b)
    with socket.create_server(("127.0.0.1", 0)) as server:
        with BrokerClient(*server.getsockname()) as client:
            conn, _ = server.accept()
            with conn:
                conn.sendall(prefix)
            with pytest.raises(TransportError, match="exceeds limit"):
                client.recv_message(timeout=2.0)


def test_counters_reconcile_under_concurrent_publishers():
    publishers, per_publisher = 4, 500
    sent = publishers * per_publisher
    received = []

    def publish(host: str, port: int) -> None:
        with BrokerClient(host, port) as pub:
            for i in range(per_publisher):
                # every other frame goes to a topic nobody subscribes to
                pub.publish("UL" if i % 2 else "nowhere", b"x")

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often to expose lost updates
    try:
        with Broker() as broker, BrokerClient(broker.host, broker.port) as sub:
            sub.subscribe("UL")
            time.sleep(0.1)
            threads = [threading.Thread(target=publish,
                                        args=(broker.host, broker.port))
                       for _ in range(publishers)]
            for t in threads:
                t.start()
            while len(received) < sent // 2:
                got = sub.recv_message(timeout=5.0)
                assert got is not None, f"only {len(received)} frames arrived"
                received.append(got)
            for t in threads:
                t.join(timeout=5.0)
                assert not t.is_alive()
            deadline = time.monotonic() + 5.0
            while (broker.frames_relayed + broker.frames_discarded < sent
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert broker.frames_relayed + broker.frames_discarded == sent
            assert broker.frames_relayed == broker.frames_discarded == sent // 2
    finally:
        sys.setswitchinterval(old_interval)


def test_single_subscriber_receives_in_order():
    with Broker() as broker:
        with BrokerClient(broker.host, broker.port) as sub, \
                BrokerClient(broker.host, broker.port) as pub:
            sub.subscribe("UL")
            time.sleep(0.1)
            for i in range(100):
                pub.publish("UL", bytes([i]))
            got = [sub.recv_message(timeout=2.0) for _ in range(100)]
            assert all(m is not None for m in got)
            assert [m[1][0] for m in got] == list(range(100))
            assert all(m[0] == "UL" for m in got)


def test_no_subscriber_frames_discarded():
    with Broker() as broker:
        with BrokerClient(broker.host, broker.port) as pub:
            for _ in range(5):
                pub.publish("nowhere", b"x")
            deadline = time.monotonic() + 2.0
            while broker.frames_discarded < 5 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert broker.frames_discarded == 5
            assert broker.frames_relayed == 0


def test_two_subscribers_both_receive_everything():
    with Broker() as broker:
        with BrokerClient(broker.host, broker.port) as sub_a, \
                BrokerClient(broker.host, broker.port) as sub_b, \
                BrokerClient(broker.host, broker.port) as pub:
            sub_a.subscribe("DL")
            sub_b.subscribe("DL")
            time.sleep(0.1)
            for i in range(20):
                pub.publish("DL", i.to_bytes(2, "big"))
            for sub in (sub_a, sub_b):
                frames = [sub.recv_message(timeout=2.0) for _ in range(20)]
                assert [int.from_bytes(f[1], "big") for f in frames] == list(range(20))


def test_subscriber_only_gets_its_topic():
    with Broker() as broker:
        with BrokerClient(broker.host, broker.port) as sub, \
                BrokerClient(broker.host, broker.port) as pub:
            sub.subscribe("UL")
            time.sleep(0.1)
            pub.publish("DL", b"wrong")
            pub.publish("UL", b"right")
            topic, frame = sub.recv_message(timeout=2.0)
            assert (topic, frame) == ("UL", b"right")
            assert sub.recv_message(timeout=0.2) is None


@st.composite
def _wire_piece(draw) -> bytes:
    """Random bytes, or an envelope with a prefix at or over the limit, no
    newline in its first _MAX_COMMAND_LINE bytes, a command line that is
    not UTF-8, or a truncated body."""
    kind = draw(st.sampled_from(("random", "length", "no-newline", "not-utf8",
                                 "truncated")))
    if kind == "random":
        return draw(st.binary(max_size=2048))
    command = draw(st.sampled_from((b"MSG UL", b"MSG DL", b"PUB UL", b"SUB DL",
                                    b"MSG", b"MSG a b")))
    if kind == "no-newline":
        command += b"x" * draw(st.integers(_MAX_COMMAND_LINE, _MAX_COMMAND_LINE + 64))
    elif kind == "not-utf8":
        # a byte of 0x80 or over before the newline never ends a UTF-8 sequence
        command += bytes([draw(st.integers(0x80, 0xFF))])
    body = command + b"\n" + draw(st.binary(max_size=512))
    length = len(body)
    if kind == "length":
        length = draw(st.sampled_from((_MAX_ENVELOPE, _MAX_ENVELOPE + 1, 2**32 - 1))
                      | st.integers(_MAX_ENVELOPE, 2**32 - 1))
    envelope = length.to_bytes(4, "big") + body
    if kind == "truncated":
        envelope = envelope[:draw(st.integers(0, len(envelope) - 1))]
    return envelope


def _client_recv(sock: socket.socket):
    # a client reads only its socket, so one around an end of a pair acts
    # as one connected to a broker
    client = BrokerClient.__new__(BrokerClient)
    client._sock = sock
    return client.recv_message(timeout=1.0)


@settings(max_examples=150, deadline=None)
@given(st.lists(_wire_piece(), min_size=1, max_size=3))
def test_fuzzed_wire_input_raises_only_transport_errors(pieces):
    # the peer writes the input and closes, so each read either returns an
    # envelope or raises TransportError (ConnectionClosed is one), and after
    # at most one envelope per 5 bytes (prefix and newline) one must raise
    data = b"".join(pieces)
    for read in (recv_envelope, _client_recv):
        a, b = socket.socketpair()
        with b:
            with a:
                a.sendall(data)
            b.settimeout(2.0)
            for _ in range(len(data) // 5 + 1):
                try:
                    got = read(b)
                except TransportError:
                    break
                assert got is None or (type(got[0]) is str and type(got[1]) is bytes)
            else:
                pytest.fail(f"{read.__name__} read past the end of its input")


NOT_UTF8 = (3).to_bytes(4, "big") + b"\xff\xfe\n"


def _bad_peer_loses_only_its_connection(monkeypatch, wire: bytes) -> None:
    crashed = []
    monkeypatch.setattr(threading, "excepthook", crashed.append)
    with Broker() as broker:
        with socket.create_connection((broker.host, broker.port)) as bad:
            bad.settimeout(2.0)
            bad.sendall(wire)
            assert bad.recv(1) == b""  # the broker closed this connection
        with BrokerClient(broker.host, broker.port) as sub, \
                BrokerClient(broker.host, broker.port) as pub:
            sub.subscribe("UL")
            time.sleep(0.1)
            pub.publish("UL", b"still served")
            assert sub.recv_message(timeout=2.0) == ("UL", b"still served")
    assert crashed == []


def test_non_utf8_command_from_a_peer_drops_only_that_connection(monkeypatch):
    _bad_peer_loses_only_its_connection(monkeypatch, NOT_UTF8)


def test_unknown_command_from_a_peer_drops_only_that_connection(monkeypatch):
    body = b"FOO UL\n"
    _bad_peer_loses_only_its_connection(
        monkeypatch, len(body).to_bytes(4, "big") + body)


def test_non_utf8_command_from_the_broker_raises_transport_error():
    with socket.create_server(("127.0.0.1", 0)) as server:
        with BrokerClient(*server.getsockname()) as client:
            conn, _ = server.accept()
            with conn:
                conn.sendall(NOT_UTF8)
                with pytest.raises(TransportError, match="not UTF-8"):
                    client.recv_message(timeout=2.0)


def test_stop_tells_a_connected_client():
    broker = Broker()
    broker.start()
    try:
        with BrokerClient(broker.host, broker.port) as sub:
            sub.subscribe("UL")
            deadline = time.monotonic() + 5.0
            while broker.subscriber_count("UL") == 0:
                assert time.monotonic() < deadline, "timed out"
                time.sleep(0.01)
            broker.stop()
            stopped = time.monotonic()
            with pytest.raises(TransportError):
                sub.recv_message(timeout=2.0)
            assert time.monotonic() - stopped < 1.0
    finally:
        broker.stop()


def test_a_subscriber_that_stops_reading_is_dropped():
    # 20 MB of frames is more than the non-reader's socket buffers hold at
    # Linux's default limits; the broker's sends to it then stall, and past
    # its 1 s send deadline it is dropped, so the publisher and the reader
    # go on.  The deadline holds for the whole frame, however many partial
    # sends it takes, so the publisher stalls about 1 s in all
    n = 2000
    received = []
    with Broker() as broker, \
            BrokerClient(broker.host, broker.port) as stalled, \
            BrokerClient(broker.host, broker.port) as reader, \
            BrokerClient(broker.host, broker.port) as pub:
        stalled.subscribe("DL")
        reader.subscribe("DL")
        deadline = time.monotonic() + 5.0
        while broker.subscriber_count("DL") < 2:
            assert time.monotonic() < deadline, "timed out"
            time.sleep(0.01)

        def read() -> None:
            while len(received) < n:
                got = reader.recv_message(timeout=5.0)
                if got is None:
                    return
                received.append(int.from_bytes(got[1][:4], "big"))

        reading = threading.Thread(target=read)
        reading.start()
        started = time.monotonic()
        for i in range(n):
            pub.publish("DL", i.to_bytes(4, "big") + bytes(10_000))
        assert time.monotonic() - started < 2.0
        reading.join(timeout=10.0)
        assert received == list(range(n))
        assert broker.subscriber_count("DL") == 1
        # the frame whose send failed is discarded, every other one relayed
        assert broker.frames_discarded == 1
        assert broker.frames_relayed > n
