"""Minimal TCP pub-sub broker and client for real-socket runs.

Every transport unit is an envelope: a 4-byte big-endian length prefix
followed by that many bytes, which are a UTF-8 command line terminated by
'\\n' plus an optional raw frame:

    client -> broker:  "SUB <topic>\\n"
                       "PUB <topic>\\n" + frame
    broker -> client:  "MSG <topic>\\n" + frame

An envelope longer than one full-size frame plus a 1,024-byte command
line is refused with TransportError.  recv_envelope is the one envelope
reader of the broker and the client alike.

Delivery is at-most-once per subscriber connection with per-connection
FIFO ordering; frames published to a topic nobody subscribes to are
silently discarded.  A subscriber whose socket has not taken a whole
frame 1 s after its send began is disconnected and the frame counted as
discarded, so a consumer that stops reading stalls the publishers for at
most 1 s.  A client socket's 5 s timeout bounds every send and the rest
of every envelope: a stalled broker raises socket.timeout.
"""

from __future__ import annotations

import select
import socket
import threading
import time

from .protocol import MAX_FRAME_SIZE

# an envelope holds a command line of at most _MAX_COMMAND_LINE bytes
# (newline included) and at most one frame
_MAX_COMMAND_LINE = 1024
_MAX_ENVELOPE = _MAX_COMMAND_LINE + MAX_FRAME_SIZE
# the time a subscriber's socket has to take each whole frame
_SEND_DEADLINE_S = 1.0


class TransportError(ConnectionError):
    """Envelope framing failed or the peer went away mid-message."""


class ConnectionClosed(TransportError):
    """The peer closed the connection between two envelopes."""


def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise TransportError("connection closed mid-envelope")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_envelope(sock: socket.socket, command: str, frame: bytes = b"",
                  deadline_s: float | None = None) -> None:
    """Send one envelope.  With deadline_s, every send is non-blocking and
    TimeoutError is raised once deadline_s have passed since the first
    send, so an envelope the socket takes at once costs one send call."""
    body = command.encode("utf-8") + b"\n" + frame
    data = len(body).to_bytes(4, "big") + body
    if deadline_s is None:
        sock.sendall(data)
        return
    try:
        sent = sock.send(data, socket.MSG_DONTWAIT)
    except BlockingIOError:
        sent = 0
    if sent == len(data):
        return
    deadline = time.monotonic() + deadline_s
    poller = select.poll()
    poller.register(sock, select.POLLOUT)
    view = memoryview(data)
    while sent < len(data):
        left = deadline - time.monotonic()
        if left <= 0 or not poller.poll(left * 1000):
            raise TimeoutError(f"peer took {sent} of {len(data)} bytes "
                               f"in {deadline_s} s")
        try:
            sent += sock.send(view[sent:], socket.MSG_DONTWAIT)
        except BlockingIOError:
            pass


def recv_envelope(sock: socket.socket) -> tuple[str, bytes]:
    """Read one envelope as (command, frame).  A peer that closes before
    the envelope's first byte raises ConnectionClosed; one that closes
    inside it, or a malformed envelope, raises TransportError."""
    head = sock.recv(4)
    if not head:
        raise ConnectionClosed("connection closed")
    length = int.from_bytes(head + _read_exact(sock, 4 - len(head)), "big")
    if length > _MAX_ENVELOPE:
        raise TransportError(f"envelope of {length} bytes exceeds limit")
    body = _read_exact(sock, length)
    newline = body.find(b"\n", 0, _MAX_COMMAND_LINE)
    if newline < 0:
        raise TransportError("envelope has no command line")
    try:
        return body[:newline].decode("utf-8"), body[newline + 1:]
    except UnicodeDecodeError:
        raise TransportError("envelope command line is not UTF-8") from None


class Broker:
    """Threaded topic fan-out relay."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = socket.create_server((host, port), backlog=16)
        self.host, self.port = self._listener.getsockname()
        self._subscribers: dict[str, list[socket.socket]] = {}
        # every live connection, with the lock that orders its sends
        self._conns: dict[socket.socket, threading.Lock] = {}
        self._lock = threading.Lock()
        self._accept_thread: threading.Thread | None = None
        self.frames_relayed = 0
        self.frames_discarded = 0

    def start(self) -> None:
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               name="broker-accept", daemon=True)
        self._accept_thread.start()

    def subscriber_count(self, topic: str) -> int:
        with self._lock:
            return len(self._subscribers.get(topic, ()))

    def stop(self) -> None:
        # shutdown wakes a blocked accept at once; a bare close would not
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join()
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            self._drop_conn(conn)

    def __enter__(self) -> "Broker":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._conns[conn] = threading.Lock()
            threading.Thread(target=self._serve_conn, args=(conn,),
                             name="broker-conn", daemon=True).start()

    def _drop_conn(self, conn: socket.socket) -> None:
        with self._lock:
            for subs in self._subscribers.values():
                if conn in subs:
                    subs.remove(conn)
            self._conns.pop(conn, None)
        # shutdown wakes the connection's thread from recv and sends the
        # client a FIN; a bare close from another thread would do neither
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        conn.close()

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            while True:
                command, frame = recv_envelope(conn)
                parts = command.split()
                if len(parts) == 2 and parts[0] == "SUB":
                    with self._lock:
                        self._subscribers.setdefault(parts[1], []).append(conn)
                elif len(parts) == 2 and parts[0] == "PUB":
                    self._fan_out(parts[1], frame)
                else:
                    raise TransportError(f"unknown command {command!r}")
        except (TransportError, OSError):
            pass
        finally:
            self._drop_conn(conn)

    def _fan_out(self, topic: str, frame: bytes) -> None:
        with self._lock:
            targets = list(self._subscribers.get(topic, ()))
            if not targets:
                self.frames_discarded += 1
                return
        for conn in targets:
            lock = self._conns.get(conn)
            if lock is None:
                continue
            try:
                with lock:
                    send_envelope(conn, f"MSG {topic}", frame,
                                  deadline_s=_SEND_DEADLINE_S)
                with self._lock:
                    self.frames_relayed += 1
            # a connection another thread closed has no file descriptor to
            # poll (ValueError)
            except (OSError, ValueError):
                with self._lock:
                    self.frames_discarded += 1
                self._drop_conn(conn)


class BrokerClient:
    """Blocking single-connection client; one reader at a time."""

    def __init__(self, host: str, port: int) -> None:
        self._sock = socket.create_connection((host, port), timeout=5.0)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._send_lock = threading.Lock()

    def subscribe(self, topic: str) -> None:
        with self._send_lock:
            send_envelope(self._sock, f"SUB {topic}")

    def publish(self, topic: str, frame: bytes) -> None:
        with self._send_lock:
            send_envelope(self._sock, f"PUB {topic}", frame)

    def recv_message(self, timeout: float | None = None) -> tuple[str, bytes] | None:
        """Next (topic, frame) delivered to a subscription, or None if none
        starts within `timeout` seconds (None: no limit).  Only the wait for
        the socket to become readable is timed this way; recv_envelope then
        reads under the socket's 5 s timeout, so a poll timeout never
        splits an envelope."""
        poller = select.poll()
        poller.register(self._sock, select.POLLIN)
        if not poller.poll(None if timeout is None else timeout * 1000):
            return None
        command, frame = recv_envelope(self._sock)
        parts = command.split()
        if len(parts) != 2 or parts[0] != "MSG":
            raise TransportError(f"unexpected broker message {command!r}")
        return parts[1], frame

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "BrokerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
