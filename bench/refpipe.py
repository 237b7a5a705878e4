"""A reference message pipeline that calibrates real-loopback latency.

    python3 bench/refpipe.py hub       # prints PORT <n>, then forwards
    python3 bench/refpipe.py relay <port>
    python3 bench/refpipe.py sink <port>

It has the real-socket path's shape and none of its code: a hub process
with one thread per connection (as the broker has), a relay and a sink
process, each a blocking loop over one loopback TCP connection.  A frame
goes generator -> hub -> relay -> hub -> sink, four socket hops as in
sensor -> broker -> relay -> broker -> vehicle, and every hop checks a
CRC-32 over the frame as the program's codec does.  Each process also
does a fixed amount of Python work per frame (`ROUNDS`): unpacking the
header, building a log record and encoding it as JSON, as the program's
processes do.  The amounts were sized so that each spends about the CPU
time per frame that its counterpart in the program spent (broker 77,
relay 72, vehicle 91 us on a 2-vCPU Xeon, Python 3.11).  A pipeline
that idles more than the program between frames would feel the host's
wake-up delays more than the program does.  The sink takes each
frame's latency from the due time the frame carries, and when a segment's
end marker arrives it prints `SEG <segment> <median latency ns> <frames>`.

The benchmark streams through this pipeline between blocks of the real
stream, at the same rate and frame size.  Its latency moves with the
host's wake-up and scheduling delays and with its speed, as the real
path's does, but not with any change to the program, so the ratio of the
two is the program's latency at reference host conditions (see
`calibrated_latency` in workload_real.py).
"""

from __future__ import annotations

import json
import socket
import statistics
import struct
import sys
import threading
import time
import zlib

# due time (ns, epoch clock), segment number, end-of-segment flag
HEAD = struct.Struct(">qIB")
ROLES = (b"GEN", b"RELAY", b"SINK")
# Rounds of `work` per frame in the hub, relay and sink.
ROUNDS = {"hub": 0, "relay": 2, "sink": 5}


def work(body: bytes, rounds: int) -> None:
    for i in range(rounds):
        due_ns, segment, _ = HEAD.unpack_from(body)
        json.dumps({"src": 1, "seq": segment, "t1": due_ns, "t2": due_ns + i,
                    "t3": due_ns, "t4": due_ns, "e1": 0, "e2": 0, "e3": 0,
                    "e4": 0, "size": len(body), "cell": -1, "corrupt": False,
                    "gt_ul": -1, "gt_dl": -1}, separators=(",", ":"))


def _read_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise EOFError("peer closed")
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket) -> bytes:
    length = int.from_bytes(_read_exact(sock, 4), "big")
    body = _read_exact(sock, length)
    if zlib.crc32(body[:-4]) != int.from_bytes(body[-4:], "big"):
        raise ValueError("reference frame failed its CRC")
    return body


def send_frame(sock: socket.socket, body: bytes) -> None:
    sock.sendall(len(body).to_bytes(4, "big") + body)


def make_frame(due_ns: int, segment: int, end: bool, size: int) -> bytes:
    """A frame of `size` bytes with its CRC-32 trailer."""
    head = HEAD.pack(due_ns, segment, int(end))
    body = head + bytes(size - len(head) - 4)
    return body + zlib.crc32(body).to_bytes(4, "big")


def connect(port: int, role: bytes) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_frame(sock, role + zlib.crc32(role).to_bytes(4, "big"))
    return sock


def _hub() -> int:
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    peers: dict[bytes, socket.socket] = {}
    locks = {role: threading.Lock() for role in ROLES}
    ready = threading.Condition()
    route = {b"GEN": b"RELAY", b"RELAY": b"SINK"}

    def serve(conn: socket.socket) -> None:
        role = recv_frame(conn)[:-4]
        with ready:
            peers[role] = conn
            ready.notify_all()
        target = route.get(role)
        if target is None:
            return
        with ready:
            ready.wait_for(lambda: target in peers)
        out = peers[target]
        try:
            while True:
                body = recv_frame(conn)
                work(body, ROUNDS["hub"])
                with locks[target]:
                    send_frame(out, body)
        except (EOFError, OSError):
            return

    print(f"PORT {listener.getsockname()[1]}", flush=True)
    while True:
        conn, _ = listener.accept()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        threading.Thread(target=serve, args=(conn,), daemon=True).start()


def _relay(port: int) -> int:
    sock = connect(port, b"RELAY")
    try:
        while True:
            body = recv_frame(sock)
            work(body, ROUNDS["relay"])
            send_frame(sock, body[:-4] + zlib.crc32(body[:-4]).to_bytes(4, "big"))
    except (EOFError, OSError):
        return 0


def _sink(port: int) -> int:
    sock = connect(port, b"SINK")
    print("READY", flush=True)
    latencies: list[int] = []
    try:
        while True:
            body = recv_frame(sock)
            now = time.time_ns()
            work(body, ROUNDS["sink"])
            due_ns, segment, end = HEAD.unpack_from(body)
            if end:
                print(f"SEG {segment} {statistics.median(latencies)} "
                      f"{len(latencies)}", flush=True)
                latencies = []
            else:
                latencies.append(now - due_ns)
    except (EOFError, OSError):
        return 0


def main(argv: list[str]) -> int:
    if argv == ["hub"]:
        return _hub()
    if len(argv) == 2 and argv[0] == "relay":
        return _relay(int(argv[1]))
    if len(argv) == 2 and argv[0] == "sink":
        return _sink(int(argv[1]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
