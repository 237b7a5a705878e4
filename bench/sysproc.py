"""Launcher for the system processes of the real-socket workload.

    python3 bench/sysproc.py [--trace-out FILE] broker
    python3 bench/sysproc.py --trace-out FILE cli <cv2x-bench arguments>

`broker` runs the public `Broker` class on an ephemeral loopback port.  It
prints `PORT <n>`, then `READY` once the UL and DL topics each have a
subscriber (polled from `subscriber_count`), and on SIGTERM stops and
prints its counters as one JSON line.

`cli` runs `cv2x-bench <arguments>` through `cv2x_bench.cli.main` with
the layers wrapped.

With --trace-out the launcher wraps the program's layers (see spans.py)
and writes the spans of this process to FILE when it ends.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time

import env
import spans

READY_POLL_S = 0.005


def _run_broker() -> int:
    from cv2x_bench.broker import Broker

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    broker = Broker("127.0.0.1", 0)
    broker.start()
    try:
        print(f"PORT {broker.port}", flush=True)
        while not stop.is_set():
            if broker.subscriber_count("UL") >= 1 and broker.subscriber_count("DL") >= 1:
                print("READY", flush=True)
                break
            time.sleep(READY_POLL_S)
        stop.wait()
    finally:
        broker.stop()
    print(json.dumps({"frames_relayed": broker.frames_relayed,
                      "frames_discarded": broker.frames_discarded}), flush=True)
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("role", choices=["broker", "cli"])
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    env.prepare()
    tracer = None
    if opts.trace_out:
        tracer = spans.Tracer(spans.RECORDED)
        (spans.install_broker if opts.role == "broker" else spans.install_client)(tracer)
    try:
        if opts.role == "broker":
            return _run_broker()
        from cv2x_bench import cli
        return cli.main(opts.args)
    finally:
        if tracer is not None:
            tracer.uninstall()
            with open(opts.trace_out, "w", encoding="utf-8") as fp:
                json.dump(tracer.report(), fp)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
