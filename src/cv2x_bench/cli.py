"""Command-line entry point: scenario/matrix runners, log analysis, and the
real-socket agent subcommands."""

from __future__ import annotations

import argparse
import contextlib
import math
import signal
import sys
import threading
from pathlib import Path
from typing import Iterator

# the emulator, the broker and the agents are imported by the subcommands
# that use them, so that `analyze` loads only what it runs
from . import MAX_DURATION_S, analysis
from .protocol import FRAME_OVERHEAD, MAX_FRAME_SIZE


def _bounded(kind: type, low: float, high: float = math.inf, *,
             above: bool = False):
    """An argparse type: a finite `kind` number from `low` (exclusive when
    `above`) to `high`; a bad value exits with status 2 naming the option."""
    def parse(text: str):
        value = kind(text)
        if (not math.isfinite(value) or value < low or value > high
                or (above and value == low)):
            upper = f" and <= {high}" if high < math.inf else ""
            raise argparse.ArgumentTypeError(
                f"must be {'>' if above else '>='} {low}{upper}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse: "invalid int value: 'x'"
    return parse


_POSITIVE = _bounded(float, 0, above=True)
_DURATION = _bounded(float, 0, MAX_DURATION_S)
_PORT = _bounded(int, 0, 65535)


def _host_port(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"{text!r} is not host:port")
    return host, _PORT(port)


def _address(parser: argparse.ArgumentParser, option: str, **kwargs) -> None:
    """The command's one host:port option, read as `args.address`."""
    parser.add_argument(option, dest="address", metavar="HOST:PORT",
                        type=_host_port, **kwargs)


def _fmt_ms(ns: float) -> str:
    return f"{ns / 1e6:.3f} ms"


def _print_stats(name: str, stats: analysis.LatencyStats) -> None:
    print(f"{name}: n={stats.n} mean={_fmt_ms(stats.mean_ns)} "
          f"p95={_fmt_ms(stats.p95_ns)} p99={_fmt_ms(stats.p99_ns)}")


def _cmd_run(args: argparse.Namespace) -> int:
    from . import scenario
    cfg = scenario.load_config(args.config)
    try:
        result = scenario.run_scenario(cfg, out_dir=args.out)
    except RuntimeError as exc:  # an invariant broke, or messages went missing
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"scenario {result.name}: sent={result.sensor_sent} "
          f"records={len(result.records)}")
    if result.records:
        for metric in ("ul", "dl", "e2e"):
            _print_stats(metric, result.stats(metric))
    if result.log_path is not None:
        print(f"log: {result.log_path}")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from . import scenario
    matrix = scenario.load_matrix_config(args.config)
    result = scenario.run_matrix(matrix, args.out)
    for name, res in result.results.items():
        _print_stats(name, res.stats("e2e"))
    print(f"stats: {result.stats_csv}")
    for name, error in result.failures.items():
        print(f"FAILED {name}: {error}", file=sys.stderr)
    return 1 if result.failures else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    records = analysis.ingest(args.log)
    name = Path(args.log).stem
    try:
        stats = analysis.summarize(records, args.metric)
        _print_stats(f"{name} [{args.metric}]", stats)
        if args.out:
            # its rows need every hop's stamps, not only the metric's, so
            # they are built, or refused, before the rest of the report
            Path(args.out).mkdir(parents=True, exist_ok=True)
            analysis.write_per_packet_csv(
                records, Path(args.out) / f"per_packet_{analysis.safe_name(name)}.csv")
            analysis.emit_report({name: stats}, args.out)
            analysis.emit_per_packet_chart(name, records, args.out)
            print(f"report written to {args.out}")
    except ValueError as exc:  # no uncorrupted record, or one missing a stamp
        print(f"error: {args.log}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_broker(args: argparse.Namespace) -> int:
    from .broker import Broker
    host, port = args.address
    with Broker(host, port) as broker, _stop_event(0) as stop:
        print(f"broker listening on {broker.host}:{broker.port}", flush=True)
        stop.wait()
    return 0


def _cmd_sensor(args: argparse.Namespace) -> int:
    from .agents import run_real_sensor
    host, port = args.address
    with _stop_event(0) as stop:
        sent = run_real_sensor(host, port, stop=stop, frame_size_bytes=args.size,
                               rate_hz=args.rate, duration_s=args.duration,
                               source_id=args.source_id)
    print(f"sensor sent {sent} frames")
    return 0


@contextlib.contextmanager
def _stop_event(duration_s: float) -> Iterator[threading.Event]:
    """An event set after duration_s seconds (0: never) or on SIGINT or
    SIGTERM; the previous handlers are back in place when the block ends."""
    stop = threading.Event()
    timer = threading.Timer(duration_s, stop.set) if duration_s else None
    previous = {signum: signal.signal(signum, lambda signum, frame: stop.set())
                for signum in (signal.SIGINT, signal.SIGTERM)}
    try:
        if timer:
            timer.start()
        yield stop
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        if timer:
            timer.cancel()


def _cmd_relay(args: argparse.Namespace) -> int:
    from .agents import ProcessingDelay, run_real_relay
    host, port = args.address
    processing = ProcessingDelay(constant_ns=round(args.proc_ms * 1e6))
    with _stop_event(args.duration) as stop:
        forwarded, corrupt = run_real_relay(host, port, stop=stop,
                                            processing=processing)
    print(f"relay forwarded {forwarded} frames, dropped {corrupt} corrupt")
    return 0


def _cmd_vehicle(args: argparse.Namespace) -> int:
    from .agents import run_real_vehicle
    host, port = args.address
    with contextlib.closing(analysis.RecordWriter(args.log)) as sink, \
            _stop_event(args.duration) as stop:
        records = run_real_vehicle(host, port, stop=stop, sink=sink,
                                   expected=args.expected)
    print(f"vehicle logged {len(records)} records to {args.log}")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .loadgen import blast_udp
    sent = blast_udp(args.address, args.rate_mbps * 1e6, args.duration,
                     packet_size_bytes=args.size)
    print(f"loadgen sent {sent} datagrams")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cv2x-bench",
        description="Desk-scale C-V2X messaging testbed and analysis tool")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="directory for log + config echo")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("matrix", help="run an experiment matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("analyze", help="summarize a packet log")
    p.add_argument("--log", required=True)
    p.add_argument("--metric", choices=["ul", "dl", "e2e"], default="e2e")
    p.add_argument("--out", default=None, help="directory for CSV/SVG report")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("broker", help="run the pub-sub broker")
    _address(p, "--listen", default=("127.0.0.1", 4222))
    p.set_defaults(func=_cmd_broker)

    p = sub.add_parser("sensor", help="real-socket sensor agent")
    _address(p, "--connect", required=True)
    p.add_argument("--size", type=_bounded(int, FRAME_OVERHEAD, MAX_FRAME_SIZE),
                   default=1000, help="frame size in bytes")
    p.add_argument("--rate", type=_POSITIVE, default=10.0, help="messages per second")
    p.add_argument("--duration", type=_DURATION, default=10.0, help="seconds")
    p.add_argument("--source-id", type=_bounded(int, 0, 0xFFFF), default=1)
    p.set_defaults(func=_cmd_sensor)

    p = sub.add_parser("relay", help="real-socket edge relay agent")
    _address(p, "--connect", required=True)
    p.add_argument("--proc-ms", type=_bounded(float, 0, MAX_DURATION_S * 1000),
                   default=0.0)
    p.add_argument("--duration", type=_DURATION, default=0.0,
                   help="stop after this many seconds (0 = run until ^C)")
    p.set_defaults(func=_cmd_relay)

    p = sub.add_parser("vehicle", help="real-socket vehicle agent")
    _address(p, "--connect", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--duration", type=_DURATION, default=0.0)
    p.add_argument("--expected", type=_bounded(int, 1), default=None)
    p.set_defaults(func=_cmd_vehicle)

    p = sub.add_parser("loadgen", help="real-socket UDP background load")
    _address(p, "--target", required=True)
    p.add_argument("--rate-mbps", type=_POSITIVE, required=True)
    p.add_argument("--duration", type=_DURATION, default=10.0)
    p.add_argument("--size", type=_bounded(int, 1, 65507), default=1400,
                   help="datagram size in bytes")
    p.set_defaults(func=_cmd_loadgen)
    return parser


def _config_error() -> tuple[type, ...]:
    """scenario.ConfigError, once a subcommand has loaded scenario: no
    config error is raised before that."""
    scenario = sys.modules.get(f"{__package__}.scenario")
    return (scenario.ConfigError,) if scenario else ()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (analysis.IngestError, FileNotFoundError, *_config_error()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a file error names its path; a socket error does not name its peer
        address = getattr(args, "address", None)
        where = f"{address[0]}:{address[1]}: " if address and not exc.filename else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
