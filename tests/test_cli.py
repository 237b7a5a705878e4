"""The `cv2x-bench` command line, called through `cli.main` in process."""

from __future__ import annotations

import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from cv2x_bench import analysis, cli, protocol
from cv2x_bench.broker import Broker, BrokerClient, recv_envelope, send_envelope

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
MS = 1_000_000


def _frame(seq: int, flip_payload: bool = False) -> bytes:
    frame = bytearray(protocol.encode(protocol.V2XMessage(
        source_id=1, seq=seq, t1=11, t2=22, t3=33, payload=b"p" * 64)))
    if flip_payload:
        frame[protocol.HEADER_LEN] ^= 0x01
    return bytes(frame)


def _wait_for(condition) -> None:
    deadline = time.monotonic() + 5.0
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def _publish_when_subscribed(broker: Broker, topic: str, frames: list[bytes],
                             then=None) -> threading.Thread:
    def run() -> None:
        _wait_for(lambda: broker.subscriber_count(topic) == 1)
        with BrokerClient(broker.host, broker.port) as pub:
            for frame in frames:
                pub.publish(topic, frame)
        if then is not None:
            then()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def test_run_writes_log_and_config_echo(tmp_path, capsys):
    assert cli.main(["run", "--config", str(CONFIGS / "nominal_example.json"),
                     "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario nominal-example: sent=100 records=100\n")
    log = tmp_path / "nominal-example.jsonl"
    assert len(log.read_text(encoding="utf-8").splitlines()) == 100
    assert f"log: {log}" in out
    echo = json.loads((tmp_path / "nominal-example.config.json")
                      .read_text(encoding="utf-8"))
    assert echo["name"] == "nominal-example" and echo["seed"] == 1


def test_analyze_writes_the_report(tmp_path, capsys):
    cli.main(["run", "--config", str(CONFIGS / "nominal_example.json"),
              "--out", str(tmp_path / "run")])
    report = tmp_path / "report"
    assert cli.main(["analyze", "--log", str(tmp_path / "run" / "nominal-example.jsonl"),
                     "--out", str(report)]) == 0
    assert "nominal-example [e2e]: n=100 " in capsys.readouterr().out
    for name in ("stats.csv", "cdf.svg", "per_packet_nominal-example.csv"):
        assert (report / name).stat().st_size > 0, name


def test_the_cli_imports_no_xml_or_http_modules():
    # a fresh interpreter, since this one may have loaded them already
    code = ("import sys, cv2x_bench.cli; print(sorted(m for m in "
            "('xml.sax', 'urllib.request', 'http.client', 'ssl') "
            "if m in sys.modules))")
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.stdout.strip() == "[]"


def _modules_loaded_by(argv: list[str]) -> list[str]:
    """The sorted list of cv2x_bench modules, as printed by a fresh
    interpreter after cli.main(argv) returns 0 (this one has loaded every
    module)."""
    code = ("import sys; from cv2x_bench import cli; "
            f"assert cli.main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules if m.startswith('cv2x_bench')))")
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True,
                            env=dict(os.environ, PYTHONPATH=src))
    return result.stdout.splitlines()[-1]


def test_analyze_loads_only_the_analysis_modules(tmp_path):
    log = tmp_path / "log.jsonl"
    analysis.write_records(log, [analysis.PacketRecord(
        source_id=1, seq=seq, t1=10**9, t2=10**9 + MS, t3=10**9 + 2 * MS,
        t4=10**9 + 3 * MS) for seq in range(3)])
    base = ("", ".analysis", ".cli", ".clockmodel", ".protocol")
    assert _modules_loaded_by(
        ["analyze", "--log", str(log), "--out", str(tmp_path / "report")]
    ) == str(sorted(f"cv2x_bench{name}" for name in base))
    # the UDP blaster does not load the emulator
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sink:
        sink.bind(("127.0.0.1", 0))
        host, port = sink.getsockname()
        assert _modules_loaded_by(
            ["loadgen", "--target", f"{host}:{port}", "--rate-mbps", "1",
             "--duration", "0.01", "--size", "100"]
        ) == str(sorted(f"cv2x_bench{name}" for name in (*base, ".loadgen")))


def test_malformed_config_exits_2_naming_the_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "seed": 1, "duration_s": -1}),
                   encoding="utf-8")
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert capsys.readouterr().err == "error: config.duration_s must be positive\n"


def test_malformed_matrix_config_exits_2_naming_the_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"master_seed": 1, "cells": "none"}),
                   encoding="utf-8")
    assert cli.main(["matrix", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: matrix.cells must be a list\n"


def test_a_run_that_does_not_drain_exits_1_with_the_cause(tmp_path, capsys):
    # a 1 GB background packet holds the uplink for 200 s, longer than the
    # run's drain grace, so 1 of the 10 messages is logged
    config = tmp_path / "slow.json"
    config.write_text(json.dumps({
        "name": "slow", "scheduler": "BL", "seed": 1, "duration_s": 1.0,
        "load": {"ul": "1x5", "packet_size_bytes": 1_000_000_000,
                 "queue_cap_bytes": 1_000_000_000}}), encoding="utf-8")
    assert cli.main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        "error: scenario slow: pipeline did not drain (1/10 records after "
        "grace period)\n")


def test_analyze_of_an_empty_log_exits_1(tmp_path, capsys):
    log = tmp_path / "empty.jsonl"
    log.write_text("", encoding="utf-8")
    assert cli.main(["analyze", "--log", str(log)]) == 1
    assert (capsys.readouterr().err
            == f"error: {log}: no usable records to summarize\n")


def _dl_direct_log(path: Path, corrupt: bool = False) -> None:
    """The log a vehicle writes of frames a sensor published straight to
    its topic: no relay stamps t2 and t3."""
    records = [analysis.PacketRecord(source_id=1, seq=seq, t1=10**9 + seq * MS,
                                     t4=10**9 + seq * MS + 3 * MS, frame_size=100,
                                     corrupt=corrupt)
               for seq in range(4)]
    analysis.write_records(path, records)


def test_analyze_of_an_all_corrupt_log_exits_1(tmp_path, capsys):
    log = tmp_path / "corrupt.jsonl"
    _dl_direct_log(log, corrupt=True)
    assert cli.main(["analyze", "--log", str(log)]) == 1
    assert (capsys.readouterr().err
            == f"error: {log}: no usable records to summarize\n")


def test_analyze_of_a_leg_without_its_stamps_exits_1(tmp_path, capsys):
    log = tmp_path / "dl-direct.jsonl"
    _dl_direct_log(log)
    assert cli.main(["analyze", "--log", str(log), "--metric", "ul"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log}: uplink latency needs t1 and t2 ")
    assert err.count("\n") == 1
    # the end-to-end figure needs only t1 and t4
    report = tmp_path / "report"
    assert cli.main(["analyze", "--log", str(log), "--out", str(report)]) == 0
    assert "dl-direct [e2e]: n=4 mean=3.000 ms " in capsys.readouterr().out
    rows = (report / "per_packet_dl-direct.csv").read_text().splitlines()
    assert rows[1:] == [f"{seq},,,3000000,-1,0,0" for seq in range(4)]


def test_analyze_out_of_a_record_without_t4_exits_1(tmp_path, capsys):
    # the uplink figure needs only t1 and t2, the per-packet rows t4 too
    log = tmp_path / "no-t4.jsonl"
    analysis.write_records(log, [analysis.PacketRecord(
        source_id=1, seq=5, t1=100, t2=200, t3=300, t4=0)])
    assert cli.main(["analyze", "--log", str(log), "--metric", "ul"]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", "--log", str(log), "--metric", "ul",
                     "--out", str(tmp_path / "report")]) == 1
    assert capsys.readouterr().err == (
        f"error: {log}: downlink latency needs t3 and t4 (seq 5: t3=300, t4=0)\n")


def _loopback_log(path: Path) -> None:
    """2,000 records shaped like a real-socket vehicle's log, from integer
    arithmetic alone: epoch-scale stamps of 19 digits, zero offsets, no
    ground truth and no cell; record 600 is corrupt and record 1400 has no
    relay stamps."""
    epoch = 1_761_000_000_123_456_789
    records = []
    for seq in range(2000):
        t1 = epoch + seq * 500_000 + (seq * 7_919) % 20_011
        t2 = t1 + 80_000 + (seq * 104_729) % 310_007
        t3 = t2 + 15_000 + (seq * 1_299_709) % 90_001
        t4 = t3 + 70_000 + (seq * 15_485_863) % 290_011
        records.append(analysis.PacketRecord(
            source_id=1, seq=seq, t1=t1, t2=t2, t3=t3, t4=t4, frame_size=1000))
    records[600].corrupt = True
    records[1400].t2 = records[1400].t3 = 0
    analysis.write_records(path, records)


# SHA-256 of each file `analyze --out` writes for _loopback_log, both charts
# included
_LOOPBACK_REPORT = {
    "cdf.svg": "b573c016b65df04738cb3f79bf1ed60228a18fad2b327999893e3d1e6d510edc",
    "cdf_loopback.csv": "7ae231732b5a0722e4ec1832e48e567e09631a758622d1f976b01c01d1663e2b",
    "per_packet_loopback.csv":
        "b0dbf514fe5501c4043e3fac68a8c909f0f4d745dc0440508d2a9d8e827d2d77",
    "per_packet_loopback.svg":
        "2673941b9be53798b0b8470d27a0dfe8178a55787a97bd33d47cd17b39adc091",
    "stats.csv": "f8e9b1e24a49f1c172ec86578ff5a1fc235e952282f236b6c8168609b67836b1",
}


def test_analyze_out_writes_the_pinned_report_of_a_loopback_log(tmp_path, capsys):
    log = tmp_path / "loopback.jsonl"
    _loopback_log(log)
    report = tmp_path / "report"
    assert cli.main(["analyze", "--log", str(log), "--out", str(report)]) == 0
    assert "loopback [e2e]: n=1999 mean=0.510 ms " in capsys.readouterr().out
    rows = (report / "per_packet_loopback.csv").read_text().splitlines()
    assert rows[601] == "600,,,,-1,1,0" and rows[1401].startswith("1400,,,")
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in report.iterdir()} == _LOOPBACK_REPORT


def _closed_port() -> int:
    """A loopback port nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("command", [["relay"], ["vehicle", "--log", "v.jsonl"],
                                     ["sensor", "--duration", "0.01"]],
                         ids=["relay", "vehicle", "sensor"])
def test_an_unreachable_broker_exits_1_naming_the_address(command, tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    address = f"127.0.0.1:{_closed_port()}"
    assert cli.main([command[0], "--connect", address, *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {address}: ") and err.count("\n") == 1


def test_a_malformed_broker_message_exits_1_naming_the_address(capsys):
    with socket.create_server(("127.0.0.1", 0)) as server:
        address = f"127.0.0.1:{server.getsockname()[1]}"

        def answer() -> None:
            conn, _ = server.accept()
            with conn:
                recv_envelope(conn)  # the relay's subscription
                send_envelope(conn, "HELLO UL")
                conn.recv(1)  # until the relay hangs up

        peer = threading.Thread(target=answer, daemon=True)
        peer.start()
        assert cli.main(["relay", "--connect", address, "--duration", "5"]) == 1
        peer.join(timeout=5.0)
    assert (capsys.readouterr().err
            == f"error: {address}: unexpected broker message 'HELLO UL'\n")


def test_an_unwritable_log_exits_1_and_a_missing_directory_2(tmp_path, capsys):
    address = f"127.0.0.1:{_closed_port()}"
    # a directory cannot be opened as the log
    assert cli.main(["vehicle", "--connect", address, "--log", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err
    assert err.count("\n") == 1
    missing = tmp_path / "missing" / "v.jsonl"
    assert cli.main(["vehicle", "--connect", address, "--log", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_vehicle_reports_the_records_in_its_log(tmp_path, capsys):
    log = tmp_path / "vehicle.jsonl"
    with Broker() as broker:
        publisher = _publish_when_subscribed(broker, "DL",
                                             [_frame(seq) for seq in range(3)])
        assert cli.main(["vehicle", "--connect", f"{broker.host}:{broker.port}",
                         "--log", str(log), "--duration", "1"]) == 0
        publisher.join(timeout=5.0)
        assert not publisher.is_alive()
    lines = log.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert capsys.readouterr().out == f"vehicle logged 3 records to {log}\n"


def test_sigint_ends_relay_with_its_true_counts(capsys):
    before = signal.getsignal(signal.SIGINT)

    def interrupt() -> None:
        # the relay forwarded three frames to a topic nobody reads
        _wait_for(lambda: broker.frames_discarded == 3)
        # never deliver SIGINT to a default handler, which would raise
        # KeyboardInterrupt into the test runner; the relay's --duration
        # then ends it and the counts below fail
        if signal.getsignal(signal.SIGINT) is not before:
            os.kill(os.getpid(), signal.SIGINT)

    with Broker() as broker:
        frames = [_frame(0), _frame(1, flip_payload=True), _frame(2), _frame(3)]
        sender = _publish_when_subscribed(broker, "UL", frames, then=interrupt)
        started = time.monotonic()
        assert cli.main(["relay", "--connect", f"{broker.host}:{broker.port}",
                         "--duration", "20"]) == 0
        assert time.monotonic() - started < 10.0
        sender.join(timeout=5.0)
        assert not sender.is_alive()
    assert capsys.readouterr().out == "relay forwarded 3 frames, dropped 1 corrupt\n"
    assert signal.getsignal(signal.SIGINT) is before


def test_relay_ends_with_its_counts_when_the_broker_stops(capsys):
    broker = Broker()
    broker.start()

    def stop_broker() -> None:
        # the relay forwarded both frames to a topic nobody reads
        _wait_for(lambda: broker.frames_discarded == 2)
        broker.stop()

    try:
        sender = _publish_when_subscribed(broker, "UL", [_frame(0), _frame(1)],
                                          then=stop_broker)
        started = time.monotonic()
        assert cli.main(["relay", "--connect", f"{broker.host}:{broker.port}",
                         "--duration", "10"]) == 0
        assert time.monotonic() - started < 3.0
        sender.join(timeout=5.0)
        assert not sender.is_alive()
    finally:
        broker.stop()
    assert capsys.readouterr().out == "relay forwarded 2 frames, dropped 0 corrupt\n"


def test_broker_stops_on_sigint(capsys):
    before = signal.getsignal(signal.SIGINT)

    def interrupt() -> None:
        # wait for the broker's own handler; a default one would raise
        # KeyboardInterrupt into the test runner
        deadline = time.monotonic() + 5.0
        while (signal.getsignal(signal.SIGINT) is before
               and time.monotonic() < deadline):
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGINT)

    interrupter = threading.Thread(target=interrupt, daemon=True)
    interrupter.start()
    started = time.monotonic()
    assert cli.main(["broker", "--listen", "127.0.0.1:0"]) == 0
    assert time.monotonic() - started < 3.0
    assert capsys.readouterr().out.startswith("broker listening on 127.0.0.1:")
    assert signal.getsignal(signal.SIGINT) is before


def test_stop_event_is_set_on_sigterm_and_restores_both_handlers():
    signals = (signal.SIGINT, signal.SIGTERM)
    before = [signal.getsignal(signum) for signum in signals]
    with cli._stop_event(0) as stop:
        # never deliver SIGTERM to a default handler, which would end the
        # test runner
        assert signal.getsignal(signal.SIGTERM) is not before[1]
        os.kill(os.getpid(), signal.SIGTERM)
        assert stop.wait(5.0)
    assert [signal.getsignal(signum) for signum in signals] == before


def test_sigterm_ends_the_vehicle_with_its_log_written(tmp_path):
    log = tmp_path / "vehicle.jsonl"
    src = str(Path(cli.__file__).resolve().parents[1])
    with Broker() as broker:
        vehicle = subprocess.Popen(
            [sys.executable, "-m", "cv2x_bench.cli", "vehicle", "--connect",
             f"{broker.host}:{broker.port}", "--log", str(log)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        try:
            # the vehicle installs its handlers before it subscribes
            _wait_for(lambda: broker.subscriber_count("DL") == 1)
            with BrokerClient(broker.host, broker.port) as pub:
                for seq in range(20):
                    pub.publish("DL", _frame(seq))
            _wait_for(lambda: broker.frames_relayed == 20)
            time.sleep(1.0)  # for the vehicle to read what it was sent
            vehicle.send_signal(signal.SIGTERM)
            out, err = vehicle.communicate(timeout=10.0)
        finally:
            vehicle.kill()
    assert vehicle.returncode == 0, err
    lines = log.read_text(encoding="utf-8").splitlines()
    assert out == f"vehicle logged {len(lines)} records to {log}\n"
    assert len(lines) == 20


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                         ids=["SIGINT", "SIGTERM"])
def test_a_signal_ends_the_sensor_with_the_count_it_sent(signum):
    src = str(Path(cli.__file__).resolve().parents[1])
    received = 0
    with Broker() as broker, BrokerClient(broker.host, broker.port) as sub:
        sub.subscribe("UL")
        _wait_for(lambda: broker.subscriber_count("UL") == 1)
        # 1,000 frames over 10 s, unless a signal ends it
        sensor = subprocess.Popen(
            [sys.executable, "-m", "cv2x_bench.cli", "sensor", "--connect",
             f"{broker.host}:{broker.port}", "--rate", "100", "--duration", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        try:
            # the sensor installs its handlers before its first publish
            while received < 20:
                assert sub.recv_message(timeout=5.0) is not None
                received += 1
            sensor.send_signal(signum)
            out, err = sensor.communicate(timeout=10.0)
        finally:
            sensor.kill()
        # the frames it published before it ended
        while sub.recv_message(timeout=1.0) is not None:
            received += 1
    assert sensor.returncode == 0, err
    assert out == f"sensor sent {received} frames\n"
    assert received < 1000


def test_matrix_writes_stats_and_a_log_per_cell(tmp_path, capsys):
    config = tmp_path / "matrix.json"
    cells = [{"name": "bl-noload", "scheduler": "BL",
              "load": {"ul": "none", "dl": "none"}},
             {"name": "ap-loaded", "scheduler": "AP",
              "load": {"ul": "1x5", "dl": "1x110"}}]
    config.write_text(json.dumps({
        "master_seed": 7, "cells": cells,
        "defaults": {"duration_s": 0.5,
                     "message": {"size_bytes": 1000, "rate_hz": 20.0}}}),
        encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["matrix", "--config", str(config), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == ["bl-noload", "ap-loaded",
                                                        "stats"]
    rows = (out / "stats.csv").read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["bl-noload", "10"],
                                                       ["ap-loaded", "10"]]
    for cell in cells:
        records = analysis.ingest(out / cell["name"] / f"{cell['name']}.jsonl")
        assert [rec.seq for rec in records] == list(range(10))


BAD_NUMBERS = [
    (["sensor", "--connect", "127.0.0.1:9", "--rate", "0"], "--rate"),
    (["sensor", "--connect", "127.0.0.1:9", "--size", "10"], "--size"),
    (["sensor", "--connect", "127.0.0.1:9", "--size", "10000089"], "--size"),
    (["sensor", "--connect", "127.0.0.1:9", "--source-id", "70000"], "--source-id"),
    (["relay", "--connect", "127.0.0.1:9", "--proc-ms", "-1"], "--proc-ms"),
    (["vehicle", "--connect", "127.0.0.1:9", "--log", "/nonexistent/v.jsonl",
      "--expected", "0"], "--expected"),
    (["broker", "--listen", "127.0.0.1:99999"], "--listen"),
    (["loadgen", "--target", "127.0.0.1:9", "--rate-mbps", "0",
      "--duration", "0.01"], "--rate-mbps"),
    (["loadgen", "--target", "127.0.0.1:9", "--rate-mbps", "-1",
      "--duration", "0.01"], "--rate-mbps"),
    (["loadgen", "--target", "127.0.0.1:9", "--rate-mbps", "1",
      "--size", "70000", "--duration", "0.01"], "--size"),
]


@pytest.mark.parametrize("argv,option", BAD_NUMBERS,
                         ids=[" ".join(argv) for argv, _ in BAD_NUMBERS])
def test_bad_numbers_exit_2_naming_the_option(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"error: argument {option}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sensor", "--connect", "127.0.0.1:9", "--topic", "UL"],
    ["relay", "--connect", "127.0.0.1:9", "--sub", "UL"],
    ["relay", "--connect", "127.0.0.1:9", "--pub", "DL"],
    ["vehicle", "--connect", "127.0.0.1:9", "--log", "v.jsonl", "--topic", "DL"],
], ids=" ".join)
def test_the_pipeline_topics_are_not_options(argv, capsys):
    # sensor -> UL -> relay -> DL -> vehicle is the only wiring analyze reads
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " in capsys.readouterr().err


def test_sensor_size_takes_the_largest_frame():
    # 88 bytes of header and checksum around a 10,000,000-byte payload
    for size in (88, 10_000_088):
        args = cli.build_parser().parse_args(
            ["sensor", "--connect", "127.0.0.1:9", "--size", str(size)])
        assert args.size == size
