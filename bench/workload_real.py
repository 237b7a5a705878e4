"""real-loopback: an open-loop message stream through the real-socket path.

The system under test is three processes on one host, as in the README's
real-socket mode: the broker (public `Broker` class, via sysproc.py), the
relay (`cv2x-bench relay`) and the vehicle (`cv2x-bench vehicle
--expected N --log ...`).  The generator is one thread with one publisher
connection in the benchmark process.  It sends frame k at its due time
start + k / rate, on the monotonic clock, whatever happened to frame
k - 1: independent sensors behave this way, so the loop is open.  Latency
is taken from each frame's due time, so time a stalled publisher spends
behind its schedule is counted, not hidden (coordinated omission).
After the stream the workload runs `cv2x-bench analyze` on the vehicle's
log.

Latency on a shared virtual machine is mostly the time an idle CPU takes
to wake up, and that moves by a factor of three with the load other
machines put on the host.  So the untraced run splits its stream into
blocks and, before the first block, between blocks and after the last,
streams a segment through a reference pipeline of the same shape
(refpipe.py) at the same rate.  The block's median latency is reported
relative to the reference segments' around it (`calibrated_latency`).
The system's CPU time per message is scaled in the same way by the
reference processes' CPU time per frame over the whole stream.
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import env
import procs
import refpipe
import spans

RATE_HZ = 2000
FRAME_BYTES = 1000
SOURCE_ID = 1
SETUP_TRIALS = 3
ANALYZE_CALLS = 5
BURST_FRAMES = 4000
START_DELAY_S = 0.05
# The untraced stream's blocks and the reference segments around them.
BLOCKS = 10
REF_FRAMES = 1000
# Pause after each block or segment, so that frames still in flight do not
# meet the next segment's.
GAP_S = 0.05
# The reference pipeline's median latency on the sizing host when it ran
# quiet; the calibrated latency reads close to the raw one there.
REFERENCE_LATENCY_MS = 0.26
# Likewise the reference processes' CPU time per frame, for cpu_us_per_msg.
REFERENCE_CPU_US = 255.0
READY_TIMEOUT_S = 20.0
DRAIN_TIMEOUT_S = 30.0
# Calibration reference for the three system processes starting at once:
# on the two CPUs of the sizing host they take about 1.5 times one.
SYSTEM_REFERENCE_S = 1.5 * calibrate.REFERENCE_PROCESS_S


@dataclass
class System:
    """One running broker + relay + vehicle trio."""
    broker: procs.Child
    relay: procs.Child
    vehicle: procs.Child
    port: int
    log_path: Path
    trace_dir: Path | None

    @property
    def members(self) -> tuple[procs.Child, ...]:
        return (self.broker, self.relay, self.vehicle)


def start_system(children: procs.Children, work: Path, tag: str,
                 expected: int, vehicle_timeout_s: float,
                 traced: bool) -> System:
    """Start the three system processes; returns once UL and DL each have
    a subscriber, as the broker reports from its own state."""
    deadline = time.monotonic() + READY_TIMEOUT_S
    trace_dir = work / f"trace-{tag}" if traced else None
    if trace_dir is not None:
        trace_dir.mkdir()

    def trace_file(role: str) -> Path | None:
        return trace_dir / f"{role}.json" if trace_dir is not None else None

    broker_argv = [sys.executable, str(env.BENCH / "sysproc.py")]
    if traced:
        broker_argv += ["--trace-out", str(trace_file("broker"))]
    broker = children.start(f"broker-{tag}", broker_argv + ["broker"],
                            pipe_stdout=True)
    line = broker.read_line(deadline)
    if not line.startswith("PORT "):
        raise RuntimeError(f"broker printed {line!r} instead of its port")
    port = int(line.split()[1])
    connect = f"127.0.0.1:{port}"
    log_path = work / f"vehicle-{tag}.jsonl"
    relay = children.start(f"relay-{tag}", procs.cli_command(
        ["relay", "--connect", connect], trace_file("relay")))
    vehicle = children.start(f"vehicle-{tag}", procs.cli_command(
        ["vehicle", "--connect", connect, "--log", str(log_path),
         "--expected", str(expected), "--duration", f"{vehicle_timeout_s:.0f}"],
        trace_file("vehicle")))
    line = broker.read_line(deadline)
    if line != "READY":
        raise RuntimeError(f"broker printed {line!r} instead of READY")
    return System(broker, relay, vehicle, port, log_path, trace_dir)


@dataclass
class Reference:
    """The running reference pipeline (refpipe.py): hub, relay and sink
    processes, and the generator's connection to the hub."""
    hub: procs.Child
    relay: procs.Child
    sink: procs.Child
    sock: object

    def cpu_seconds(self) -> float:
        return sum(procs.cpu_seconds(c.pid) for c in (self.hub, self.relay, self.sink))

    def segment_medians_ms(self, count: int) -> list[float]:
        """The sink's median latency of each of `count` segments."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        medians = []
        for segment in range(count):
            line = self.sink.read_line(deadline).split()
            if line[:2] != ["SEG", str(segment)] or int(line[3]) != REF_FRAMES:
                raise RuntimeError(f"reference sink printed {line!r} "
                                   f"for segment {segment}")
            medians.append(float(line[2]) / 1e6)
        return medians


def start_reference(children: procs.Children) -> Reference:
    deadline = time.monotonic() + READY_TIMEOUT_S
    argv = [sys.executable, str(env.BENCH / "refpipe.py")]
    hub = children.start("refhub", argv + ["hub"], pipe_stdout=True)
    line = hub.read_line(deadline)
    if not line.startswith("PORT "):
        raise RuntimeError(f"reference hub printed {line!r} instead of its port")
    port = line.split()[1]
    relay = children.start("refrelay", argv + ["relay", port])
    sink = children.start("refsink", argv + ["sink", port], pipe_stdout=True)
    line = sink.read_line(deadline)
    if line != "READY":
        raise RuntimeError(f"reference sink printed {line!r} instead of READY")
    return Reference(hub, relay, sink, refpipe.connect(int(port), b"GEN"))


def calibrated_latency(block_ms: list[float], ref_ms: list[float]) -> float:
    """The median over blocks of each block's median latency, scaled by
    the reference's latency on a quiet host over the mean of the
    reference segments before and after the block: the latency the system
    would show on that host.  A host that slows every hop slows both
    pipelines alike and cancels; a change to the program moves only the
    blocks and shows in full."""
    return statistics.median(
        block * REFERENCE_LATENCY_MS / ((ref_ms[i] + ref_ms[i + 1]) / 2)
        for i, block in enumerate(block_ms))


def stop_system(system: System) -> dict:
    """Stop relay and broker (the vehicle ends by itself); returns the
    broker's counters."""
    system.relay.stop(signal.SIGINT)
    system.broker.stop(signal.SIGTERM)
    system.vehicle.stop(signal.SIGINT)
    out = system.broker.rest_of_stdout().strip().splitlines()
    try:
        return json.loads(out[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"broker printed no counters: {out!r}") from None


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

@dataclass
class Segment:
    """A run of frames paced at RATE_HZ from `start_s` after the stream's
    start: `n` frames of the system under test from sequence number
    `first`, or, with `reference`, a segment through the reference
    pipeline, numbered `first`."""
    start_s: float
    n: int
    first: int
    reference: bool = False

    @property
    def end_s(self) -> float:
        return self.start_s + self.n / RATE_HZ


@dataclass
class Stream:
    """Schedule and outcome of one generator run.  The j-th frame of a
    segment is due at start_mono + segment.start_s + j / RATE_HZ on the
    monotonic clock; for frame k of the system under test that is
    due_ns[k] on the epoch clock the agents stamp with."""
    n_paced: int
    n_burst: int
    start_mono: float
    segments: list[Segment]
    due_ns: list[int]
    epoch_start: int
    lag_s: list[float] = field(default_factory=list)     # send - due
    burst_start_ns: int = 0
    error: BaseException | None = None

    @staticmethod
    def plan(n_paced: int, reference: bool) -> list[Segment]:
        """With `reference`, the paced frames come in BLOCKS blocks, with a
        reference segment before, between and after them; without, in one
        block."""
        blocks = min(BLOCKS, n_paced) if reference else 1
        segments: list[Segment] = []
        at = 0.0
        for b in range(blocks + 1):
            if reference:
                segments.append(Segment(at, REF_FRAMES, b, reference=True))
                at = segments[-1].end_s + GAP_S
            if b == blocks:
                break
            first = n_paced * b // blocks
            segments.append(Segment(at, n_paced * (b + 1) // blocks - first, first))
            at = segments[-1].end_s + GAP_S
        return segments

    @classmethod
    def scheduled(cls, n_paced: int, n_burst: int, reference: bool) -> "Stream":
        segments = cls.plan(n_paced, reference)
        start_mono = time.monotonic() + START_DELAY_S
        epoch_start = time.time_ns() + round(START_DELAY_S * 1e9)
        due_ns = [epoch_start + round((seg.start_s + k / RATE_HZ) * 1e9)
                  for seg in segments if not seg.reference for k in range(seg.n)]
        return cls(n_paced, n_burst, start_mono, segments, due_ns, epoch_start)

    @property
    def blocks(self) -> list[Segment]:
        return [seg for seg in self.segments if not seg.reference]


def _generate(port: int, stream: Stream, payloads: list[bytes],
              ref_sock=None) -> None:
    from cv2x_bench import protocol
    from cv2x_bench.broker import BrokerClient
    try:
        with BrokerClient("127.0.0.1", port) as client:
            for seg in stream.segments:
                for k in range(seg.n):
                    offset = seg.start_s + k / RATE_HZ
                    due = stream.start_mono + offset
                    delay = due - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    if seg.reference:
                        refpipe.send_frame(ref_sock, refpipe.make_frame(
                            stream.epoch_start + round(offset * 1e9), seg.first,
                            False, FRAME_BYTES))
                        continue
                    sent = time.monotonic()
                    seq = seg.first + k
                    frame = protocol.encode(protocol.V2XMessage(
                        source_id=SOURCE_ID, seq=seq, t1=time.time_ns(),
                        payload=payloads[seq]))
                    client.publish("UL", frame)
                    stream.lag_s.append(sent - due)
                if seg.reference:
                    delay = stream.start_mono + seg.end_s + GAP_S - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    refpipe.send_frame(ref_sock, refpipe.make_frame(
                        0, seg.first, True, FRAME_BYTES))
            stream.burst_start_ns = time.time_ns()
            for seq in range(stream.n_paced, stream.n_paced + stream.n_burst):
                client.publish("UL", protocol.encode(protocol.V2XMessage(
                    source_id=SOURCE_ID, seq=seq, t1=time.time_ns(),
                    payload=payloads[seq])))
    except BaseException as exc:  # reported by the caller after join
        stream.error = exc


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check_log(path: Path, n: int) -> tuple[list[dict], list[str]]:
    """Parse the vehicle log and check it holds frames 0..n-1 exactly once,
    intact, full size and with ordered stamps.  Returns the records by seq
    (None where missing) and the problems found."""
    problems: list[str] = []
    by_seq: list[dict | None] = [None] * n
    duplicates = corrupt = bad = 0
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return by_seq, [f"vehicle log unreadable: {exc}"]
    for line in lines:
        try:
            rec = json.loads(line)
            seq = rec["seq"]
        except (ValueError, KeyError, TypeError):
            bad += 1
            continue
        if rec.get("corrupt") or rec.get("src") != SOURCE_ID:
            corrupt += 1
        elif not (isinstance(seq, int) and 0 <= seq < n):
            bad += 1
        elif by_seq[seq] is not None:
            duplicates += 1
        elif (rec.get("size") != FRAME_BYTES
              or not 0 < rec.get("t1", 0) <= rec.get("t2", 0)
                     <= rec.get("t3", 0) <= rec.get("t4", 0)):
            bad += 1
        else:
            by_seq[seq] = rec
    missing = sum(1 for rec in by_seq if rec is None)
    for count, what in ((missing, "missing"), (duplicates, "duplicated"),
                        (corrupt, "corrupt"), (bad, "malformed or out of range")):
        if count:
            problems.append(f"{count} of {n} messages {what}")
    return by_seq, problems


def check_analyze_report(out_dir: Path, n: int) -> list[str]:
    stats = (out_dir / "stats.csv").read_text(encoding="utf-8").splitlines()
    if len(stats) != 2 or stats[1].split(",")[1] != str(n):
        return [f"analyze stats.csv does not summarize {n} records: {stats[1:]}"]
    return []


# ---------------------------------------------------------------------------
# One pass: set up, stream, analyze
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    setup_s: list[float]
    wall_s: float
    cpu_s: float
    cpu_us_per_msg: float
    peak_rss_mb: float
    latency_p50_ms: float
    calibration: dict
    analyze_s: float
    analyze_raw: list[float]
    attempted: int
    intact: int
    problems: list[str]
    layers: dict
    trace: dict | None


def run_pass(work: Path, seed: int, seconds: int, *, setup_trials: int,
             analyze_calls: int, burst: bool, traced: bool,
             probe_s: list[float], reference: bool = False) -> Pass:
    from cv2x_bench import protocol
    from cv2x_bench.analysis import percentile
    from cv2x_bench.scenario import derive_seed

    work.mkdir(parents=True)
    n_paced = RATE_HZ * seconds
    n_burst = BURST_FRAMES if burst else 0
    n = n_paced + n_burst
    payload_seed = derive_seed(seed, "payload")
    payloads = [protocol.make_padded_payload(FRAME_BYTES, payload_seed, seq)
                for seq in range(n)]
    vehicle_timeout_s = (Stream.plan(n_paced, reference)[-1].end_s
                         + n_burst / RATE_HZ + DRAIN_TIMEOUT_S)
    setup_s: list[float] = []
    with procs.Children(work) as children:
        calibration = calibrate.sample_process(parallel=3)
        for trial in range(setup_trials):
            start = time.perf_counter()
            system = start_system(children, work, f"{trial}", n,
                                  vehicle_timeout_s, traced)
            bring_up = time.perf_counter() - start
            after = calibrate.sample_process(parallel=3)
            setup_s.append(probe_s[trial % len(probe_s)]
                           + calibrate.scale(bring_up, calibration, after,
                                             SYSTEM_REFERENCE_S))
            if trial < setup_trials - 1:
                stop_system(system)
                after = calibrate.sample_process(parallel=3)
            calibration = after
        ref = start_reference(children) if reference else None
        cpu0 = {c.name: procs.cpu_seconds(c.pid) for c in system.members}
        ref_cpu0 = ref.cpu_seconds() if ref else 0.0
        stream = Stream.scheduled(n_paced, n_burst, reference)
        gen = threading.Thread(target=_generate, name="generator",
                               args=(system.port, stream, payloads,
                                     ref.sock if ref else None), daemon=True)
        gen.start()
        finished = system.vehicle.wait(stream.segments[-1].end_s
                                       + n_burst / RATE_HZ + DRAIN_TIMEOUT_S)
        cpu1 = {c.name: procs.cpu_seconds(c.pid)
                for c in (system.broker, system.relay)}
        gen.join(DRAIN_TIMEOUT_S)
        ref_ms = []
        ref_cpu_us = 0.0
        if ref is not None:
            if not gen.is_alive() and stream.error is None:
                ref_ms = ref.segment_medians_ms(len(stream.segments)
                                                - len(stream.blocks))
                ref_cpu_us = ((ref.cpu_seconds() - ref_cpu0) * 1e6
                              / (REF_FRAMES * len(ref_ms)))
            ref.sock.close()
        counters = stop_system(system)
    if gen.is_alive():
        raise RuntimeError("generator did not finish")
    problems: list[str] = []
    if stream.error is not None:
        problems.append(f"generator failed: {stream.error!r}")
    if not finished:
        problems.append("vehicle did not log every message in time")
    by_seq, log_problems = check_log(system.log_path, n)
    problems += log_problems
    intact = sum(1 for rec in by_seq if rec is not None)

    cpu_s = (sum(cpu1[c.name] - cpu0[c.name] for c in (system.broker, system.relay))
             + system.vehicle.usage.cpu_s - cpu0[system.vehicle.name])
    paced = [rec for rec in by_seq[:n_paced] if rec is not None]
    latency_ms = [(rec["t4"] - stream.due_ns[rec["seq"]]) / 1e6 for rec in paced]
    block_ms: list[float] = []
    wall_s = 0.0
    for seg in stream.blocks:
        block = [rec for rec in by_seq[seg.first:seg.first + seg.n] if rec is not None]
        if block:
            block_ms.append(percentile([(rec["t4"] - stream.due_ns[rec["seq"]]) / 1e6
                                        for rec in block], 0.50))
            wall_s += (max(rec["t4"] for rec in block) - stream.due_ns[seg.first]) / 1e9
    layers = {}
    if paced:
        layers = _latency_split(paced, latency_ms, stream, by_seq[n_paced:])
    layers.update({"broker.frames_relayed": counters["frames_relayed"],
                   "broker.frames_discarded": counters["frames_discarded"],
                   "broker.unreconciled": 2 * intact - counters["frames_relayed"]})

    analyze_raw: list[float] = []
    analyze_s: list[float] = []
    ingest_out = work / "ingest.csv"
    ingest_ref = calibrate.REFERENCE_INGEST_S_PER_RECORD * n
    calibration = calibrate.sample_ingest(system.log_path, ingest_out)
    for call in range(analyze_calls):
        out = work / f"analyze-{call}"
        trace_out = work / f"trace-analyze-{call}.json" if traced else None
        analyze_raw.append(procs.run_timed(
            procs.cli_command(["analyze", "--log", str(system.log_path),
                               "--out", str(out)], trace_out),
            work, f"analyze-{call}", timeout_s=120))
        after = calibrate.sample_ingest(system.log_path, ingest_out)
        analyze_s.append(calibrate.scale(analyze_raw[-1], calibration, after,
                                         ingest_ref))
        calibration = after
        problems += check_analyze_report(out, n)
    trace = None
    if traced:
        for child in system.members:
            if not (system.trace_dir / f"{child.name.split('-')[0]}.json").is_file():
                problems.append(f"{child.name} wrote no spans (exit code "
                                f"{child.proc.returncode}): its layers would read 0")
        files = sorted(system.trace_dir.glob("*.json")) + sorted(work.glob("trace-analyze-*.json"))
        trace = spans.merge_reports([json.loads(f.read_text(encoding="utf-8"))
                                     for f in files])
    raw_p50_ms = percentile(latency_ms, 0.50) if latency_ms else 0.0
    calibrated = reference and len(block_ms) == len(stream.blocks) and ref_ms
    raw_cpu_us = cpu_s / max(intact, 1) * 1e6
    return Pass(setup_s=setup_s,
                wall_s=wall_s,
                cpu_s=cpu_s,
                cpu_us_per_msg=(raw_cpu_us * REFERENCE_CPU_US / ref_cpu_us
                                if calibrated and ref_cpu_us > 0 else raw_cpu_us),
                peak_rss_mb=max(c.usage.maxrss_mib for c in system.members),
                latency_p50_ms=(calibrated_latency(block_ms, ref_ms)
                                if calibrated else raw_p50_ms),
                calibration={"raw_latency_p50_ms": raw_p50_ms,
                             "block_p50_ms": block_ms,
                             "reference_p50_ms": ref_ms,
                             "raw_cpu_us_per_msg": raw_cpu_us,
                             "reference_cpu_us_per_frame": ref_cpu_us},
                analyze_s=statistics.median(analyze_s),
                analyze_raw=analyze_raw,
                attempted=n, intact=intact, problems=problems,
                layers=layers, trace=trace)


def _latency_split(paced: list[dict], latency_ms: list[float], stream: Stream,
                   burst: list[dict | None]) -> dict:
    from cv2x_bench.analysis import percentile
    ul = [(r["t2"] - r["t1"]) / 1e6 for r in paced]
    relay = [(r["t3"] - r["t2"]) / 1e6 for r in paced]
    dl = [(r["t4"] - r["t3"]) / 1e6 for r in paced]
    lag_ms = [lag * 1e3 for lag in stream.lag_s]
    layers = {"real.ul.p50_ms": percentile(ul, 0.50),
              "real.ul.p99_ms": percentile(ul, 0.99),
              "real.relay.p50_ms": percentile(relay, 0.50),
              "real.dl.p50_ms": percentile(dl, 0.50),
              "real.dl.p99_ms": percentile(dl, 0.99),
              "real.latency_p99_ms": percentile(latency_ms, 0.99),
              "gen.lag_p99_ms": percentile(lag_ms, 0.99) if lag_ms else 0.0,
              "gen.lag_max_ms": max(lag_ms, default=0.0)}
    if burst and all(rec is not None for rec in burst):
        span_ns = max(rec["t4"] for rec in burst) - stream.burst_start_ns
        layers["real.burst_msgs_per_s"] = len(burst) / (span_ns / 1e9)
    return layers


def run(seed: int, seconds: int, work: Path, probe_s: list[float]) -> dict:
    """The untraced run that gives the end-to-end metrics."""
    p = run_pass(work / "run", seed, seconds, setup_trials=SETUP_TRIALS,
                 analyze_calls=ANALYZE_CALLS, burst=False, traced=False,
                 probe_s=probe_s, reference=True)
    return {"attempted": p.attempted, "failed": p.attempted - p.intact,
            "problems": p.problems,
            "metrics": {"setup_s": statistics.median(p.setup_s),
                        "peak_rss_mb": p.peak_rss_mb, "wall_s": p.wall_s,
                        "latency_p50_ms": p.latency_p50_ms,
                        "cpu_us_per_msg": p.cpu_us_per_msg,
                        "analyze_s": p.analyze_s},
            "info": {"setup_s_each": p.setup_s,
                     "raw_s": {"analyze_s": p.analyze_raw},
                     "calibration": p.calibration, **p.layers}}


def run_traced(seed: int, seconds: int, work: Path) -> dict:
    """The traced run: an untraced pass gives the latency split, generator
    lag and burst capacity; a traced pass gives the layer times and
    counts.  Both end with a burst of BURST_FRAMES unpaced frames."""
    import layers
    base = run_pass(work / "untraced", seed, seconds, setup_trials=1,
                    analyze_calls=1, burst=True, traced=False, probe_s=[0.0])
    traced = run_pass(work / "traced", seed, seconds, setup_trials=1,
                      analyze_calls=1, burst=True, traced=True, probe_s=[0.0])
    metrics = layers.layer_values(traced.trace)
    metrics.update({k: v for k, v in base.layers.items()
                    if k.startswith(("real.", "gen."))})
    metrics.update({k: v for k, v in traced.layers.items()
                    if k.startswith("broker.")})
    # The stream's wall time is set by its schedule, so the overhead is
    # counted in the system processes' CPU time and the analyze wall time.
    metrics["tracing.overhead_s"] = ((traced.cpu_s + traced.analyze_s)
                                     - (base.cpu_s + base.analyze_s))
    passes = (base, traced)
    return {"attempted": sum(p.attempted for p in passes),
            "failed": sum(p.attempted - p.intact for p in passes),
            "problems": [q for p in passes for q in p.problems],
            "metrics": metrics,
            "info": {"untraced_broker": {k: v for k, v in base.layers.items()
                                         if k.startswith("broker.")}},
            "trace": traced.trace}
