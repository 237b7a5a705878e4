"""Scenario and matrix configuration, and the runners that wire agents,
link emulation, background load, and analysis together.  The paper's
13-cell evaluation matrix is data, not code: `configs/table1_matrix.json`.

Configs are strict JSON: unknown keys are rejected so experiment
definitions cannot silently carry typos.  The resolved config (all
defaults filled in) is echoed next to each run's packet log so a run is
reproducible from its output directory alone.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import threading
import time
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

from . import analysis
from .agents import (DOWNLINK_TOPIC, UPLINK_TOPIC, ProcessingDelay,
                     SimPipeline, SimRelay, SimSensor, SimVehicle,
                     message_count, run_real_relay, run_real_sensor,
                     run_real_vehicle)
from .broker import Broker
from .clockmodel import DriftingClock, OffsetProvider
from .loadgen import (DEFAULT_PACKET_BYTES, CbrPacketSource, parse_load)
from .netem import (Cell, Direction, HandoverEvent, LinkSimulator,
                    MobilityRoute, PriorityClass, SchedulerKind, SimWorld,
                    apply_handover)
from .protocol import FRAME_OVERHEAD, MAX_FRAME_SIZE

SEED_ENV_VAR = "CV2X_SEED"

# Simulated runs start the reference timeline at a fixed epoch instant so
# local timestamps are epoch-scale like production clock readings and the
# value 0 stays free as the "not yet stamped" sentinel.  Mobility waypoint
# times in configs stay relative to run start.
RUN_EPOCH_NS = 1_700_000_000_000_000_000

# Message presets: the message fields each one sets. "cpm-etsi" mirrors a
# collaborative-perception message stream: 156-byte messages at 10 Hz.
MESSAGE_PRESETS: dict[str, dict] = {
    "cpm-etsi": {"size_bytes": 156, "rate_hz": 10.0},
}

# Upper bounds on values that parse but would exhaust memory or time: the
# emulator builds one flow and one CBR source per background UE, advances
# the run in 2.5 ms ticks, and keeps one record per message.
MAX_BACKGROUND_UES = 1_000
MAX_DURATION_S = 86_400
MAX_MESSAGES = 10_000_000

# how long a sim run goes on after its duration for its last message
_DRAIN_GRACE_NS = 120_000_000_000


class ConfigError(ValueError):
    """Configuration failed validation; the message names the field.

    A config class's __post_init__ raises it with a message that starts
    with the offending field's name; the parser prefixes the object's path.
    """


def _at_least(minimum, *, default=MISSING):
    """A config field whose parsed value must be >= minimum."""
    return field(default=default, metadata={"minimum": minimum})


# --------------------------------------------------------------------------
# Config schema: each field declaration is the only place its default and
# lower bound are written.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ClockParams:
    offset0_ns: int = 0
    drift_ppm: float = 0.0
    jitter_ns: int = _at_least(0, default=0)


@dataclass(frozen=True)
class NtpParams:
    period_s: float = _at_least(0, default=10.0)
    noise_bound_ns: int = _at_least(0, default=0)

    @property
    def period_ns(self) -> int:
        return round(self.period_s * 1_000_000_000)


@dataclass(frozen=True)
class AgentParams:
    clock: ClockParams = ClockParams()
    ntp: NtpParams = NtpParams()


@dataclass(frozen=True)
class RelayParams(AgentParams):
    processing_delay: ProcessingDelay = ProcessingDelay()


@dataclass(frozen=True)
class AgentsConfig:
    sensor: AgentParams = AgentParams()
    relay: RelayParams = RelayParams()
    vehicle: AgentParams = AgentParams()


@dataclass(frozen=True)
class MessageConfig:
    size_bytes: int = _at_least(FRAME_OVERHEAD, default=1000)
    rate_hz: float = 10.0

    def __post_init__(self) -> None:
        if self.size_bytes > MAX_FRAME_SIZE:
            raise ConfigError(f"size_bytes must be <= {MAX_FRAME_SIZE}, the "
                              f"largest frame, got {self.size_bytes}")
        if self.rate_hz <= 0:
            raise ConfigError("rate_hz must be positive")


@dataclass(frozen=True)
class LoadConfig:
    ul: str = "none"
    dl: str = "none"
    packet_size_bytes: int = _at_least(1, default=DEFAULT_PACKET_BYTES)
    queue_cap_bytes: int = _at_least(1, default=1_000_000)

    def __post_init__(self) -> None:
        for key in ("ul", "dl"):
            try:
                load = parse_load(getattr(self, key), Direction.UPLINK,
                                  self.packet_size_bytes)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
            if load.ue_count > MAX_BACKGROUND_UES:
                raise ConfigError(
                    f"{key}: at most {MAX_BACKGROUND_UES} background UEs per "
                    f"direction, got {load.ue_count}")
            if load.ue_count and self.packet_size_bytes > self.queue_cap_bytes:
                raise ConfigError(
                    f"packet_size_bytes {self.packet_size_bytes} exceeds "
                    f"queue_cap_bytes {self.queue_cap_bytes}: the {key} "
                    f"background flows would drop every packet")


@dataclass(frozen=True)
class HandoverConfig:
    interruption_ms: float = _at_least(0, default=50.0)
    hysteresis_m: float = _at_least(0, default=5.0)

    @property
    def interruption_ns(self) -> int:
        return round(self.interruption_ms * 1_000_000)


@dataclass(frozen=True)
class NetworkConfig:
    pattern: str = "DDDSU"
    slot_duration_ns: int = _at_least(1, default=500_000)
    ul_capacity_bps: int = _at_least(1, default=40_000_000)
    dl_capacity_bps: int = _at_least(1, default=130_000_000)
    base_delay_ms: float = _at_least(0, default=2.0)
    ack_ratio: float = _at_least(0, default=0.05)
    handover: HandoverConfig = HandoverConfig()
    cells: tuple[Cell, ...] = (Cell(1), Cell(2, (200.0, 0.0)))

    def __post_init__(self) -> None:
        if not self.pattern or self.pattern.upper().strip("DUS"):
            raise ConfigError(f"pattern must be a non-empty string of D, U "
                              f"and S slots, got {self.pattern!r}")
        if not self.cells:
            raise ConfigError("cells must not be empty")
        ids = [cell.cell_id for cell in self.cells]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"cells must have distinct cell_id values, got {ids}")
        # a direction whose per-tick budget rounds to 0 bits never drains
        for key in ("ul_capacity_bps", "dl_capacity_bps"):
            if getattr(self, key) * self.tick_ns < 1_000_000_000:
                raise ConfigError(
                    f"{key} gives a per-tick budget of 0 bits at the "
                    f"{self.tick_ns} ns tick; it must be >= "
                    f"{-(-1_000_000_000 // self.tick_ns)}")
        # a message crosses two hops of the base delay
        if self.base_delay_ms * 2_000_000 > _DRAIN_GRACE_NS:
            raise ConfigError(f"base_delay_ms must be <= {_DRAIN_GRACE_NS // 2_000_000}"
                              f" to drain, got {self.base_delay_ms}")

    @property
    def base_delay_ns(self) -> int:
        return round(self.base_delay_ms * 1_000_000)

    @property
    def tick_ns(self) -> int:
        """One tick spans the pattern: its slot count x the slot duration."""
        return len(self.pattern) * self.slot_duration_ns


# the ScenarioConfig fields that configure only the link emulator
_EMULATOR_FIELDS = ("scheduler", "load", "network", "mobility")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    mode: str = "sim"
    scheduler: str = "BL"
    duration_s: float = 10.0
    seed: int = _at_least(0, default=0)
    message: MessageConfig = MessageConfig()
    load: LoadConfig = LoadConfig()
    network: NetworkConfig = NetworkConfig()
    agents: AgentsConfig = AgentsConfig()
    mobility: MobilityRoute | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("sim", "real"):
            raise ConfigError(f"mode must be 'sim' or 'real', got {self.mode!r}")
        if self.scheduler not in ("BL", "AP"):
            raise ConfigError(
                f"scheduler must be 'BL' or 'AP', got {self.scheduler!r}")
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        if self.duration_s > MAX_DURATION_S:
            raise ConfigError(f"duration_s must be <= {MAX_DURATION_S}")
        # message_count is within one message of rate x duration
        rate = self.message.rate_hz
        if (rate * self.duration_s > MAX_MESSAGES + 1
                or message_count(rate, self.duration_ns) > MAX_MESSAGES):
            raise ConfigError(
                f"message.rate_hz sends more than {MAX_MESSAGES} messages "
                f"in duration_s {self.duration_s}")
        # an acknowledgment is round(size_bytes * ack_ratio) bytes; the
        # first test also keeps round() from an infinite product
        ack_bytes = self.message.size_bytes * self.network.ack_ratio
        if ack_bytes >= MAX_FRAME_SIZE + 1 or round(ack_bytes) > MAX_FRAME_SIZE:
            raise ConfigError(f"network.ack_ratio {self.network.ack_ratio} makes an "
                              f"acknowledgment over {MAX_FRAME_SIZE} bytes")
        # a message crosses two hops of the base delay and the relay
        processing = self.agents.relay.processing_delay
        longest = (processing.constant_ns if processing.uniform_ns is None
                   else processing.uniform_ns[1])
        limit = _DRAIN_GRACE_NS - 2 * self.network.base_delay_ns
        if longest > limit:
            raise ConfigError(
                f"agents.relay.processing_delay must be <= {limit} ns, with two "
                f"hops of network.base_delay_ms, to drain, got {longest}")
        if self.mobility is not None and len(self.network.cells) < 2:
            raise ConfigError("mobility needs at least two cells in network.cells")
        if self.mode == "real":
            self._check_real_mode()

    def _check_real_mode(self) -> None:
        """The real path runs no link emulator, and its agents stamp with
        the host clock and zero offsets: a field it cannot apply must keep
        its default."""
        for f in fields(self):
            if f.name in _EMULATOR_FIELDS and getattr(self, f.name) != f.default:
                raise ConfigError(f"{f.name} applies only in sim mode: the "
                                  f"real path runs no link emulator")
        for agent in fields(self.agents):
            params = getattr(self.agents, agent.name)
            for name, default in (("clock", ClockParams()), ("ntp", NtpParams())):
                if getattr(params, name) != default:
                    raise ConfigError(
                        f"agents.{agent.name}.{name} applies only in sim "
                        f"mode: real agents stamp with the host clock and "
                        f"zero offsets")

    @property
    def duration_ns(self) -> int:
        return round(self.duration_s * 1_000_000_000)


# --------------------------------------------------------------------------
# One parser and one echo writer for every config class
# --------------------------------------------------------------------------

def _check_keys(obj: dict, allowed, path: str) -> None:
    unknown = sorted(set(obj) - set(allowed), key=str)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {path}")


def _num(value, path: str, *, integer: bool = False, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    # NaN fails this test too, and so does an int too large for a float
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path} must be finite")
    if integer:
        if int(value) != value:
            raise ConfigError(f"{path} must be an integer")
        value = int(value)
    else:
        value = float(value)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}")
    return value


@functools.cache
def _schema(cls: type) -> tuple[tuple[str, object, object, bool], ...]:
    """(name, type, minimum, required) of each field of a config class,
    with its type hints resolved once."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.metadata.get("minimum"),
                  f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls))


def _parse(tp, value, path: str, minimum=None):
    """Read a JSON value as type tp, which is a config dataclass,
    `X | None`, a tuple, dict (any JSON object), str, int or float.  Every
    error is a ConfigError naming the field's path."""
    if is_dataclass(tp) or tp is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object")
        if tp is dict:
            return value
        schema = _schema(tp)
        _check_keys(value, [name for name, *_ in schema], path)
        kwargs = {}
        for name, ftype, fmin, required in schema:
            if name in value:
                kwargs[name] = _parse(ftype, value[name], f"{path}.{name}", fmin)
            elif required:
                raise ConfigError(f"{path}.{name} is required")
        try:
            return tp(**kwargs)
        except ConfigError as exc:
            raise ConfigError(f"{path}.{exc}") from None
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        if value is None:
            return None
        (inner,) = (arg for arg in args if arg is not type(None))
        return _parse(inner, value, path, minimum)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path} must have {len(args)} elements")
        return tuple(_parse(arg, item, f"{path}[{i}]")
                     for i, (arg, item) in enumerate(zip(args, value)))
    if tp is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path} must be a string")
        return value
    return _num(value, path, integer=tp is int, minimum=minimum)


def config_to_obj(value):
    """The JSON form of a config: dataclasses become objects and tuples
    lists.  config_from_obj reads it back to an equal config."""
    if is_dataclass(value):
        return {f.name: config_to_obj(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, tuple):
        return [config_to_obj(item) for item in value]
    return value


def config_from_obj(obj: dict) -> ScenarioConfig:
    """Parse and validate a scenario config object (strict keys).  Besides
    the schema, it expands `message.preset` and applies the seed rule:
    CV2X_SEED overrides `seed`, and sim mode needs one."""
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    obj = dict(obj)
    message = obj.get("message")
    if isinstance(message, dict) and "preset" in message:
        message = dict(message)
        preset = message.pop("preset")
        if not isinstance(preset, str) or preset not in MESSAGE_PRESETS:
            raise ConfigError(
                f"config.message.preset must be one of {sorted(MESSAGE_PRESETS)}, "
                f"got {preset!r}")
        obj["message"] = {**MESSAGE_PRESETS[preset], **message}
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            obj["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from None
    elif "seed" not in obj and obj.get("mode", ScenarioConfig.mode) == "sim":
        raise ConfigError("sim mode requires a seed")
    return _parse(ScenarioConfig, obj, "config")


def _read_json(path: str | Path):
    with open(path, "r", encoding="utf-8") as fp:
        try:
            return json.load(fp)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def load_config(path: str | Path) -> ScenarioConfig:
    return config_from_obj(_read_json(path))


def derive_seed(master_seed: int, label: str) -> int:
    """Stable 64-bit sub-seed from a master seed and a label."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class ScenarioResult:
    name: str
    config: ScenarioConfig
    records: list[analysis.PacketRecord]
    handover_events: list[HandoverEvent]
    affected_seqs: set[int]
    sensor_sent: int
    # frames the real relay dropped as corrupt; always 0 in sim mode
    relay_corrupt_drops: int = 0
    # emulator ticks run and skipped; both 0 in real mode
    ticks_run: int = 0
    ticks_skipped: int = 0
    log_path: Path | None = None
    config_echo_path: Path | None = None

    def stats(self, which: str = "e2e") -> analysis.LatencyStats:
        return analysis.summarize(self.records, which)


def _build_sim(cfg: ScenarioConfig) -> tuple[SimWorld, SimPipeline]:
    net = cfg.network
    start_ns = RUN_EPOCH_NS
    link = LinkSimulator(net.cells, tick_ns=net.tick_ns,
                         scheduler=SchedulerKind(cfg.scheduler),
                         ul_capacity_bps=net.ul_capacity_bps,
                         dl_capacity_bps=net.dl_capacity_bps)
    if cfg.mobility is not None:
        route = MobilityRoute(tuple((t + start_ns, x, y)
                                    for t, x, y in cfg.mobility.waypoints))
        link.set_mobility(*apply_handover(
            route, net.cells, hysteresis_m=net.handover.hysteresis_m,
            interruption_ns=net.handover.interruption_ns, sample_ns=link.tick_ns))
    # the background UEs' sources, each with its flow's direction
    background = []
    for attr, direction in (("ul", Direction.UPLINK), ("dl", Direction.DOWNLINK)):
        load = parse_load(getattr(cfg.load, attr), direction,
                          cfg.load.packet_size_bytes)
        background += [(CbrPacketSource(f"bg-{attr}-{i}", load.per_ue_rate_bps,
                                        load.packet_size_bytes, start_ns=start_ns,
                                        stop_ns=start_ns + cfg.duration_ns),
                        direction) for i in range(load.ue_count)]
    world = SimWorld(link, start_ns=start_ns,
                     cbr_sources=[src for src, _ in background])

    def clock_for(name: str) -> DriftingClock:
        p = getattr(cfg.agents, name).clock
        return DriftingClock(offset0_ns=p.offset0_ns, drift_ppm=p.drift_ppm,
                             jitter_ns=p.jitter_ns,
                             rng_seed=derive_seed(cfg.seed, f"clock-{name}"))

    def provider_for(name: str, clock: DriftingClock) -> OffsetProvider:
        p = getattr(cfg.agents, name).ntp
        return OffsetProvider(clock, period_ns=p.period_ns,
                              noise_bound_ns=p.noise_bound_ns,
                              rng_seed=derive_seed(cfg.seed, f"ntp-{name}"))

    sensor_clock = clock_for("sensor")
    relay_clock = clock_for("relay")
    vehicle_clock = clock_for("vehicle")
    sensor = SimSensor(source_id=1, frame_size_bytes=cfg.message.size_bytes,
                       rate_hz=cfg.message.rate_hz, duration_ns=cfg.duration_ns,
                       clock=sensor_clock,
                       provider=provider_for("sensor", sensor_clock),
                       start_ns=start_ns)
    relay = SimRelay(relay_clock, provider_for("relay", relay_clock),
                     processing=cfg.agents.relay.processing_delay,
                     rng_seed=derive_seed(cfg.seed, "relay-proc"))
    vehicle = SimVehicle(vehicle_clock, provider_for("vehicle", vehicle_clock))
    sensor_cell = net.cells[0].cell_id
    # the pipeline adds the application flows, so they come before the
    # background flows in the link's flow order
    pipeline = SimPipeline(world, sensor, relay, vehicle,
                           sensor_cell=sensor_cell, ack_ratio=net.ack_ratio,
                           base_delay_ns=net.base_delay_ns)
    for src, direction in background:
        link.add_flow(src.flow_id, direction, PriorityClass.BACKGROUND,
                      sensor_cell, cfg.load.queue_cap_bytes)
    return world, pipeline


def run_scenario(cfg: ScenarioConfig,
                 out_dir: str | Path | None = None) -> ScenarioResult:
    """Execute one scenario and (optionally) persist its packet log plus the
    resolved config echo under out_dir."""
    if cfg.mode == "real":
        result = _run_real(cfg)
    else:
        world, pipeline = _build_sim(cfg)
        pipeline.start()
        world.run_until(world.start_ns + cfg.duration_ns)
        world.run_until(world.start_ns + cfg.duration_ns + _DRAIN_GRACE_NS,
                        done=lambda: pipeline.complete)
        if not pipeline.complete:
            raise RuntimeError(
                f"scenario {cfg.name}: pipeline did not drain "
                f"({len(pipeline.vehicle.records)}/{pipeline.sensor.n_messages} "
                f"records after grace period)")
        result = ScenarioResult(
            name=cfg.name, config=cfg, records=pipeline.vehicle.records,
            # a route may run on past the end; its later handovers touch
            # no packet
            handover_events=[ev for ev in world.link.handovers
                             if ev.time_ns < world.now_ns],
            affected_seqs=set(pipeline.affected_seqs),
            sensor_sent=pipeline.sensor.next_seq,
            ticks_run=world.ticks_run, ticks_skipped=world.ticks_skipped)
        # the world holds the pipeline's handler and the pipeline the world;
        # without this cycle the finished cell is freed now rather than by
        # the next full garbage collection, which a matrix run may not reach
        world.on_delivery = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = analysis.safe_name(cfg.name)
        result.log_path = out / f"{stem}.jsonl"
        analysis.write_records(result.log_path, result.records)
        result.config_echo_path = out / f"{stem}.config.json"
        result.config_echo_path.write_text(
            json.dumps(config_to_obj(cfg), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return result


def _run_real(cfg: ScenarioConfig) -> ScenarioResult:
    """Loopback real-socket run: a broker, the relay and the vehicle on a
    two-thread pool, and a blocking sensor."""
    # imported here: the benchmark forks its system processes from a process
    # that imports this module, and a child's peak RSS counts the parent's
    from concurrent.futures import ThreadPoolExecutor, wait
    expected = message_count(cfg.message.rate_hz, cfg.duration_ns)
    stop = threading.Event()
    sent = None
    with Broker() as broker, ThreadPoolExecutor(2) as pool:
        relay = pool.submit(run_real_relay, broker.host, broker.port, stop=stop,
                            processing=cfg.agents.relay.processing_delay)
        vehicle = pool.submit(run_real_vehicle, broker.host, broker.port,
                              stop=stop, expected=expected)
        try:
            # publish only once both subscriptions have landed, so the first
            # frames cannot be discarded as subscriber-less; an agent that
            # ends before then has failed
            deadline = time.monotonic() + 5.0
            while not (broker.subscriber_count(UPLINK_TOPIC)
                       and broker.subscriber_count(DOWNLINK_TOPIC)):
                if relay.done() or vehicle.done() or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            else:
                sent = run_real_sensor(broker.host, broker.port, stop=stop,
                                       frame_size_bytes=cfg.message.size_bytes,
                                       rate_hz=cfg.message.rate_hz,
                                       duration_s=cfg.duration_s,
                                       payload_seed=derive_seed(cfg.seed, "payload"))
                wait((vehicle,), timeout=cfg.duration_s + 10)
        finally:
            stop.set()
        try:
            records = vehicle.result()
            _, corrupt_drops = relay.result()
        except Exception as exc:
            raise RuntimeError(f"real-mode agent failed: {exc!r}") from exc
    if sent is None:
        raise RuntimeError("agents did not subscribe in time")
    return ScenarioResult(name=cfg.name, config=cfg, records=records,
                          handover_events=[], affected_seqs=set(),
                          sensor_sent=sent, relay_corrupt_drops=corrupt_drops)


# --------------------------------------------------------------------------
# Experiment matrix
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixConfig:
    """Scenario config objects, each merged over `defaults` and seeded from
    `master_seed` and its name unless it sets a seed."""

    master_seed: int = _at_least(0)
    defaults: dict = field(default_factory=dict)
    cells: tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        if not self.cells:
            raise ConfigError("cells must be a non-empty list")
        # run_matrix writes each cell's files under its name's safe_name
        by_stem: dict[str, str] = {}
        for i, cell in enumerate(self.cells):
            name = cell.get("name")
            if not isinstance(name, str) or not name:
                raise ConfigError(f"cells[{i}].name must be a non-empty string")
            stem = analysis.safe_name(name)
            if stem in by_stem:
                raise ConfigError(f"cells {by_stem[stem]!r} and {name!r} "
                                  f"have the same output name {stem!r}")
            by_stem[stem] = name
        # and the matrix's own files beside the cell directories
        taken = {".", "..", "stats.csv", "cdf.svg"}
        for s in by_stem:
            taken.update((f"cdf_{s}.csv", f"per_packet_{s}.csv", f"per_packet_{s}.svg"))
        for stem, name in by_stem.items():
            if stem in taken:
                raise ConfigError(f"cells {name!r} has the output name {stem!r}, "
                                  f"which is not free for a cell directory")


def matrix_from_obj(obj: dict) -> MatrixConfig:
    return _parse(MatrixConfig, obj, "matrix")


def load_matrix_config(path: str | Path) -> MatrixConfig:
    return matrix_from_obj(_read_json(path))


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if (key in merged and isinstance(merged[key], dict)
                and isinstance(value, dict)):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def resolve_matrix_cells(matrix: MatrixConfig) -> list[ScenarioConfig]:
    """Expand every matrix cell into a full scenario config with its own
    deterministically derived seed."""
    return [_resolve_matrix_cell(matrix, cell) for cell in matrix.cells]


@dataclass
class MatrixResult:
    results: dict[str, ScenarioResult]
    failures: dict[str, str]
    out_dir: Path
    stats_csv: Path


def _resolve_matrix_cell(matrix: MatrixConfig, cell: dict) -> ScenarioConfig:
    merged = _deep_merge(matrix.defaults, cell)
    merged.setdefault("seed", derive_seed(matrix.master_seed, cell["name"]))
    return config_from_obj(merged)


def run_matrix(matrix: MatrixConfig, out_dir: str | Path) -> MatrixResult:
    """Run every matrix cell; a failing cell is recorded but does not stop
    the rest.  Consolidated stats.csv plus per-cell CDF and per-packet
    artifacts are written under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results: dict[str, ScenarioResult] = {}
    failures: dict[str, str] = {}
    for cell in matrix.cells:
        name = str(cell["name"])
        try:
            cfg = _resolve_matrix_cell(matrix, cell)
            results[cfg.name] = run_scenario(cfg, out_dir=out / analysis.safe_name(cfg.name))
        except Exception as exc:
            failures[name] = f"{type(exc).__name__}: {exc}"
    stats = {name: res.stats("e2e") for name, res in results.items()}
    written = analysis.emit_report(stats, out)
    for name, res in results.items():
        analysis.write_per_packet_csv(
            res.records, out / f"per_packet_{analysis.safe_name(name)}.csv",
            affected_seqs=res.affected_seqs)
        analysis.emit_per_packet_chart(name, res.records, out)
    return MatrixResult(results=results, failures=failures, out_dir=out,
                        stats_csv=written[0])

