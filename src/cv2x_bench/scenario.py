"""Scenario configuration, the built-in experiment matrix, and the runners
that wire agents, link emulation, background load, and analysis together.

Configs are strict JSON: unknown keys are rejected so experiment
definitions cannot silently carry typos.  The resolved config (all
defaults filled in) is echoed next to each run's packet log so a run is
reproducible from its output directory alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import analysis
from .agents import (DOWNLINK_TOPIC, UPLINK_TOPIC, ProcessingDelay,
                     SimPipeline, SimRelay, SimSensor, SimVehicle,
                     message_count, run_real_relay, run_real_sensor,
                     run_real_vehicle)
from .broker import Broker
from .clockmodel import DriftingClock, OffsetProvider
from .loadgen import (DEFAULT_PACKET_BYTES, CbrPacketSource, parse_load)
from .netem import (CellConfig, Direction, FlowSpec, HandoverEvent,
                    LinkSimulator, MobilityRoute, PriorityClass, Reliability,
                    SchedulerKind, SimWorld, TddPattern, apply_handover,
                    initial_serving_cell, tick_budget)
from .protocol import FRAME_OVERHEAD

SEED_ENV_VAR = "CV2X_SEED"

# Simulated runs start the reference timeline at a fixed epoch instant so
# local timestamps are epoch-scale like production clock readings and the
# value 0 stays free as the "not yet stamped" sentinel.  Mobility waypoint
# times in configs stay relative to run start.
RUN_EPOCH_NS = 1_700_000_000_000_000_000

# Message presets: total frame bytes and rate. "cpm-etsi" mirrors a
# collaborative-perception message stream: 156-byte messages at 10 Hz.
MESSAGE_PRESETS: dict[str, tuple[int, float]] = {
    "cpm-etsi": (156, 10.0),
}

_AGENT_NAMES = ("sensor", "relay", "vehicle")


class ConfigError(ValueError):
    """Configuration failed validation; the message names the field."""


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {path}")


def _num(obj: dict, key: str, default, path: str, *, integer: bool = False,
         minimum=None):
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key} must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key} must be finite, got {value}")
    if integer:
        if int(value) != value:
            raise ConfigError(f"{path}.{key} must be an integer")
        value = int(value)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}.{key} must be >= {minimum}")
    return value


@dataclass(frozen=True)
class ClockParams:
    offset0_ns: int = 0
    drift_ppm: float = 0.0
    jitter_ns: int = 0

    @classmethod
    def from_obj(cls, obj: dict, path: str) -> "ClockParams":
        _check_keys(obj, {"offset0_ns", "drift_ppm", "jitter_ns"}, path)
        return cls(offset0_ns=_num(obj, "offset0_ns", 0, path, integer=True),
                   drift_ppm=float(_num(obj, "drift_ppm", 0.0, path)),
                   jitter_ns=_num(obj, "jitter_ns", 0, path, integer=True, minimum=0))

    def to_obj(self) -> dict:
        return {"offset0_ns": self.offset0_ns, "drift_ppm": self.drift_ppm,
                "jitter_ns": self.jitter_ns}


@dataclass(frozen=True)
class NtpParams:
    period_s: float = 10.0
    noise_bound_ns: int = 0

    @classmethod
    def from_obj(cls, obj: dict, path: str) -> "NtpParams":
        _check_keys(obj, {"period_s", "noise_bound_ns"}, path)
        return cls(period_s=float(_num(obj, "period_s", 10.0, path, minimum=0)),
                   noise_bound_ns=_num(obj, "noise_bound_ns", 0, path,
                                       integer=True, minimum=0))

    def to_obj(self) -> dict:
        return {"period_s": self.period_s, "noise_bound_ns": self.noise_bound_ns}


@dataclass(frozen=True)
class AgentParams:
    clock: ClockParams = ClockParams()
    ntp: NtpParams = NtpParams()
    processing_delay: ProcessingDelay | None = None

    @classmethod
    def from_obj(cls, obj: dict, path: str, *, relay: bool) -> "AgentParams":
        allowed = {"clock", "ntp"} | ({"processing_delay"} if relay else set())
        _check_keys(obj, allowed, path)
        processing = None
        if relay and "processing_delay" in obj:
            pd_obj = obj["processing_delay"]
            _check_keys(pd_obj, {"constant_ns", "uniform_ns"},
                        f"{path}.processing_delay")
            if "uniform_ns" in pd_obj:
                low, high = pd_obj["uniform_ns"]
                processing = ProcessingDelay(uniform_ns=(int(low), int(high)))
            else:
                processing = ProcessingDelay(
                    constant_ns=_num(pd_obj, "constant_ns", 0,
                                     f"{path}.processing_delay",
                                     integer=True, minimum=0))
        return cls(clock=ClockParams.from_obj(obj.get("clock", {}), f"{path}.clock"),
                   ntp=NtpParams.from_obj(obj.get("ntp", {}), f"{path}.ntp"),
                   processing_delay=processing)

    def to_obj(self, *, relay: bool) -> dict:
        out = {"clock": self.clock.to_obj(), "ntp": self.ntp.to_obj()}
        if relay:
            pd = self.processing_delay or ProcessingDelay()
            if pd.uniform_ns is not None:
                out["processing_delay"] = {"uniform_ns": list(pd.uniform_ns)}
            else:
                out["processing_delay"] = {"constant_ns": pd.constant_ns}
        return out


@dataclass(frozen=True)
class MessageConfig:
    size_bytes: int = 1000
    rate_hz: float = 10.0

    @classmethod
    def from_obj(cls, obj: dict, path: str) -> "MessageConfig":
        _check_keys(obj, {"size_bytes", "rate_hz", "preset"}, path)
        if "preset" in obj:
            preset = obj["preset"]
            if preset not in MESSAGE_PRESETS:
                raise ConfigError(
                    f"{path}.preset must be one of {sorted(MESSAGE_PRESETS)}, "
                    f"got {preset!r}")
            size, rate = MESSAGE_PRESETS[preset]
            size = _num(obj, "size_bytes", size, path, integer=True)
            rate = float(_num(obj, "rate_hz", rate, path))
        else:
            size = _num(obj, "size_bytes", 1000, path, integer=True)
            rate = float(_num(obj, "rate_hz", 10.0, path))
        if size < FRAME_OVERHEAD:
            raise ConfigError(f"{path}.size_bytes must be >= {FRAME_OVERHEAD}")
        if rate <= 0:
            raise ConfigError(f"{path}.rate_hz must be positive")
        return cls(size_bytes=size, rate_hz=rate)

    def to_obj(self) -> dict:
        return {"size_bytes": self.size_bytes, "rate_hz": self.rate_hz}


@dataclass(frozen=True)
class LoadConfig:
    ul: str = "none"
    dl: str = "none"
    packet_size_bytes: int = DEFAULT_PACKET_BYTES
    queue_cap_bytes: int = 1_000_000

    @classmethod
    def from_obj(cls, obj: dict, path: str) -> "LoadConfig":
        _check_keys(obj, {"ul", "dl", "packet_size_bytes", "queue_cap_bytes"}, path)
        cfg = cls(ul=str(obj.get("ul", "none")), dl=str(obj.get("dl", "none")),
                  packet_size_bytes=_num(obj, "packet_size_bytes",
                                         DEFAULT_PACKET_BYTES, path,
                                         integer=True, minimum=1),
                  queue_cap_bytes=_num(obj, "queue_cap_bytes", 1_000_000, path,
                                       integer=True, minimum=1))
        for key, text in (("ul", cfg.ul), ("dl", cfg.dl)):
            try:
                parse_load(text, Direction.UPLINK, cfg.packet_size_bytes)
            except ValueError as exc:
                raise ConfigError(f"{path}.{key}: {exc}") from None
        return cfg

    def to_obj(self) -> dict:
        return {"ul": self.ul, "dl": self.dl,
                "packet_size_bytes": self.packet_size_bytes,
                "queue_cap_bytes": self.queue_cap_bytes}


@dataclass(frozen=True)
class HandoverConfig:
    interruption_ms: float = 50.0
    hysteresis_m: float = 5.0

    @classmethod
    def from_obj(cls, obj: dict, path: str) -> "HandoverConfig":
        _check_keys(obj, {"interruption_ms", "hysteresis_m"}, path)
        return cls(interruption_ms=float(_num(obj, "interruption_ms", 50.0, path,
                                              minimum=0)),
                   hysteresis_m=float(_num(obj, "hysteresis_m", 5.0, path,
                                           minimum=0)))

    def to_obj(self) -> dict:
        return {"interruption_ms": self.interruption_ms,
                "hysteresis_m": self.hysteresis_m}

    @property
    def interruption_ns(self) -> int:
        return round(self.interruption_ms * 1_000_000)


_DEFAULT_CELLS = ((1, (0.0, 0.0)), (2, (200.0, 0.0)))


@dataclass(frozen=True)
class NetworkConfig:
    pattern: str = "DDDSU"
    slot_duration_ns: int = 500_000
    ul_capacity_bps: int = 40_000_000
    dl_capacity_bps: int = 130_000_000
    base_delay_ms: float = 2.0
    ack_ratio: float = 0.05
    handover: HandoverConfig = HandoverConfig()
    cells: tuple[tuple[int, tuple[float, float]], ...] = _DEFAULT_CELLS

    @classmethod
    def from_obj(cls, obj: dict, path: str) -> "NetworkConfig":
        _check_keys(obj, {"pattern", "slot_duration_ns", "ul_capacity_bps",
                          "dl_capacity_bps", "base_delay_ms", "ack_ratio",
                          "handover", "cells"}, path)
        pattern = str(obj.get("pattern", "DDDSU"))
        try:
            TddPattern.from_string(pattern)
        except ValueError as exc:
            raise ConfigError(f"{path}.pattern: {exc}") from None
        cells: list[tuple[int, tuple[float, float]]] = []
        for i, cell_obj in enumerate(obj.get("cells",
                                             [{"cell_id": cid, "position": list(pos)}
                                              for cid, pos in _DEFAULT_CELLS])):
            _check_keys(cell_obj, {"cell_id", "position"}, f"{path}.cells[{i}]")
            pos = cell_obj.get("position", [0.0, 0.0])
            if len(pos) != 2:
                raise ConfigError(f"{path}.cells[{i}].position must be [x, y]")
            cells.append((int(cell_obj["cell_id"]),
                          (float(pos[0]), float(pos[1]))))
        if not cells:
            raise ConfigError(f"{path}.cells must not be empty")
        conf = cls(pattern=pattern,
                   slot_duration_ns=_num(obj, "slot_duration_ns", 500_000, path,
                                         integer=True, minimum=1),
                   ul_capacity_bps=_num(obj, "ul_capacity_bps", 40_000_000, path,
                                        integer=True, minimum=1),
                   dl_capacity_bps=_num(obj, "dl_capacity_bps", 130_000_000, path,
                                        integer=True, minimum=1),
                   base_delay_ms=float(_num(obj, "base_delay_ms", 2.0, path,
                                            minimum=0)),
                   ack_ratio=float(_num(obj, "ack_ratio", 0.05, path, minimum=0)),
                   handover=HandoverConfig.from_obj(obj.get("handover", {}),
                                                    f"{path}.handover"),
                   cells=tuple(cells))
        # a direction whose per-tick budget rounds to 0 bits never drains
        tdd = conf.build_pattern()
        budgets = tick_budget(conf.build_cells()[0], tdd, tdd.period_ns)
        for key, budget in zip(("ul_capacity_bps", "dl_capacity_bps"), budgets):
            if budget == 0:
                raise ConfigError(
                    f"{path}.{key} gives a per-tick budget of 0 bits at the "
                    f"{tdd.period_ns} ns tick; it must be >= "
                    f"{-(-1_000_000_000 // tdd.period_ns)}")
        return conf

    def to_obj(self) -> dict:
        return {"pattern": self.pattern,
                "slot_duration_ns": self.slot_duration_ns,
                "ul_capacity_bps": self.ul_capacity_bps,
                "dl_capacity_bps": self.dl_capacity_bps,
                "base_delay_ms": self.base_delay_ms,
                "ack_ratio": self.ack_ratio,
                "handover": self.handover.to_obj(),
                "cells": [{"cell_id": cid, "position": list(pos)}
                          for cid, pos in self.cells]}

    @property
    def base_delay_ns(self) -> int:
        return round(self.base_delay_ms * 1_000_000)

    def build_pattern(self) -> TddPattern:
        return TddPattern.from_string(self.pattern, self.slot_duration_ns)

    def build_cells(self) -> list[CellConfig]:
        return [CellConfig(cell_id=cid, position=pos,
                           ul_capacity_bps=self.ul_capacity_bps,
                           dl_capacity_bps=self.dl_capacity_bps)
                for cid, pos in self.cells]


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    mode: str = "sim"
    scheduler: str = "BL"
    duration_s: float = 10.0
    seed: int = 0
    message: MessageConfig = MessageConfig()
    load: LoadConfig = LoadConfig()
    network: NetworkConfig = NetworkConfig()
    agents: tuple[tuple[str, AgentParams], ...] = field(
        default_factory=lambda: tuple((n, AgentParams()) for n in _AGENT_NAMES))
    mobility: MobilityRoute | None = None

    def agent(self, name: str) -> AgentParams:
        for agent_name, params in self.agents:
            if agent_name == name:
                return params
        raise KeyError(name)

    @property
    def duration_ns(self) -> int:
        return round(self.duration_s * 1_000_000_000)

    def to_obj(self) -> dict:
        obj = {"name": self.name, "mode": self.mode, "scheduler": self.scheduler,
               "duration_s": self.duration_s, "seed": self.seed,
               "message": self.message.to_obj(), "load": self.load.to_obj(),
               "network": self.network.to_obj(),
               "agents": {name: params.to_obj(relay=(name == "relay"))
                          for name, params in self.agents}}
        if self.mobility is not None:
            obj["mobility"] = {"waypoints": [[t, x, y]
                                             for t, x, y in self.mobility.waypoints]}
        else:
            obj["mobility"] = None
        return obj


def config_from_obj(obj: dict) -> ScenarioConfig:
    """Parse and validate a scenario config object (strict keys)."""
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(obj, {"name", "mode", "scheduler", "duration_s", "seed",
                      "message", "load", "network", "agents", "mobility"},
                "config")
    mode = str(obj.get("mode", "sim"))
    if mode not in ("sim", "real"):
        raise ConfigError(f"mode must be 'sim' or 'real', got {mode!r}")
    scheduler = str(obj.get("scheduler", "BL"))
    if scheduler not in ("BL", "AP"):
        raise ConfigError(f"scheduler must be 'BL' or 'AP', got {scheduler!r}")
    duration_s = float(_num(obj, "duration_s", 10.0, "config"))
    if duration_s <= 0:
        raise ConfigError("duration_s must be positive")
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from None
    elif "seed" in obj:
        seed = _num(obj, "seed", 0, "config", integer=True, minimum=0)
    elif mode == "sim":
        raise ConfigError("sim mode requires a seed")
    else:
        seed = 0
    agents_obj = obj.get("agents", {})
    _check_keys(agents_obj, set(_AGENT_NAMES), "config.agents")
    agents = tuple(
        (name, AgentParams.from_obj(agents_obj.get(name, {}),
                                    f"config.agents.{name}",
                                    relay=(name == "relay")))
        for name in _AGENT_NAMES)
    mobility = None
    if obj.get("mobility") is not None:
        mob_obj = obj["mobility"]
        _check_keys(mob_obj, {"waypoints"}, "config.mobility")
        try:
            mobility = MobilityRoute(waypoints=tuple(
                (int(w[0]), float(w[1]), float(w[2]))
                for w in mob_obj["waypoints"]))
        except (ValueError, TypeError, IndexError) as exc:
            raise ConfigError(f"config.mobility.waypoints: {exc}") from None
    network = NetworkConfig.from_obj(obj.get("network", {}), "config.network")
    if mobility is not None and len(network.cells) < 2:
        raise ConfigError("mobility scenarios need at least two cells")
    return ScenarioConfig(
        name=str(obj.get("name", "scenario")),
        mode=mode, scheduler=scheduler, duration_s=duration_s, seed=seed,
        message=MessageConfig.from_obj(obj.get("message", {}), "config.message"),
        load=LoadConfig.from_obj(obj.get("load", {}), "config.load"),
        network=network, agents=agents, mobility=mobility)


def load_config(path: str | Path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fp:
        try:
            obj = json.load(fp)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return config_from_obj(obj)


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
    relay_corrupt_drops: int = 0
    log_path: Path | None = None
    config_echo_path: Path | None = None

    def stats(self, which: str = "e2e",
              exclude_processing: bool = False) -> analysis.LatencyStats:
        return analysis.summarize(self.records, which, exclude_processing)


def _build_sim(cfg: ScenarioConfig) -> tuple[SimWorld, SimPipeline,
                                             list[HandoverEvent]]:
    net = cfg.network
    pattern = net.build_pattern()
    cells = net.build_cells()
    start_ns = RUN_EPOCH_NS
    link = LinkSimulator(cells, pattern,
                         scheduler=SchedulerKind(cfg.scheduler))
    events: list[HandoverEvent] = []
    if cfg.mobility is not None:
        route = MobilityRoute(tuple((t + start_ns, x, y)
                                    for t, x, y in cfg.mobility.waypoints))
        events = apply_handover(route, cells,
                                hysteresis_m=net.handover.hysteresis_m,
                                interruption_ns=net.handover.interruption_ns,
                                sample_ns=link.tick_ns)
        link.set_mobility(initial_serving_cell(route, cells), events)
    windows = [(e.time_ns, e.time_ns + e.interruption_ns) for e in events]
    sensor_cell = cells[0].cell_id

    cap = cfg.load.queue_cap_bytes
    link.add_flow(FlowSpec("app-ul", Direction.UPLINK,
                           PriorityClass.APPLICATION, Reliability.RELIABLE),
                  cell_id=sensor_cell)
    link.add_flow(FlowSpec("app-dl", Direction.DOWNLINK,
                           PriorityClass.APPLICATION, Reliability.RELIABLE),
                  mobile=True, suspendable=True)
    ul_ack = dl_ack = None
    if net.ack_ratio > 0:
        ul_ack, dl_ack = "app-ul-ack", "app-dl-ack"
        link.add_flow(FlowSpec(ul_ack, Direction.DOWNLINK,
                               PriorityClass.APPLICATION, Reliability.RELIABLE),
                      cell_id=sensor_cell)
        link.add_flow(FlowSpec(dl_ack, Direction.UPLINK,
                               PriorityClass.APPLICATION, Reliability.RELIABLE),
                      mobile=True, suspendable=True)

    world = SimWorld(link, base_delay_ns=net.base_delay_ns, start_ns=start_ns)
    for attr, direction in (("ul", Direction.UPLINK), ("dl", Direction.DOWNLINK)):
        load = parse_load(getattr(cfg.load, attr), direction,
                          cfg.load.packet_size_bytes)
        for i in range(load.ue_count):
            flow_id = f"bg-{attr}-{i}"
            link.add_flow(FlowSpec(flow_id, direction, PriorityClass.BACKGROUND,
                                   Reliability.DROPPABLE, queue_cap_bytes=cap),
                          cell_id=sensor_cell)
            world.cbr_sources.append(
                CbrPacketSource(flow_id, load.per_ue_rate_bps,
                                load.packet_size_bytes, start_ns=start_ns,
                                stop_ns=start_ns + cfg.duration_ns))

    def clock_for(name: str) -> DriftingClock:
        p = cfg.agent(name).clock
        return DriftingClock(offset0_ns=p.offset0_ns, drift_ppm=p.drift_ppm,
                             jitter_ns=p.jitter_ns,
                             rng_seed=derive_seed(cfg.seed, f"clock-{name}"))

    def provider_for(name: str, clock: DriftingClock) -> OffsetProvider:
        p = cfg.agent(name).ntp
        return OffsetProvider(clock, period_ns=round(p.period_s * 1e9),
                              noise_bound_ns=p.noise_bound_ns,
                              rng_seed=derive_seed(cfg.seed, f"ntp-{name}"))

    sensor_clock = clock_for("sensor")
    relay_clock = clock_for("relay")
    vehicle_clock = clock_for("vehicle")
    sensor = SimSensor(source_id=1, frame_size_bytes=cfg.message.size_bytes,
                       rate_hz=cfg.message.rate_hz, duration_ns=cfg.duration_ns,
                       clock=sensor_clock,
                       provider=provider_for("sensor", sensor_clock),
                       payload_seed=derive_seed(cfg.seed, "payload"),
                       start_ns=start_ns)
    relay = SimRelay(relay_clock, provider_for("relay", relay_clock),
                     processing=cfg.agent("relay").processing_delay,
                     rng_seed=derive_seed(cfg.seed, "relay-proc"))
    vehicle = SimVehicle(vehicle_clock, provider_for("vehicle", vehicle_clock))
    pipeline = SimPipeline(world, link, sensor, relay, vehicle,
                           ul_ack_flow=ul_ack, dl_ack_flow=dl_ack,
                           ack_ratio=net.ack_ratio,
                           interruption_windows=windows)
    return world, pipeline, events


_DRAIN_GRACE_NS = 120_000_000_000


def run_scenario(cfg: ScenarioConfig,
                 out_dir: str | Path | None = None) -> ScenarioResult:
    """Execute one scenario and (optionally) persist its packet log plus the
    resolved config echo under out_dir."""
    if cfg.mode == "real":
        result = _run_real(cfg)
    else:
        world, pipeline, events = _build_sim(cfg)
        pipeline.start()
        world.run_until(world.start_ns + cfg.duration_ns)
        deadline = world.start_ns + cfg.duration_ns + _DRAIN_GRACE_NS
        while not pipeline.complete and world.now_ns < deadline:
            world.run_tick()
        if not pipeline.complete:
            raise RuntimeError(
                f"scenario {cfg.name}: pipeline did not drain "
                f"({len(pipeline.vehicle.records)}/{pipeline.sensor.n_messages} "
                f"records after grace period)")
        result = ScenarioResult(
            name=cfg.name, config=cfg, records=pipeline.vehicle.records,
            handover_events=events,
            affected_seqs=set(pipeline.vehicle.affected_seqs),
            sensor_sent=pipeline.sensor.next_seq,
            relay_corrupt_drops=pipeline.relay.corrupt_drops)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = analysis.safe_name(cfg.name)
        result.log_path = out / f"{stem}.jsonl"
        analysis.write_records(result.log_path, result.records)
        result.config_echo_path = out / f"{stem}.config.json"
        result.config_echo_path.write_text(
            json.dumps(cfg.to_obj(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return result


def _run_real(cfg: ScenarioConfig) -> ScenarioResult:
    """Loopback real-socket run: broker, relay, and vehicle threads plus a
    blocking sensor."""
    expected = message_count(cfg.message.rate_hz, cfg.duration_ns)
    stop = threading.Event()
    records: list[analysis.PacketRecord] = []
    errors: list[BaseException] = []

    with Broker() as broker:
        def relay_main() -> None:
            try:
                run_real_relay(broker.host, broker.port, stop=stop,
                               processing=cfg.agent("relay").processing_delay)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        def vehicle_main() -> None:
            try:
                records.extend(run_real_vehicle(broker.host, broker.port,
                                                stop=stop, expected=expected))
            except BaseException as exc:
                errors.append(exc)

        relay_thread = threading.Thread(target=relay_main, name="relay", daemon=True)
        vehicle_thread = threading.Thread(target=vehicle_main, name="vehicle",
                                          daemon=True)
        relay_thread.start()
        vehicle_thread.start()
        # publish only once both subscriptions have landed, so the first
        # frames cannot be discarded as subscriber-less
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if (broker.subscriber_count(UPLINK_TOPIC.name) >= 1
                    and broker.subscriber_count(DOWNLINK_TOPIC.name) >= 1):
                break
            time.sleep(0.01)
        else:
            raise RuntimeError("agents did not subscribe in time")
        sent = run_real_sensor(broker.host, broker.port,
                               frame_size_bytes=cfg.message.size_bytes,
                               rate_hz=cfg.message.rate_hz,
                               duration_s=cfg.duration_s,
                               payload_seed=derive_seed(cfg.seed, "payload"))
        vehicle_thread.join(timeout=cfg.duration_s + 10)
        stop.set()
        relay_thread.join(timeout=5)
    if errors:
        raise RuntimeError(f"real-mode agent failed: {errors[0]!r}") from errors[0]
    return ScenarioResult(name=cfg.name, config=cfg, records=records,
                          handover_events=[], affected_seqs=set(),
                          sensor_sent=sent)


# --------------------------------------------------------------------------
# Experiment matrix
# --------------------------------------------------------------------------

@dataclass
class MatrixConfig:
    master_seed: int
    defaults: dict
    cells: list[dict]


def matrix_from_obj(obj: dict) -> MatrixConfig:
    if not isinstance(obj, dict):
        raise ConfigError("matrix config must be a JSON object")
    _check_keys(obj, {"master_seed", "defaults", "cells"}, "matrix")
    if "master_seed" not in obj:
        raise ConfigError("matrix.master_seed is required")
    master_seed = _num(obj, "master_seed", 0, "matrix", integer=True, minimum=0)
    cells = obj.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ConfigError("matrix.cells must be a non-empty list")
    names = [c.get("name") for c in cells]
    if any(not n for n in names):
        raise ConfigError("every matrix cell needs a name")
    if len(set(names)) != len(names):
        raise ConfigError("matrix cell names must be unique")
    return MatrixConfig(master_seed=master_seed,
                        defaults=obj.get("defaults", {}),
                        cells=cells)


def load_matrix_config(path: str | Path) -> MatrixConfig:
    with open(path, "r", encoding="utf-8") as fp:
        try:
            obj = json.load(fp)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return matrix_from_obj(obj)


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
    merged.setdefault("mode", "sim")
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
        affected = {r.seq for r in analysis.detect_handover_affected(
            res.records, res.handover_events)}
        analysis.write_per_packet_csv(
            res.records, out / f"per_packet_{analysis.safe_name(name)}.csv",
            affected_seqs=affected)
        analysis.emit_per_packet_chart(name, res.records, out)
    return MatrixResult(results=results, failures=failures, out_dir=out,
                        stats_csv=written[0])


DEFAULT_HANDOVER_ROUTE = {
    # straight 200 m line from the second cell's position to the first, at
    # 1 m/s: the vehicle starts near one antenna and drives to the other.
    "waypoints": [[0, 200.0, 0.0], [200_000_000_000, 0.0, 0.0]],
}


def table1_matrix(master_seed: int = 20240510, duration_s: float = 10.0,
                  mobility_duration_s: float = 120.0) -> MatrixConfig:
    """The built-in 13-cell evaluation matrix: 8 nominal cells
    ({BL, AP} x {no load, nominal load} x {1 kB @ 10 Hz, 10 kB @ 20 Hz}),
    4 uplink-overload cells ({BL, AP} x {1x40, 2x40}), and 1 mobility cell."""
    cells: list[dict] = []
    nominal_loads = [("noload", {"ul": "none", "dl": "none"}),
                     ("load5-110", {"ul": "1x5", "dl": "1x110"})]
    messages = [("1k-10hz", {"size_bytes": 1000, "rate_hz": 10.0}),
                ("10k-20hz", {"size_bytes": 10000, "rate_hz": 20.0})]
    for sched in ("BL", "AP"):
        for load_tag, load in nominal_loads:
            for msg_tag, msg in messages:
                cells.append({
                    "name": f"nominal-{sched.lower()}-{load_tag}-{msg_tag}",
                    "scheduler": sched, "load": load, "message": msg})
    for sched in ("BL", "AP"):
        for ue_tag in ("1x40", "2x40"):
            cells.append({
                "name": f"overload-{sched.lower()}-{ue_tag}-10k-20hz",
                "scheduler": sched,
                "load": {"ul": ue_tag, "dl": "none"},
                "message": {"size_bytes": 10000, "rate_hz": 20.0}})
    cells.append({
        "name": "mobility-bl-noload-10k-20hz",
        "scheduler": "BL",
        "load": {"ul": "none", "dl": "none"},
        "message": {"size_bytes": 10000, "rate_hz": 20.0},
        "duration_s": mobility_duration_s,
        "mobility": dict(DEFAULT_HANDOVER_ROUTE)})
    return MatrixConfig(master_seed=master_seed,
                        defaults={"duration_s": duration_s},
                        cells=cells)


def matrix_to_obj(matrix: MatrixConfig) -> dict:
    return {"master_seed": matrix.master_seed, "defaults": matrix.defaults,
            "cells": matrix.cells}
