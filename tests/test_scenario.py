"""Config parsing, scenario runner determinism, and matrix plumbing."""

from __future__ import annotations

import csv
import dataclasses
import gc
import heapq
import inspect
import json
import re
import time
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cv2x_bench import agents, analysis, clockmodel, netem, protocol, scenario
from cv2x_bench.agents import UPLINK_TOPIC
from cv2x_bench.broker import BrokerClient
from cv2x_bench.loadgen import CbrPacketSource
from cv2x_bench.netem import Direction, PriorityClass, SimWorld
from cv2x_bench.scenario import (ConfigError, config_from_obj, derive_seed,
                                 load_config, load_matrix_config,
                                 resolve_matrix_cells, run_matrix, run_scenario)
from config_defaults import QUEUE_CAP_BYTES
from handover import detect_handover_affected
from per_packet import PerPacketWorld, accounting
from shipped_matrix import MATRIX_CONFIG, shipped_matrix

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def _minimal(**overrides) -> dict:
    obj = {"mode": "sim", "scheduler": "BL", "seed": 1, "duration_s": 10.0,
           "message": {"size_bytes": 1000, "rate_hz": 10.0}}
    obj.update(overrides)
    return obj


def test_minimal_config_is_valid():
    cfg = config_from_obj(_minimal())
    assert cfg.scheduler == "BL"
    assert cfg.message.size_bytes == 1000
    assert cfg.network.ul_capacity_bps == 40_000_000
    assert cfg.network.dl_capacity_bps == 130_000_000
    assert cfg.load.ul == "none"


def test_invalid_scheduler_names_the_field():
    with pytest.raises(ConfigError, match="scheduler"):
        config_from_obj(_minimal(scheduler="XX"))


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="typo_key"):
        config_from_obj(_minimal(typo_key=1))
    with pytest.raises(ConfigError, match="config.network"):
        config_from_obj(_minimal(network={"bandwidt_mhz": 20}))
    with pytest.raises(ConfigError, match="config.agents.sensor.clock"):
        config_from_obj(_minimal(agents={"sensor": {"clock": {"offset_ns": 1}}}))


def test_cpm_preset_expands_to_156_bytes_at_10_hz():
    cfg = config_from_obj(_minimal(message={"preset": "cpm-etsi"}))
    assert cfg.message.size_bytes == 156
    assert cfg.message.rate_hz == 10.0


def test_sim_mode_requires_seed():
    obj = _minimal()
    del obj["seed"]
    with pytest.raises(ConfigError, match="seed"):
        config_from_obj(obj)
    obj["mode"] = "real"
    config_from_obj(obj)  # fine without a seed


_REAL = {"mode": "real", "duration_s": 10.0,
         "message": {"size_bytes": 1000, "rate_hz": 10.0}}


# each field the real path cannot apply, set off its default
_NOT_IN_REAL = [
    ("scheduler", "AP", "config.scheduler"),
    ("load", {"ul": "1x5"}, "config.load"),
    ("load", {"queue_cap_bytes": 1}, "config.load"),
    ("network", {"base_delay_ms": 0.0}, "config.network"),
    ("network", {"handover": {"interruption_ms": 0.0}}, "config.network"),
    ("mobility", {"waypoints": [[0, 0.0, 0.0]]}, "config.mobility"),
    ("agents", {"sensor": {"clock": {"drift_ppm": 1.0}}},
     "config.agents.sensor.clock"),
    ("agents", {"relay": {"clock": {"offset0_ns": 5}}},
     "config.agents.relay.clock"),
    ("agents", {"vehicle": {"ntp": {"period_s": 1.0}}},
     "config.agents.vehicle.ntp"),
]


@pytest.mark.parametrize("field, value, named", _NOT_IN_REAL, ids=[
    f"{field}={json.dumps(value)}" for field, value, _ in _NOT_IN_REAL])
def test_real_mode_refuses_what_it_cannot_apply(field, value, named):
    config_from_obj(dict(_REAL, **{field: value}, mode="sim", seed=1))
    with pytest.raises(ConfigError) as caught:
        config_from_obj(dict(_REAL, **{field: value}))
    assert str(caught.value).startswith(f"{named} applies only in sim mode: ")


_REAL_APPLIES = [
    ("scheduler", "BL"),
    ("load", {"ul": "none", "dl": "none"}),
    ("network", {"pattern": "DDDSU"}),
    ("mobility", None),
    ("agents", {"sensor": {"clock": {"jitter_ns": 0}, "ntp": {}}}),
    ("agents", {"relay": {"processing_delay": {"constant_ns": 1}}}),
]


@pytest.mark.parametrize("field, value", _REAL_APPLIES, ids=[
    f"{field}={json.dumps(value)}" for field, value in _REAL_APPLIES])
def test_real_mode_takes_defaults_and_what_it_applies(field, value):
    config_from_obj(dict(_REAL, **{field: value}))


def test_env_var_overrides_seed(monkeypatch):
    monkeypatch.setenv(scenario.SEED_ENV_VAR, "777")
    cfg = config_from_obj(_minimal(seed=5))
    assert cfg.seed == 777
    monkeypatch.setenv(scenario.SEED_ENV_VAR, "not-a-number")
    with pytest.raises(ConfigError):
        config_from_obj(_minimal(seed=5))


def test_message_size_bounds():
    with pytest.raises(ConfigError, match="size_bytes"):
        config_from_obj(_minimal(message={"size_bytes": 87, "rate_hz": 1}))
    # the largest frame carries a 10,000,000-byte payload
    largest = config_from_obj(_minimal(message={"size_bytes": 10_000_088}))
    assert largest.message.size_bytes == 10_000_088
    for size in (10_000_089, 2**31 + 100):
        with pytest.raises(ConfigError, match="config.message.size_bytes must be <= 10000088"):
            config_from_obj(_minimal(message={"size_bytes": size}))


def test_background_packet_must_fit_its_queue_cap():
    fits = config_from_obj(_minimal(load={"ul": "1x5", "packet_size_bytes": 1000,
                                          "queue_cap_bytes": 1000}))
    assert fits.load.queue_cap_bytes == 1000
    with pytest.raises(ConfigError, match="config.load.packet_size_bytes 1001 "
                                          "exceeds queue_cap_bytes 1000: the dl"):
        config_from_obj(_minimal(load={"dl": "2x5", "packet_size_bytes": 1001,
                                       "queue_cap_bytes": 1000}))
    # without background flows there is nothing to drop
    assert config_from_obj(_minimal(load={"queue_cap_bytes": 1})).load.ul == "none"


def test_bad_load_spec_names_field():
    with pytest.raises(ConfigError, match="config.load.ul"):
        config_from_obj(_minimal(load={"ul": "lots"}))


def test_mobility_requires_two_cells():
    with pytest.raises(ConfigError, match="two cells"):
        config_from_obj(_minimal(
            mobility={"waypoints": [[0, 0.0, 0.0], [10, 5.0, 0.0]]},
            network={"cells": [{"cell_id": 1, "position": [0, 0]}]}))


def test_load_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_minimal(name="from-file")))
    cfg = load_config(path)
    assert cfg.name == "from-file"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_nominal_run_has_zero_loss():
    res = run_scenario(config_from_obj(_minimal(name="nominal")))
    assert res.sensor_sent == 100
    assert len(res.records) == 100
    assert [r.seq for r in res.records] == list(range(100))
    assert all(not r.corrupt for r in res.records)


def test_same_seed_gives_identical_runs():
    cfg = config_from_obj(_minimal(name="det", seed=31,
                                   load={"ul": "1x5", "dl": "1x110"}))
    res_a = run_scenario(cfg)
    res_b = run_scenario(cfg)
    lines_a = [analysis.record_line(r) for r in res_a.records]
    lines_b = [analysis.record_line(r) for r in res_b.records]
    assert lines_a == lines_b
    sa, sb = res_a.stats("e2e"), res_b.stats("e2e")
    assert (sa.mean_ns, sa.p95_ns, sa.p99_ns) == (sb.mean_ns, sb.p95_ns, sb.p99_ns)


def test_bl_and_ap_agree_without_load():
    p99 = {}
    for sched in ("BL", "AP"):
        cfg = config_from_obj(_minimal(name=f"quiet-{sched}", scheduler=sched,
                                       duration_s=5.0))
        p99[sched] = run_scenario(cfg).stats("e2e").p99_ns
    assert abs(p99["AP"] - p99["BL"]) / p99["BL"] < 0.10


def test_config_echo_reparses_equal(tmp_path, monkeypatch):
    monkeypatch.delenv(scenario.SEED_ENV_VAR, raising=False)
    cfg = config_from_obj(_minimal(
        name="echo", load={"ul": "1x5", "dl": "1x110"},
        agents={"relay": {"processing_delay": {"constant_ns": 1000}}},
        mobility={"waypoints": [[0, 200.0, 0.0], [200_000_000_000, 0.0, 0.0]]},
        duration_s=1.0))
    res = run_scenario(cfg, out_dir=tmp_path)
    assert res.config_echo_path is not None
    assert load_config(res.config_echo_path) == cfg
    assert analysis.ingest(res.log_path) == res.records


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_builtin_matrix_has_13_distinct_cells():
    matrix = load_matrix_config(MATRIX_CONFIG)
    assert matrix.master_seed == 20240510
    assert matrix.defaults == {"duration_s": 10.0}
    cfgs = resolve_matrix_cells(matrix)
    assert len(cfgs) == 13
    names = [c.name for c in cfgs]
    assert len(set(names)) == 13
    seeds = [c.seed for c in cfgs]
    assert len(set(seeds)) == 13
    nominal = [c for c in cfgs if c.name.startswith("nominal-")]
    overload = [c for c in cfgs if c.name.startswith("overload-")]
    mobility = [c for c in cfgs if c.mobility is not None]
    assert len(nominal) == 8 and len(overload) == 4 and len(mobility) == 1
    # nominal block is {BL, AP} x {no-load, nominal-load} x two messages
    combos = {(c.scheduler, c.load.ul, c.load.dl,
               c.message.size_bytes, c.message.rate_hz) for c in nominal}
    assert len(combos) == 8
    assert {c.scheduler for c in nominal} == {"BL", "AP"}
    assert {(c.load.ul, c.load.dl) for c in nominal} == {("none", "none"),
                                                         ("1x5", "1x110")}
    assert all(c.duration_s == 10.0 for c in nominal + overload)
    assert {c.load.ul for c in overload} == {"1x40", "2x40"}
    assert {c.scheduler for c in overload} == {"BL", "AP"}
    assert all(c.load.dl == "none" for c in overload)
    assert all((c.message.size_bytes, c.message.rate_hz) == (10_000, 20.0)
               for c in overload)
    assert mobility[0].scheduler == "BL"
    assert mobility[0].message.size_bytes == 10_000
    # 120 s on a straight 200 m line from the second cell to the first, at 1 m/s
    assert mobility[0].duration_s == 120.0
    assert [list(p) for p in mobility[0].mobility.waypoints] == [
        [0, 200.0, 0.0], [200_000_000_000, 0.0, 0.0]]
    positions = {c.cell_id: c.position for c in mobility[0].network.cells}
    assert positions == {1: (0.0, 0.0), 2: (200.0, 0.0)}


def test_run_matrix_isolates_cell_failures(tmp_path):
    matrix = scenario.MatrixConfig(
        master_seed=4,
        defaults={"duration_s": 1.0,
                  "message": {"size_bytes": 1000, "rate_hz": 10.0}},
        cells=[{"name": "good", "scheduler": "BL"},
               {"name": "bad", "scheduler": "NOPE"}])
    result = run_matrix(matrix, tmp_path)
    assert set(result.results) == {"good"}
    assert set(result.failures) == {"bad"}
    assert "scheduler" in result.failures["bad"]
    rows = (tmp_path / "stats.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header + the good cell


def test_matrix_outputs_land_in_per_cell_directories(tmp_path):
    matrix = scenario.MatrixConfig(
        master_seed=4,
        defaults={"duration_s": 1.0,
                  "message": {"size_bytes": 1000, "rate_hz": 10.0}},
        cells=[{"name": "cell-a", "scheduler": "BL"},
               {"name": "cell-b", "scheduler": "AP"}])
    result = run_matrix(matrix, tmp_path)
    assert not result.failures
    for name in ("cell-a", "cell-b"):
        assert (tmp_path / name / f"{name}.jsonl").exists()
        assert (tmp_path / name / f"{name}.config.json").exists()
        assert (tmp_path / f"cdf_{name}.csv").exists()
        assert (tmp_path / f"per_packet_{name}.csv").exists()


def test_per_packet_affected_column_is_the_emulators_own_set(tmp_path):
    # NTP estimates up to 20 ms off: the clock-corrected check misjudges
    # packets near the interruption's edges, the emulator does not
    ntp = {"ntp": {"period_s": 0, "noise_bound_ns": 20_000_000}}
    matrix = scenario.MatrixConfig(master_seed=0, defaults={}, cells=[{
        "name": "noisy-handover", "seed": 3, "duration_s": 30.0,
        "message": {"size_bytes": 1000, "rate_hz": 200.0},
        "mobility": {"waypoints": [[0, 120.0, 0.0], [30_000_000_000, 80.0, 0.0]]},
        "agents": {"relay": ntp, "vehicle": ntp}}])
    res = run_matrix(matrix, tmp_path).results["noisy-handover"]
    with open(tmp_path / "per_packet_noisy-handover.csv", encoding="utf-8") as fp:
        flagged = {int(row["seq"]) for row in csv.DictReader(fp)
                   if row["affected"] == "1"}
    assert len(res.affected_seqs) == 10
    assert flagged == res.affected_seqs
    estimated = {r.seq for r in detect_handover_affected(
        res.records, res.handover_events)}
    assert estimated - flagged == {3372, 3373, 3386, 3387}


def test_zero_per_tick_budget_names_the_field():
    # 399 bps over a 2.5 ms tick rounds to 0 bits, which never drains
    for key in ("ul_capacity_bps", "dl_capacity_bps"):
        with pytest.raises(ConfigError, match=f"config.network.{key}"):
            config_from_obj(_minimal(network={key: 399}))
        assert getattr(config_from_obj(_minimal(network={key: 400})).network,
                       key) == 400
    # the budget follows the tick: a 5 ns tick needs at least 200 Mbps
    with pytest.raises(ConfigError, match="config.network.dl_capacity_bps"):
        config_from_obj(_minimal(network={"slot_duration_ns": 1,
                                          "ul_capacity_bps": 200_000_000,
                                          "dl_capacity_bps": 199_999_999}))


def test_the_library_declares_no_value_the_config_sets():
    # _build_sim passes each of these from the resolved config, and the
    # tests take them from config_defaults: a default here would be a
    # second declaration, read only where the config is not
    config_set = [
        (netem.LinkSimulator, ("tick_ns", "scheduler", "ul_capacity_bps",
                               "dl_capacity_bps")),
        (netem.LinkSimulator.add_flow, ("queue_cap_bytes",)),
        (netem.apply_handover, ("hysteresis_m", "interruption_ns", "sample_ns")),
        (netem.HandoverEvent, ("interruption_ns",)),
        (agents.SimPipeline, ("base_delay_ns",)),
        (clockmodel.OffsetProvider, ("period_ns",)),
        (agents.SimRelay, ("processing",)),
        (agents.run_real_relay, ("processing",)),
    ]
    defaulted = [f"{target.__qualname__}({name})" for target, names in config_set
                 for name in names
                 if inspect.signature(target).parameters[name].default
                 is not inspect.Parameter.empty]
    assert defaulted == []
    # the base delay is the pipeline's alone, and the pipeline's link the world's
    assert "base_delay_ns" not in inspect.signature(netem.SimWorld).parameters
    assert "link" not in inspect.signature(agents.SimPipeline).parameters


def test_every_cell_is_served_with_the_networks_budget():
    # a "DU" pattern of 1 ms slots is a 2 ms tick
    cfg = config_from_obj(_minimal(network={
        "pattern": "DU", "slot_duration_ns": 1_000_000,
        "ul_capacity_bps": 8_000_000, "dl_capacity_bps": 24_000_000}))
    world, _ = scenario._build_sim(cfg)
    link = world.link
    assert link.tick_ns == 2_000_000
    assert link.budgets == {Direction.UPLINK: 16_000, Direction.DOWNLINK: 48_000}
    for cell in (1, 2):
        for direction in Direction:
            flow_id = f"x-{direction.value}-{cell}"
            link.add_flow(flow_id, direction, PriorityClass.BACKGROUND, cell,
                          QUEUE_CAP_BYTES)
            # ten 8,000-bit packets
            link.enqueue_run(CbrPacketSource(flow_id, 8_000_000, 1000), 0, 0, 10)
    link.run_tick(world.start_ns)
    assert {flow_id: q.served_bits for flow_id, q in link.flows.items()
            if flow_id.startswith("x-")} == {
        "x-UL-1": 16_000, "x-DL-1": 48_000, "x-UL-2": 16_000, "x-DL-2": 48_000}


def test_non_finite_numbers_name_the_field():
    obj = json.loads('{"mode": "sim", "seed": 1, "duration_s": NaN}')
    with pytest.raises(ConfigError, match="config.duration_s"):
        config_from_obj(obj)
    with pytest.raises(ConfigError, match="config.message.rate_hz"):
        config_from_obj(_minimal(message={"rate_hz": float("inf")}))
    with pytest.raises(ConfigError, match="config.network.ul_capacity_bps"):
        config_from_obj(_minimal(network={"ul_capacity_bps": float("-inf")}))
    with pytest.raises(ConfigError, match="config.seed"):
        config_from_obj(_minimal(seed=float("inf")))


def test_sim_and_real_mode_send_the_same_message_count():
    # 1 Hz for 0.5 s: the message at offset 0 falls inside the run
    obj = _minimal(duration_s=0.5, message={"size_bytes": 1000, "rate_hz": 1.0})
    sim = run_scenario(config_from_obj(obj))
    real = run_scenario(config_from_obj(dict(obj, mode="real")))
    assert sim.sensor_sent == real.sensor_sent == 1
    assert len(sim.records) == len(real.records) == 1


def test_real_mode_counts_the_relays_corrupt_drops(monkeypatch):
    # the sensor first publishes one frame with a flipped payload bit: the
    # relay drops it, and every frame the sensor then sends is logged
    run_real_sensor = scenario.run_real_sensor

    def sensor_with_a_corrupt_frame(host, port, **kwargs):
        frame = bytearray(protocol.encode(protocol.V2XMessage(
            seq=0, t1=1, payload=bytes(16))))
        frame[protocol.HEADER_LEN] ^= 0x01
        with BrokerClient(host, port) as client:
            client.publish(UPLINK_TOPIC, bytes(frame))
        return run_real_sensor(host, port, **kwargs)

    monkeypatch.setattr(scenario, "run_real_sensor", sensor_with_a_corrupt_frame)
    result = run_scenario(config_from_obj(_minimal(mode="real", duration_s=0.5)))
    assert result.sensor_sent == 5
    assert result.relay_corrupt_drops == 1
    assert len(result.records) == result.sensor_sent


def test_real_mode_reports_a_failing_agent_at_once(monkeypatch):
    failure = ValueError("relay failed")

    def failing_relay(host, port, **kwargs):
        raise failure

    monkeypatch.setattr(scenario, "run_real_relay", failing_relay)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="real-mode agent failed") as info:
        run_scenario(config_from_obj(_minimal(mode="real", duration_s=0.5)))
    assert time.monotonic() - started < 2.0
    assert info.value.__cause__ is failure


def _stepped(cfg):
    """The cell stepped through every tick, as before ticks were skipped."""
    world, pipeline = scenario._build_sim(cfg)
    pipeline.start()
    end = world.start_ns + cfg.duration_ns
    while world.now_ns < end:
        world.run_tick()
    while not pipeline.complete and world.now_ns < end + scenario._DRAIN_GRACE_NS:
        world.run_tick()
    assert world.ticks_skipped == 0
    return world, pipeline


def test_mobility_cell_counts_every_tick_it_runs_or_skips():
    cfg, = [c for c in resolve_matrix_cells(shipped_matrix())
            if c.mobility is not None]
    result = run_scenario(cfg)
    world, pipeline = _stepped(cfg)
    assert result.ticks_run + result.ticks_skipped == world.ticks_run
    assert result.ticks_skipped > result.ticks_run > 0
    assert result.records == pipeline.vehicle.records
    assert len(result.handover_events) == 1


@pytest.mark.parametrize("seed", (7, 811, 20240510))
def test_loaded_matrix_cells_match_stepping_every_tick(seed, monkeypatch):
    cells = {c.name: c for c in resolve_matrix_cells(shipped_matrix(seed, duration_s=6.0))}
    loaded = [name for name in cells if "-load5-110-" in name]
    assert len(loaded) == 4
    overload_ap = ["overload-ap-1x40-10k-20hz", "overload-ap-2x40-10k-20hz"]
    stepped = {name: _stepped(cells[name]) for name in loaded + overload_ap}
    # run_scenario's own world, for its accounting
    worlds = {}
    build_sim = scenario._build_sim

    def keep_world(cfg):
        world, pipeline = build_sim(cfg)
        worlds[cfg.name] = world
        return world, pipeline

    monkeypatch.setattr(scenario, "_build_sim", keep_world)
    for name, (world, pipeline) in stepped.items():
        result = run_scenario(cells[name])
        assert result.records == pipeline.vehicle.records
        assert accounting(worlds[name].link) == accounting(world.link)
        assert result.ticks_run + result.ticks_skipped == world.ticks_run
        assert all(offered for _, offered, *_ in accounting(world.link))
    for name in overload_ap:
        # the overloaded uplinks have filled their queues and drop, and
        # most ticks have only background packets to serve
        flows = worlds[name].link.flows
        assert all(q.dropped_bits for fid, q in flows.items() if fid.startswith("bg-"))
        assert worlds[name].ticks_skipped > worlds[name].ticks_run
    for name in loaded:
        # nominal load always fits a tick: its ticks are skipped as if the
        # cell had no load
        sibling = run_scenario(cells[name.replace("-load5-110-", "-noload-")])
        assert worlds[name].ticks_run == sibling.ticks_run < stepped[name][0].ticks_run


OVERLOAD_CELLS = ("overload-bl-1x40-10k-20hz", "overload-bl-2x40-10k-20hz",
                  "overload-ap-2x40-10k-20hz")


@pytest.mark.parametrize("seed", (7, 811, 20240510))
def test_overload_cells_match_the_per_packet_reference(seed, monkeypatch):
    cells = {c.name: c for c in resolve_matrix_cells(shipped_matrix(seed, duration_s=3.0))}
    # every background packet its own heap event and queue entry
    with monkeypatch.context() as patch:
        patch.setattr(scenario, "SimWorld", PerPacketWorld)
        reference = {name: _stepped(cells[name]) for name in OVERLOAD_CELLS}
    worlds = {}
    build_sim = scenario._build_sim
    merges = 0
    serve_fifo = netem._serve_fifo

    def keep_world(cfg):
        world, pipeline = build_sim(cfg)
        worlds[cfg.name] = world
        return world, pipeline

    def counted(queues, budget, completed, bulk):
        # the reference is stepped above, so only SimWorld's calls count
        nonlocal merges
        merges += sum(1 for q in queues if q.packets) >= 2
        return serve_fifo(queues, budget, completed, bulk)

    monkeypatch.setattr(scenario, "_build_sim", keep_world)
    monkeypatch.setattr(netem, "_serve_fifo", counted)
    for name in OVERLOAD_CELLS:
        world, pipeline = reference[name]
        result = run_scenario(cells[name])
        assert result.records == pipeline.vehicle.records
        assert accounting(worlds[name].link) == accounting(world.link)
        assert len(result.records) == 60
    # the two BL sources' queues saturated and were merged with each other
    # and with the application queue
    bl = worlds["overload-bl-2x40-10k-20hz"].link.flows
    assert bl["bg-ul-0"].dropped_bits > 0 and bl["bg-ul-1"].dropped_bits > 0
    assert merges > 1000


def test_bl_overload_heap_work(monkeypatch):
    # heapq.heapreplace calls at a 3 s duration: 1x40's lone source run is
    # served in bulk steps, at most a fifth of the calls of per-packet pops;
    # 2x40's two equal-rate sources alternate packet by packet, so its view
    # keeps the per-packet loop and makes the count pinned before bulk steps
    cells = {c.name: c for c in resolve_matrix_cells(shipped_matrix(duration_s=3.0))}
    calls = 0
    heapreplace = heapq.heapreplace

    def counted(heap, item):
        nonlocal calls
        calls += 1
        return heapreplace(heap, item)

    def count() -> dict[str, int]:
        nonlocal calls
        counts = {}
        for load in ("1x40", "2x40"):
            calls = 0
            run_scenario(cells[f"overload-bl-{load}-10k-20hz"])
            counts[load] = calls
        return counts

    monkeypatch.setattr(heapq, "heapreplace", counted)
    steps = count()
    serve_fifo = netem._serve_fifo
    monkeypatch.setattr(netem, "_serve_fifo",
                        lambda queues, budget, completed, bulk:
                        serve_fifo(queues, budget, completed, False))
    per_packet = count()
    assert 5 * steps["1x40"] <= per_packet["1x40"]
    assert steps["2x40"] == per_packet["2x40"] == 11_705


def test_ap_overload_builds_a_run_only_where_arrivals_start_one(monkeypatch):
    # QueuedRun objects built at a 3 s duration: one per application packet
    # (each message's uplink and downlink packet and their two acks) and
    # one for the source, whose queue never drops, so each later tick's
    # arrivals extend its tail run in place; one per admission was 1,440
    [cell] = [c for c in resolve_matrix_cells(shipped_matrix(duration_s=3.0))
              if c.name == "overload-ap-1x40-10k-20hz"]
    built = 0
    queued_run = netem.QueuedRun

    def counted(*args):
        nonlocal built
        built += 1
        return queued_run(*args)

    monkeypatch.setattr(netem, "QueuedRun", counted)
    result = run_scenario(cell)
    assert built == 4 * len(result.records) + 1 == 241


def test_only_the_handovers_a_run_reaches_are_reported():
    # the vehicle reaches the first cell 1 s in and turns back at 10 s, long
    # after the 2 s run has drained
    there = [[0, 200.0, 0.0], [1_000_000_000, 0.0, 0.0],
             [10_000_000_000, 0.0, 0.0]]
    back = there + [[11_000_000_000, 200.0, 0.0]]
    one, both = (run_scenario(config_from_obj(_minimal(
        duration_s=2.0, message={"size_bytes": 1000, "rate_hz": 20.0},
        mobility={"waypoints": route}))) for route in (there, back))
    [event] = both.handover_events
    assert (event.from_cell, event.to_cell) == (2, 1)
    assert both.handover_events == one.handover_events
    assert both.records == one.records
    assert both.affected_seqs == one.affected_seqs != set()
    assert (detect_handover_affected(both.records, both.handover_events)
            == detect_handover_affected(one.records, one.handover_events))


def test_tick_is_the_pattern_length_times_the_slot_duration():
    assert scenario.NetworkConfig().tick_ns == 2_500_000
    cfg = config_from_obj(_minimal(network={"pattern": "DU",
                                            "slot_duration_ns": 1_000_000}))
    assert cfg.network.tick_ns == 2_000_000


def _live_worlds() -> set[int]:
    return {id(obj) for obj in gc.get_objects() if isinstance(obj, SimWorld)}


def test_finished_scenario_frees_its_emulator_without_a_collection():
    cfg = config_from_obj(_minimal(name="freed", duration_s=1.0,
                                   load={"ul": "1x5", "dl": "1x110"}))
    gc.collect()
    before = _live_worlds()
    gc.disable()
    try:
        run_scenario(cfg)
        left = _live_worlds() - before
    finally:
        gc.enable()
    assert left == set()


# --------------------------------------------------------------------------
# Values that parse but cannot run: upper bounds
# --------------------------------------------------------------------------

def test_background_ue_count_is_bounded():
    # one flow and one CBR source per UE: a billion would exhaust memory
    for key in ("ul", "dl"):
        for spec in ("1001x1", "1000000000x1"):
            with pytest.raises(ConfigError,
                               match=f"config.load.{key}: at most 1000 "):
                config_from_obj(_minimal(load={key: spec}))
        assert getattr(config_from_obj(_minimal(load={key: "1000x1"})).load,
                       key) == "1000x1"


def test_duration_is_bounded():
    # 1e9 s would be 4e14 ticks
    for duration in (86_400.5, 1e9):
        with pytest.raises(ConfigError, match=r"config.duration_s must be <= 86400"):
            config_from_obj(_minimal(duration_s=duration))
    assert config_from_obj(_minimal(duration_s=86_400)).duration_s == 86_400


def test_ack_size_and_base_delay_are_bounded():
    # an acknowledgment of round(size_bytes * ack_ratio) bytes fits a frame
    # up to the largest; two hops of base delay fit the 120 s drain grace;
    # the largest finite values overflow the products to infinity
    largest = protocol.MAX_FRAME_SIZE
    for ratio, ok in ((largest / 1000, True), ((largest + 0.5) / 1000, True),
                      ((largest + 0.51) / 1000, False), (1.7e308, False)):
        obj = _minimal(network={"ack_ratio": ratio})
        if ok:
            assert config_from_obj(obj).network.ack_ratio == ratio
        else:
            with pytest.raises(ConfigError, match="config.network.ack_ratio"):
                config_from_obj(obj)
    assert config_from_obj(_minimal(network={"base_delay_ms": 60_000})
                           ).network.base_delay_ns == scenario._DRAIN_GRACE_NS // 2
    for delay in (60_000.001, 1.7e308):
        with pytest.raises(ConfigError, match="config.network.base_delay_ms must be <= 60000"):
            config_from_obj(_minimal(network={"base_delay_ms": delay}))


def test_processing_delay_is_bounded():
    # the longest processing delay and two hops of base delay fit the 120 s
    # drain grace
    for base_delay_ms in (2.0, 0.0, 60_000):
        largest = scenario._DRAIN_GRACE_NS - 2 * round(base_delay_ms * 1_000_000)
        for delay in ({"constant_ns": largest}, {"uniform_ns": [0, largest]},
                      {"uniform_ns": [largest, largest]}):
            obj = _minimal(network={"base_delay_ms": base_delay_ms},
                           agents={"relay": {"processing_delay": delay}})
            config_from_obj(obj)
            over = {key: value + 1 if key == "constant_ns" else [value[0], value[1] + 1]
                    for key, value in delay.items()}
            obj["agents"]["relay"]["processing_delay"] = over
            with pytest.raises(ConfigError, match=re.escape(
                    f"config.agents.relay.processing_delay must be <= {largest} ns")):
                config_from_obj(obj)


def test_message_count_is_bounded():
    # 10 kHz for 1000 s publishes exactly 10,000,000 messages
    assert scenario.message_count(10_000.0, 1000 * 10**9) == 10_000_000
    config_from_obj(_minimal(duration_s=1000, message={"rate_hz": 10_000.0}))
    for rate in (10_000.001, 1e300):
        with pytest.raises(ConfigError, match="config.message.rate_hz sends more "
                                              "than 10000000 messages"):
            config_from_obj(_minimal(duration_s=1000, message={"rate_hz": rate}))
    # a tiny rate sends the message at offset 0 only; counting the next
    # offset, too large for an int, used to overflow
    cfg = config_from_obj(_minimal(message={"rate_hz": 1e-300}))
    assert scenario.message_count(cfg.message.rate_hz, cfg.duration_ns) == 1


# --------------------------------------------------------------------------
# Malformed configs: a ConfigError that names the field, never a traceback
# --------------------------------------------------------------------------

def _cells(*cells) -> dict:
    return {"cells": list(cells)}


_NAN = float("nan")
_ROUTE = {"waypoints": [[0, 200.0, 0.0], [10, 0.0, 0.0]]}

MALFORMED = [
    # (kind, object, text the ConfigError must contain)
    ("config", _minimal(message=5), "config.message must be an object"),
    ("config", _minimal(message={"preset": ["cpm-etsi"]}), "config.message.preset"),
    ("config", _minimal(name=5), "config.name must be a string"),
    ("config", _minimal(scheduler=5), "config.scheduler must be a string"),
    ("config", _minimal(load={"ul": 5}), "config.load.ul must be a string"),
    ("config", _minimal(load={"ul": "1xinf"}), "config.load.ul: load spec '1xinf'"),
    ("config", _minimal(load={"ul": "1xnan"}), "config.load.ul: load spec '1xnan'"),
    ("config", _minimal(load={"dl": "1x1e305"}),
     "config.load.dl: load spec '1x1e305'"),
    ("config", _minimal(network={"pattern": 5}),
     "config.network.pattern must be a string"),
    ("config", _minimal(network={"pattern": "DDXSU"}),
     "config.network.pattern must be a non-empty string of D, U and S slots, "
     "got 'DDXSU'"),
    ("config", _minimal(network={"pattern": ""}),
     "config.network.pattern must be a non-empty string of D, U and S slots, "
     "got ''"),
    # an acknowledgment over the largest frame, and a base delay whose two
    # hops outlast the drain grace, would leave the run undrained
    ("config", _minimal(network={"ack_ratio": 1e300}),
     "config.network.ack_ratio 1e+300 makes an acknowledgment over 10000088 bytes"),
    ("config", _minimal(network={"base_delay_ms": 1e300}),
     "config.network.base_delay_ms must be <= 60000 to drain, got 1e+300"),
    ("config", _minimal(network={"handover": 5}),
     "config.network.handover must be an object"),
    ("config", _minimal(network={"cells": 5}), "config.network.cells must be a list"),
    ("config", _minimal(network=_cells({"position": [0, 0]})),
     "config.network.cells[0].cell_id is required"),
    ("config", _minimal(network=_cells({"cell_id": "a"})),
     "config.network.cells[0].cell_id must be a number"),
    ("config", _minimal(network=_cells({"cell_id": 1.5})),
     "config.network.cells[0].cell_id must be an integer"),
    ("config", _minimal(network=_cells({"cell_id": 1, "position": [_NAN, 0]},
                                       {"cell_id": 2, "position": [0, 0]}),
                        mobility=_ROUTE),
     "config.network.cells[0].position[0] must be finite"),
    ("config", _minimal(network=_cells({"cell_id": 1}, {"cell_id": 1})),
     "config.network.cells must have distinct cell_id values"),
    ("config", _minimal(agents=[]), "config.agents must be an object"),
    ("config", _minimal(agents={"relay": {"clock": 5}}),
     "config.agents.relay.clock must be an object"),
    ("config", _minimal(agents={"relay": {"processing_delay": 5}}),
     "config.agents.relay.processing_delay must be an object"),
    ("config", _minimal(agents={"relay": {"processing_delay": {
        "uniform_ns": [1, 2], "constant_ns": 5}}}),
     "config.agents.relay.processing_delay: set constant_ns or uniform_ns"),
    ("config", _minimal(agents={"relay": {"processing_delay": {"uniform_ns": "ab"}}}),
     "config.agents.relay.processing_delay.uniform_ns must be a list"),
    ("config", _minimal(agents={"relay": {"processing_delay": {"uniform_ns": [1]}}}),
     "config.agents.relay.processing_delay.uniform_ns must have 2 elements"),
    ("config", _minimal(agents={"relay": {"processing_delay": {
        "uniform_ns": [1.5, 2]}}}),
     "config.agents.relay.processing_delay.uniform_ns[0] must be an integer"),
    ("config", _minimal(agents={"relay": {"processing_delay": {
        "uniform_ns": [5, 2]}}}),
     "config.agents.relay.processing_delay: uniform range"),
    # a relay that holds a message past the drain grace, constant or at the
    # top of its range
    ("config", _minimal(agents={"relay": {"processing_delay": {
        "constant_ns": 10**15}}}),
     "config.agents.relay.processing_delay must be <= 119996000000 ns, with two "
     "hops of network.base_delay_ms, to drain, got 1000000000000000"),
    ("config", _minimal(agents={"relay": {"processing_delay": {
        "uniform_ns": [0, 10**15]}}}),
     "config.agents.relay.processing_delay must be <= 119996000000 ns"),
    ("config", _minimal(mobility=5), "config.mobility must be an object"),
    ("config", _minimal(mobility={}), "config.mobility.waypoints is required"),
    ("config", _minimal(mobility={"waypoints": 5}),
     "config.mobility.waypoints must be a list"),
    ("config", _minimal(mobility={"waypoints": [[0, 0.0, 0.0], [10, 5.0]]}),
     "config.mobility.waypoints[1] must have 3 elements"),
    ("config", _minimal(mobility={"waypoints": [[0.5, 0.0, 0.0], [10, 5.0, 0.0]]}),
     "config.mobility.waypoints[0][0] must be an integer"),
    ("config", _minimal(mobility={"waypoints": [[0, _NAN, 0.0], [10, 5.0, 0.0]]}),
     "config.mobility.waypoints[0][1] must be finite"),
    ("matrix", {"master_seed": 1, "cells": [5]}, "matrix.cells[0] must be an object"),
    ("matrix", {"master_seed": 1, "cells": [{"name": 5}]},
     "matrix.cells[0].name must be a non-empty string"),
    ("matrix", {"master_seed": 1, "defaults": 5, "cells": [{"name": "a"}]},
     "matrix.defaults must be an object"),
    ("matrix", {"master_seed": 1, "cells": [{"name": "a"}, {"name": "a"}]},
     "matrix.cells 'a' and 'a' have the same output name 'a'"),
    # run_matrix would write both cells' files under one stem
    ("matrix", {"master_seed": 1, "cells": [{"name": "a b"}, {"name": "c"},
                                            {"name": "a-b"}]},
     "matrix.cells 'a b' and 'a-b' have the same output name 'a-b'"),
    # a cell directory outside the output directory, or on a file that
    # run_matrix writes beside the cell directories
    ("matrix", {"master_seed": 1, "cells": [{"name": "."}]},
     "matrix.cells '.' has the output name '.', which is not free"),
    ("matrix", {"master_seed": 1, "cells": [{"name": ".."}]},
     "matrix.cells '..' has the output name '..', which is not free"),
    ("matrix", {"master_seed": 1, "cells": [{"name": "stats.csv"}]},
     "matrix.cells 'stats.csv' has the output name 'stats.csv', which is not free"),
    ("matrix", {"master_seed": 1, "cells": [{"name": "a"}, {"name": "cdf.svg"}]},
     "matrix.cells 'cdf.svg' has the output name 'cdf.svg', which is not free"),
    ("matrix", {"master_seed": 1, "cells": [{"name": "cdf_x.csv"}, {"name": "x"}]},
     "matrix.cells 'cdf_x.csv' has the output name 'cdf_x.csv', which is not free"),
    ("matrix", {"master_seed": 1, "cells": [{"name": "x y"}, {"name": "per_packet_x-y.csv"}]},
     "matrix.cells 'per_packet_x-y.csv' has the output name 'per_packet_x-y.csv', "
     "which is not free"),
    ("matrix", {"master_seed": 1, "cells": [{"name": "per_packet_x.svg"}, {"name": "x"}]},
     "matrix.cells 'per_packet_x.svg' has the output name 'per_packet_x.svg', "
     "which is not free"),
]


def _load(kind: str, obj):
    if kind == "config":
        return config_from_obj(obj)
    return resolve_matrix_cells(scenario.matrix_from_obj(obj))


@pytest.mark.parametrize("kind,obj,text", MALFORMED,
                         ids=[text for _, _, text in MALFORMED])
def test_malformed_config_names_the_field(kind, obj, text, monkeypatch):
    monkeypatch.delenv(scenario.SEED_ENV_VAR, raising=False)
    with pytest.raises(ConfigError, match=re.escape(text)):
        _load(kind, obj)


def test_negative_env_seed_is_rejected(monkeypatch):
    monkeypatch.setenv(scenario.SEED_ENV_VAR, "-1")
    with pytest.raises(ConfigError, match="config.seed must be >= 0"):
        config_from_obj(_minimal())


def _schema_names(tp) -> set[str]:
    """Every field name reachable from a config type."""
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return set(hints).union(*map(_schema_names, hints.values()))
    return set().union(*map(_schema_names, typing.get_args(tp)))


_KEYS = sorted(_schema_names(scenario.ScenarioConfig) | {"preset", "typo"})
_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6)
           | st.sampled_from(["none", "1x5", "2x40", "1xinf", "1xnan", "DDDSU",
                              "DDDD", "sim", "real", "BL", "AP", "cpm-etsi"]))
_JSON = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4)),
    max_leaves=16)


def _shaped(tp) -> st.SearchStrategy:
    """JSON in the shape of config type tp, except that any value, at any
    depth, may be replaced by arbitrary JSON."""
    if dataclasses.is_dataclass(tp):
        fields = {name: _shaped(h) for name, h in typing.get_type_hints(tp).items()}
        if tp is scenario.MessageConfig:
            fields["preset"] = _LEAVES
        shape = st.fixed_dictionaries({}, optional=fields)
    elif typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if args[-1] is Ellipsis:
            shape = st.lists(_shaped(args[0]), max_size=3)
        else:
            shape = st.tuples(*map(_shaped, args)).map(list)
    elif typing.get_origin(tp) is not None:  # X | None
        shape = st.one_of(*map(_shaped, typing.get_args(tp)))
    else:
        shape = _LEAVES
    return shape | _JSON


# a valid base under the drawn fields, so that parsing gets past seed and mode
_CONFIGS = _JSON | _shaped(scenario.ScenarioConfig).map(
    lambda obj: _minimal(**obj) if isinstance(obj, dict) else obj)


def _named(cells: list) -> list:
    return [{"name": f"cell-{i}", **cell} if isinstance(cell, dict) else cell
            for i, cell in enumerate(cells)]


def _parses_or_config_error(load, obj) -> None:
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(scenario.SEED_ENV_VAR, raising=False)
        try:
            load(obj)
        except ConfigError:
            pass


@settings(max_examples=400, deadline=None)
@given(obj=_CONFIGS)
def test_any_json_config_parses_or_raises_config_error(obj):
    _parses_or_config_error(config_from_obj, obj)


@settings(max_examples=200, deadline=None)
@given(obj=_JSON | st.fixed_dictionaries(
    {"master_seed": st.integers(min_value=-1) | _LEAVES},
    optional={"defaults": _JSON,
              "cells": st.lists(_CONFIGS, max_size=3).map(_named)}))
def test_any_json_matrix_resolves_or_raises_config_error(obj):
    _parses_or_config_error(lambda o: _load("matrix", o), obj)


@pytest.mark.parametrize("cfg", resolve_matrix_cells(shipped_matrix()) + [
    load_config(CONFIGS_DIR / name)
    for name in ("nominal_example.json", "real_loopback.json")] + [
    config_from_obj(_minimal(name="uniform-relay", agents={
        "relay": {"processing_delay": {"uniform_ns": [1, 2]}}}))],
    ids=lambda cfg: cfg.name)
def test_config_echo_round_trips(cfg, monkeypatch):
    monkeypatch.delenv(scenario.SEED_ENV_VAR, raising=False)
    echo = json.loads(json.dumps(scenario.config_to_obj(cfg)))
    assert config_from_obj(echo) == cfg


def test_relay_echo_without_uniform_key_still_parses():
    # echoes written before processing_delay listed both of its keys
    cfg = config_from_obj(_minimal(
        agents={"relay": {"processing_delay": {"constant_ns": 0}}}))
    assert cfg == config_from_obj(_minimal())
