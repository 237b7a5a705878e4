"""Config parsing, scenario runner determinism, and matrix plumbing."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from cv2x_bench import analysis, scenario
from cv2x_bench.scenario import (ConfigError, config_from_obj, derive_seed,
                                 load_config, load_matrix_config, matrix_to_obj,
                                 resolve_matrix_cells, run_matrix, run_scenario,
                                 table1_matrix)

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
    matrix = table1_matrix()
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
    assert {c.load.ul for c in overload} == {"1x40", "2x40"}
    assert all(c.load.dl == "none" for c in overload)
    assert mobility[0].scheduler == "BL"
    assert mobility[0].message.size_bytes == 10_000


def test_shipped_matrix_file_matches_builder():
    shipped = load_matrix_config(CONFIGS_DIR / "table1_matrix.json")
    assert matrix_to_obj(shipped) == matrix_to_obj(table1_matrix())
    assert len(resolve_matrix_cells(shipped)) == 13


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
