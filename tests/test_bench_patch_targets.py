"""The benchmark's span tracer (`bench/spans.py`) times the program by
replacing functions and methods of `cv2x_bench` from outside `src/`, each
looked up by name on the class or module that defines it.  These tests
keep those names in place: every install must find all its targets,
uninstall must restore them, and a traced emulator run must pass through
the wrapped layers."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from cv2x_bench import (agents, analysis, broker, clockmodel, loadgen, netem,
                        protocol, scenario)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot() -> list[dict]:
    """The namespaces of every program module and of the classes each
    defines, as plain dicts."""
    spaces = []
    for module in (agents, analysis, broker, clockmodel, loadgen, netem,
                   protocol, scenario):
        spaces.append(dict(vars(module)))
        spaces.extend(dict(vars(value)) for value in vars(module).values()
                      if isinstance(value, type)
                      and value.__module__ == module.__name__)
    return spaces


@pytest.mark.parametrize("install", ["install_emulator", "install_client",
                                     "install_broker"])
def test_tracer_installs_and_uninstalls_cleanly(install):
    spans = _load_spans()
    before = _snapshot()
    tracer = spans.Tracer()
    try:
        getattr(spans, install)(tracer)
        assert _snapshot() != before
    finally:
        tracer.uninstall()
    assert _snapshot() == before


def test_traced_emulator_run_passes_through_the_wrapped_layers():
    spans = _load_spans()
    tracer = spans.Tracer()
    cfg = scenario.config_from_obj({
        "name": "traced", "mode": "sim", "scheduler": "AP", "seed": 3,
        "duration_s": 0.5, "message": {"size_bytes": 1000, "rate_hz": 20.0},
        "load": {"ul": "1x5", "dl": "1x5"}})
    spans.install_emulator(tracer)
    try:
        scenario.run_scenario(cfg)
    finally:
        tracer.uninstall()
    calls = {name: entry[0] for name, entry in tracer.report()["aggregates"].items()}
    # 10 messages, each stamped by the sensor, twice by the relay and once
    # by the vehicle
    assert calls["agents.stamp"] == 40
    for name in ("scenario.cell.traced", "netem.world_tick", "netem.link_tick",
                 "netem.schedule", "netem.enqueue", "agents.on_delivery",
                 "clockmodel.estimate"):
        assert calls.get(name, 0) > 0, name
    # messages go from hop to hop as objects; only a socket needs a frame,
    # or a payload to pad it
    assert (calls.get("protocol.encode", 0) == calls.get("protocol.decode", 0)
            == calls.get("protocol.payload", 0) == 0)
