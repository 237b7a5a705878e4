"""The network and agent values of the default scenario config,
`ScenarioConfig()`, for the tests that build the emulator and the agents
directly.  The library declares no defaults for them: the config is where
each is written."""

from __future__ import annotations

from typing import Sequence

from cv2x_bench.netem import Cell, LinkSimulator, SchedulerKind
from cv2x_bench.scenario import ScenarioConfig

_CONFIG = ScenarioConfig()
_NETWORK = _CONFIG.network

TICK_NS = _NETWORK.tick_ns
SCHEDULER = SchedulerKind(_CONFIG.scheduler)
UL_CAPACITY_BPS = _NETWORK.ul_capacity_bps
DL_CAPACITY_BPS = _NETWORK.dl_capacity_bps
BASE_DELAY_NS = _NETWORK.base_delay_ns
QUEUE_CAP_BYTES = _CONFIG.load.queue_cap_bytes
HYSTERESIS_M = _NETWORK.handover.hysteresis_m
INTERRUPTION_NS = _NETWORK.handover.interruption_ns
NTP_PERIOD_NS = _CONFIG.agents.sensor.ntp.period_ns
PROCESSING = _CONFIG.agents.relay.processing_delay


def make_link(cells: Sequence[Cell], **overrides) -> LinkSimulator:
    """A LinkSimulator over `cells` with the config's tick, scheduler and
    capacities, each replaced by its keyword in `overrides` if given."""
    return LinkSimulator(cells, **{"tick_ns": TICK_NS, "scheduler": SCHEDULER,
                                   "ul_capacity_bps": UL_CAPACITY_BPS,
                                   "dl_capacity_bps": DL_CAPACITY_BPS,
                                   **overrides})
