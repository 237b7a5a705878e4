"""Idle-tick skipping against stepping every tick.

SimWorld.run_until jumps over ticks in which no heap event falls, no CBR
source is live and no flow holds backlog.  These tests build small
randomized worlds with sparse application traffic, CBR sources that stop
mid-run and handover interruptions, run each once through run_until and
once by calling run_tick on every tick, and require the same deliveries,
the same queue accounting and the same final time."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial

import pytest

from cv2x_bench.loadgen import CbrPacketSource
from cv2x_bench.netem import (Cell, Direction, HandoverEvent,
                              LinkSimulator, PriorityClass, SchedulerKind,
                              SimWorld)

TICK = 2_500_000
TICKS = 400
BASE_DELAY = 2_000_000


@dataclass
class Params:
    scheduler: SchedulerKind
    start_ns: int
    ul_capacity_bps: int
    dl_capacity_bps: int
    # (flow_id, direction, rate_bps, packet_bytes, start offset, stop offset)
    sources: list[tuple[str, Direction, int, int, int, int | None]]
    # (offset, flow_id, bits, follow-up offset or None)
    app_events: list[tuple[int, str, int, int | None]]
    handovers: list[HandoverEvent]
    mid_ns: int
    until_ns: int
    stop_after: int


def _random_params(scheduler: SchedulerKind, seed: int) -> Params:
    rng = random.Random(seed)
    start = rng.choice((0, 12_345, 1_700_000_000_000_000_000))
    ul_cap = rng.randrange(4_000_000, 12_000_000)
    dl_cap = rng.randrange(8_000_000, 30_000_000)
    sources = []
    for direction, cap_bps, tag in ((Direction.UPLINK, ul_cap, "ul"),
                                    (Direction.DOWNLINK, dl_cap, "dl")):
        for i in range(rng.choice((1, 2))):
            # overloaded sources leave backlog behind when they stop
            sources.append((f"bg-{tag}-{i}", direction,
                            int(cap_bps * rng.uniform(0.3, 1.5)),
                            rng.randrange(200, 1500),
                            rng.choice((0, rng.randrange(0, 10 * TICK))),
                            rng.randrange(TICKS * TICK // 8, TICKS * TICK // 3)))
    if seed % 2:
        # a rate-0 source never stops and never arrives: it blocks nothing
        sources.append(("bg-ul-idle", Direction.UPLINK, 0, 1000, 0, None))
    app_events = [(k * TICK, "app-ul", 8_000, None)
                  for k in rng.sample(range(TICKS), 3)]  # on a tick boundary
    for _ in range(25):
        follow = rng.choice((None, rng.randrange(0, 3 * TICK),
                             rng.randrange(0, 60 * TICK)))
        app_events.append((rng.randrange(0, TICKS * TICK),
                           rng.choice(("app-ul", "app-dl")),
                           rng.randrange(800, 40_000), follow))
    handovers = []
    t = 0
    for cell in (2, 1):
        t += rng.randrange(20 * TICK, TICKS * TICK // 2)
        handovers.append(HandoverEvent(start + t, 3 - cell, cell,
                                       rng.randrange(TICK // 2, 12 * TICK)))
    # each enqueue is delivered once, and each uplink delivery is answered
    # by a downlink enqueue: stopping after them all is how a scenario drains
    enqueues = {flow_id: 0 for flow_id in ("app-ul", "app-dl")}
    for _, flow_id, _, follow in app_events:
        enqueues[flow_id] += 1 if follow is None else 2
    return Params(scheduler, start, ul_cap, dl_cap, sources, app_events,
                  handovers,
                  mid_ns=start + rng.randrange(TICKS * TICK // 4, TICKS * TICK // 2),
                  until_ns=start + (TICKS + 100) * TICK - rng.randrange(1, TICK),
                  stop_after=(2 * enqueues["app-ul"] + enqueues["app-dl"]
                              if seed % 4 >= 2 else 10**9))


def _build(params: Params):
    link = LinkSimulator([Cell(1), Cell(2)], scheduler=params.scheduler,
                         ul_capacity_bps=params.ul_capacity_bps,
                         dl_capacity_bps=params.dl_capacity_bps)
    link.add_flow("app-ul", Direction.UPLINK, PriorityClass.APPLICATION, 1)
    link.add_flow("app-dl", Direction.DOWNLINK, PriorityClass.APPLICATION, None)
    link.set_mobility(1, params.handovers)
    world = SimWorld(link, base_delay_ns=BASE_DELAY, start_ns=params.start_ns)
    for flow_id, direction, rate, size, start, stop in params.sources:
        link.add_flow(flow_id, direction, PriorityClass.BACKGROUND, 1, 4 * size)
        world.cbr_sources.append(CbrPacketSource(
            flow_id, rate, size, start_ns=params.start_ns + start,
            stop_ns=None if stop is None else params.start_ns + stop))
    tags = itertools.count()
    deliveries = []

    def app_enqueue(flow_id: str, bits: int, follow: int | None, now_ns: int) -> None:
        link.enqueue(flow_id, bits, now_ns, meta={"tag": next(tags)})
        if follow is not None:
            world.schedule(now_ns + follow, partial(app_enqueue, flow_id, bits, None))

    def on_delivery(d) -> None:
        deliveries.append(d)
        # an uplink delivery is answered on the downlink one hop later
        if d.flow_id == "app-ul":
            world.schedule(d.delivery_ns + BASE_DELAY,
                           partial(app_enqueue, "app-dl", d.size_bits, None))

    for offset, flow_id, bits, follow in params.app_events:
        world.schedule(params.start_ns + offset,
                       partial(app_enqueue, flow_id, bits, follow))
    world.on_delivery = on_delivery
    return world, link, deliveries


def _done(deliveries: list, params: Params):
    return lambda: len(deliveries) >= params.stop_after


def _advance(params: Params):
    world, link, deliveries = _build(params)
    world.run_until(params.mid_ns)
    world.run_until(params.until_ns, done=_done(deliveries, params))
    return world, link, deliveries


def _step(params: Params):
    world, link, deliveries = _build(params)
    done = _done(deliveries, params)
    while world.now_ns < params.mid_ns:
        world.run_tick()
    while world.now_ns < params.until_ns and not done():
        world.run_tick()
    return world, link, deliveries


def _accounting(link: LinkSimulator):
    return [(fid, q.offered_bits, q.served_bits, q.dropped_bits, q.backlog_bits)
            for fid, q in link.flows.items()]


@pytest.mark.parametrize("scheduler", [SchedulerKind.BL, SchedulerKind.AP])
@pytest.mark.parametrize("seed", range(8))
def test_skipping_idle_ticks_matches_stepping_every_tick(scheduler, seed):
    params = _random_params(scheduler, seed)
    got_world, got_link, got = _advance(params)
    want_world, want_link, want = _step(params)
    assert got == want
    assert _accounting(got_link) == _accounting(want_link)
    assert got_world.now_ns == want_world.now_ns
    assert got_world.ticks_skipped > 0
    assert want_world.ticks_skipped == 0
    assert got_world.ticks_run + got_world.ticks_skipped == want_world.ticks_run
    # the cases exercise what skipping must get right
    assert any(d.flow_id == "app-dl" for d in want)
    assert any(q.dropped_bits for q in want_link.flows.values())
    assert (len(want) == params.stop_after) == (seed % 4 >= 2)
    assert (params.until_ns - params.start_ns) % TICK != 0


def test_skip_lands_on_the_tick_of_the_next_event():
    link = LinkSimulator([Cell(1)])
    link.add_flow("app", Direction.UPLINK, PriorityClass.APPLICATION, 1)
    world = SimWorld(link, start_ns=7)
    seen = []
    world.on_delivery = seen.append
    world.schedule(7 + 10 * TICK + 1, lambda now: link.enqueue("app", 800, now))
    world.run_until(7 + 10 * TICK)  # the event lies just past until_ns
    assert (world.now_ns, world.ticks_run, world.ticks_skipped) == (7 + 10 * TICK, 0, 10)
    world.run_until(7 + 20 * TICK + 1)  # off the grid: ends on the next tick
    assert [d.delivery_ns for d in seen] == [7 + 11 * TICK]
    assert world.now_ns == 7 + 21 * TICK
    assert (world.ticks_run, world.ticks_skipped) == (1, 20)


def test_live_cbr_source_blocks_skipping():
    link = LinkSimulator([Cell(1)])
    link.add_flow("bg", Direction.UPLINK, PriorityClass.BACKGROUND, 1)
    world = SimWorld(link)
    # the first packet arrives only after 40 ticks, the source stops at 60
    world.cbr_sources.append(CbrPacketSource("bg", 1_000_000, 1000,
                                             start_ns=40 * TICK, stop_ns=60 * TICK))
    world.run_until(100 * TICK)
    assert world.ticks_run == 60  # each packet is served in its arrival tick
    assert world.ticks_skipped == 40
    q = link.flows["bg"]
    assert q.served_bits == q.offered_bits > 0
    # a source without a stop time stays live to the end
    world = SimWorld(link)
    world.cbr_sources.append(CbrPacketSource("bg", 1_000_000, 1000,
                                             start_ns=40 * TICK))
    world.run_until(10 * TICK)
    assert (world.ticks_run, world.ticks_skipped) == (10, 0)
