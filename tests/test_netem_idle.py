"""Tick skipping against stepping every tick.

SimWorld.run_until jumps over ticks in which no heap event falls and no
flow holds backlog, unless a live CBR source could overflow a queue or a
cell's budget there; under AP it advances ticks in which only background
flows fed by CBR sources hold packets as one span.  These tests build
small randomized worlds with sparse application traffic, CBR sources that
overload the link and stop mid-run or that always fit, and handover
interruptions, run each once through run_until and once by calling
run_tick on every tick, and require the same deliveries, the same queue
accounting and the same final time; spans are also checked alone, down to
every queued run."""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cv2x_bench import netem
from cv2x_bench.loadgen import CbrPacketSource
from cv2x_bench.netem import (Cell, Direction, HandoverEvent,
                              InvariantViolation, LinkSimulator, PriorityClass,
                              SchedulerKind, SimWorld)
from config_defaults import BASE_DELAY_NS, QUEUE_CAP_BYTES, TICK_NS, make_link
from per_packet import accounting

TICK = TICK_NS
TICKS = 400


class Source(NamedTuple):
    """A CBR source feeding its own background flow, capped at 4 packets."""

    flow_id: str
    direction: Direction
    rate_bps: int
    packet_bytes: int
    start: int  # offset from the world's start
    stop: int | None
    cell_id: int | None = 1


@dataclass
class Params:
    scheduler: SchedulerKind
    start_ns: int
    ul_capacity_bps: int
    dl_capacity_bps: int
    sources: list[Source]
    # (offset, flow_id, bits, follow-up offset or None)
    app_events: list[tuple[int, str, int, int | None]]
    handovers: list[HandoverEvent]
    mid_ns: int
    until_ns: int
    stop_after: int


def _fits(seed: int) -> bool:
    """Whether every source of the seed's world fits one tick."""
    return seed >= 8


def _random_params(scheduler: SchedulerKind, seed: int) -> Params:
    rng = random.Random(seed)
    start = rng.choice((0, 12_345, 1_700_000_000_000_000_000))
    ul_cap = rng.randrange(4_000_000, 12_000_000)
    dl_cap = rng.randrange(8_000_000, 30_000_000)
    sources = []
    for direction, cap_bps, tag in ((Direction.UPLINK, ul_cap, "ul"),
                                    (Direction.DOWNLINK, dl_cap, "dl")):
        count = rng.choice((1, 2))
        for i in range(count):
            if not _fits(seed):
                # overloaded sources leave backlog behind when they stop
                sources.append(Source(f"bg-{tag}-{i}", direction,
                                      int(cap_bps * rng.uniform(0.3, 1.5)),
                                      rng.randrange(200, 1500),
                                      rng.choice((0, rng.randrange(0, 10 * TICK))),
                                      rng.randrange(TICKS * TICK // 8, TICKS * TICK // 3)))
                continue
            # the fullest tick holds exactly `most` packets, which fit the
            # queue cap and, with the other sources, the budget; the source
            # is still live at mid_ns
            size = rng.randrange(200, 600)
            most = min(4, cap_bps * TICK // 10**9 // count // (8 * size))
            rate = rng.randrange(max(1, -(-(most - 1) * 8 * size * 10**9 // TICK)),
                                 -(-most * 8 * size * 10**9 // TICK))
            sources.append(Source(f"bg-{tag}-{i}", direction, rate, size,
                                  rng.choice((0, rng.randrange(0, 10 * TICK))),
                                  rng.choice((None, rng.randrange(TICKS * TICK // 2,
                                                                  TICKS * TICK)))))
    if seed % 2:
        # a rate-0 source never stops and never arrives: it blocks nothing
        sources.append(Source("bg-ul-idle", Direction.UPLINK, 0, 1000, 0, None))
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
    link = make_link([Cell(1), Cell(2)], scheduler=params.scheduler,
                     ul_capacity_bps=params.ul_capacity_bps,
                     dl_capacity_bps=params.dl_capacity_bps)
    link.add_flow("app-ul", Direction.UPLINK, PriorityClass.APPLICATION, 1, None)
    link.add_flow("app-dl", Direction.DOWNLINK, PriorityClass.APPLICATION, None, None)
    link.set_mobility(1, params.handovers)
    for src in params.sources:
        link.add_flow(src.flow_id, src.direction, PriorityClass.BACKGROUND,
                      src.cell_id, 4 * src.packet_bytes)
    world = SimWorld(link, start_ns=params.start_ns,
                     cbr_sources=[CbrPacketSource(
                         src.flow_id, src.rate_bps, src.packet_bytes,
                         start_ns=params.start_ns + src.start,
                         stop_ns=None if src.stop is None else params.start_ns + src.stop)
                         for src in params.sources])
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
            world.schedule(d.delivery_ns + BASE_DELAY_NS,
                           partial(app_enqueue, "app-dl", d.size_bits, None))

    for offset, flow_id, bits, follow in params.app_events:
        world.schedule(params.start_ns + offset,
                       partial(app_enqueue, flow_id, bits, follow))
    world.on_delivery = on_delivery
    return world, link, deliveries


def _done(deliveries: list, params: Params):
    return lambda: len(deliveries) >= params.stop_after


def _advance(params: Params):
    """Run through run_until; also returns the ticks skipped by mid_ns."""
    world, link, deliveries = _build(params)
    world.run_until(params.mid_ns)
    skipped_by_mid = world.ticks_skipped
    world.run_until(params.until_ns, done=_done(deliveries, params))
    return world, link, deliveries, skipped_by_mid


def _step(params: Params):
    world, link, deliveries = _build(params)
    done = _done(deliveries, params)
    while world.now_ns < params.mid_ns:
        world.run_tick()
    while world.now_ns < params.until_ns and not done():
        world.run_tick()
    return world, link, deliveries


def _matches_stepping(params: Params):
    """Run the world both ways and require the same outcome; returns the
    skipping world, its link, the deliveries and the ticks it skipped by
    mid_ns."""
    got_world, got_link, got, skipped_by_mid = _advance(params)
    want_world, want_link, want = _step(params)
    assert got == want
    assert accounting(got_link) == accounting(want_link)
    assert got_world.now_ns == want_world.now_ns
    assert want_world.ticks_skipped == 0
    assert got_world.ticks_run + got_world.ticks_skipped == want_world.ticks_run
    return got_world, got_link, got, skipped_by_mid


@pytest.mark.parametrize("scheduler", [SchedulerKind.BL, SchedulerKind.AP])
@pytest.mark.parametrize("seed", range(16))
def test_skipping_idle_ticks_matches_stepping_every_tick(scheduler, seed):
    params = _random_params(scheduler, seed)
    world, link, deliveries, skipped_by_mid = _matches_stepping(params)
    assert world.ticks_skipped > 0
    # the cases exercise what skipping must get right
    assert any(d.flow_id == "app-dl" for d in deliveries)
    assert (len(deliveries) == params.stop_after) == (seed % 4 >= 2)
    assert (params.until_ns - params.start_ns) % TICK != 0
    if _fits(seed):
        # every source is live from its start to past mid_ns, so ticks
        # were skipped while one was live
        assert skipped_by_mid > max(s.start for s in params.sources) // TICK + 1
    else:
        assert any(q.dropped_bits for q in link.flows.values())


def _with_sources(scheduler: SchedulerKind, ul_capacity_bps: int,
                  *sources: Source) -> Params:
    """Seed 1's world (overloaded until the end, two handovers) with its
    uplink capacity and sources replaced."""
    return dataclasses.replace(_random_params(scheduler, 1),
                               ul_capacity_bps=ul_capacity_bps,
                               sources=list(sources))


# 1000-byte packets at 9 Mbps: 2 or 3 in a tick (2.5 ms x 9 Mbps = 2.8125
# packets), so the fullest tick is 24,000 bits, an uplink budget at 9.6 Mbps
_NINE_MBPS = Source("bg-ul-0", Direction.UPLINK, 9_000_000, 1000, 0, None)


@pytest.mark.parametrize("scheduler", [SchedulerKind.BL, SchedulerKind.AP])
def test_a_source_whose_fullest_tick_is_the_budget_is_skipped(scheduler):
    world, *_ = _matches_stepping(_with_sources(scheduler, 9_600_000, _NINE_MBPS))
    assert world.ticks_skipped > 0  # the source is live all along


@pytest.mark.parametrize("scheduler", [SchedulerKind.BL, SchedulerKind.AP])
def test_a_source_one_bit_over_the_budget_runs_every_tick(scheduler):
    # 9,599,600 bps is 23,999 bits a tick: BL runs every tick, and AP
    # advances the ticks without an application packet as spans
    world, *_ = _matches_stepping(_with_sources(scheduler, 9_599_600, _NINE_MBPS))
    if scheduler is SchedulerKind.BL:
        assert world.ticks_skipped == 0
    else:
        assert world.ticks_skipped > 0


@pytest.mark.parametrize("scheduler", [SchedulerKind.BL, SchedulerKind.AP])
def test_a_background_flow_that_follows_the_terminal_blocks_skipping(scheduler):
    # one packet a tick at most, but a handover suspends the flow
    source = Source("bg-dl-0", Direction.DOWNLINK, 1_000_000, 1000, 0, None,
                    cell_id=None)
    world, link, *_ = _matches_stepping(_with_sources(scheduler, 9_600_000, source))
    assert world.ticks_skipped == 0
    assert link.flows["bg-dl-0"].offered_bits > 0


def test_skip_lands_on_the_tick_of_the_next_event():
    link = make_link([Cell(1)])
    link.add_flow("app", Direction.UPLINK, PriorityClass.APPLICATION, 1, None)
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


def _lone_source(rate_bps: int, cap_bytes: int = QUEUE_CAP_BYTES,
                 stop_ns: int | None = 60 * TICK, until_ns: int = 100 * TICK):
    """One source of 1000-byte packets on a 40 Mbps uplink (100,000 bits a
    tick), its first packet after 40 ticks, run to until_ns through
    run_until and by stepping every tick; returns each world with its
    flow's (offered, served, dropped, backlog) bits."""
    runs = []
    for skip in (True, False):
        link = make_link([Cell(1)])
        q = link.add_flow("bg", Direction.UPLINK, PriorityClass.BACKGROUND, 1,
                          cap_bytes)
        world = SimWorld(link, cbr_sources=[CbrPacketSource(
            "bg", rate_bps, 1000, start_ns=40 * TICK, stop_ns=stop_ns)])
        if skip:
            world.run_until(until_ns)
        while world.now_ns < until_ns:
            world.run_tick()
        runs.append((world, (q.offered_bits, q.served_bits, q.dropped_bits,
                              q.backlog_bits)))
    return runs


def test_live_cbr_source_that_fits_is_skipped():
    # at most one packet a tick: each is served in its arrival tick
    (world, got), (stepped, want) = _lone_source(1_000_000)
    assert (world.ticks_run, world.ticks_skipped) == (0, 100)
    assert stepped.ticks_run == 100
    assert got == want
    offered, served, _, _ = got
    # packets 0 .. 6 arrive in the 50 ms the source is live
    assert served == offered == 7 * 8000


def test_live_cbr_source_blocks_skipping():
    # a source that can overflow runs every tick until it stops
    for rate_bps, cap_bytes in ((39_000_000, 1_000_000),  # 13 packets > the budget
                                (10_000_000, 3000)):  # 4 packets > the cap
        (world, got), (stepped, want) = _lone_source(rate_bps, cap_bytes)
        assert (world.ticks_run, world.ticks_skipped) == (60, 40)
        assert got == want
    offered, served, dropped, backlog = got
    assert dropped == offered - served > 0 == backlog
    # a source without a stop time stays live to the end
    (world, got), _ = _lone_source(39_000_000, stop_ns=None, until_ns=10 * TICK)
    assert (world.ticks_run, world.ticks_skipped) == (10, 0)


def _span_world(start_ns: int, sources, warm_ticks: int):
    """An AP world with empty application flows and `sources`, each
    (rate_bps, packet_bytes, cap_packets, start offset, stop offset or None,
    cell, direction) feeding its own background flow, stepped `warm_ticks`
    ticks."""
    link = make_link([Cell(1), Cell(2)], scheduler=SchedulerKind.AP,
                     ul_capacity_bps=4_000_000, dl_capacity_bps=8_000_000)
    link.add_flow("app-ul", Direction.UPLINK, PriorityClass.APPLICATION, 1, None)
    link.add_flow("app-dl", Direction.DOWNLINK, PriorityClass.APPLICATION, None, None)
    cbr_sources = []
    for i, (rate, size, cap, start, stop, cell, direction) in enumerate(sources):
        link.add_flow(f"bg{i}", direction, PriorityClass.BACKGROUND, cell,
                      cap * size)
        cbr_sources.append(CbrPacketSource(
            f"bg{i}", rate, size, start_ns=start_ns + start,
            stop_ns=None if stop is None else start_ns + stop))
    world = SimWorld(link, start_ns=start_ns, cbr_sources=cbr_sources)
    for _ in range(warm_ticks):
        world.run_tick()
    return world, link


def _queued_runs(link: LinkSimulator) -> dict[str, list[tuple]]:
    return {flow_id: [(r.first, r.count, r.size_bits, r.remaining_bits, r.rank,
                       r.src.flow_id, r.enqueue_ns, r.meta) for r in q.packets]
            for flow_id, q in link.flows.items()}


def _carried(world: SimWorld) -> list[tuple[str, int]]:
    """Each source's flow and next packet number, which must be its
    count_before(now_ns)."""
    assert world._next == [src.count_before(world.now_ns)
                           for src in world.cbr_sources]
    return [(src.flow_id, n) for src, n in zip(world.cbr_sources, world._next)]


_SPAN_SOURCES = st.lists(st.tuples(
    st.integers(1_000_000, 9_000_000),  # rate_bps
    st.integers(100, 1500),  # packet bytes
    st.integers(1, 12),  # queue cap in packets
    st.integers(0, 10 * TICK),  # start offset
    st.one_of(st.none(), st.integers(10 * TICK, 100 * TICK)),  # stop offset
    st.sampled_from([1, 1, 2]),  # cell
    st.sampled_from([Direction.UPLINK, Direction.UPLINK, Direction.DOWNLINK])),
    min_size=1, max_size=3)


@settings(max_examples=120, deadline=None)
@given(start_ns=st.sampled_from([0, 12_345]), sources=_SPAN_SOURCES,
       warm_ticks=st.integers(12, 40), span_ticks=st.integers(1, 60))
# two flows share the uplink of cell 1: their queues hold runs cut by tail
# drop and a partly served head when the span starts, and one source stops
# inside it
@example(start_ns=0,
         sources=[(6_000_000, 1000, 8, 0, None, 1, Direction.UPLINK),
                  (3_000_000, 700, 5, TICK // 3, 30 * TICK, 1, Direction.UPLINK)],
         warm_ticks=20, span_ticks=25)
def test_an_ap_span_matches_stepping_tick_by_tick(start_ns, sources, warm_ticks,
                                                  span_ticks):
    world, link = _span_world(start_ns, sources, warm_ticks)
    want_world, want_link = _span_world(start_ns, sources, warm_ticks)
    assert _queued_runs(link) == _queued_runs(want_link)
    # a backlog rules out the idle skip, so run_until advances a span
    assume(any(q.backlog_bits for q in link.flows.values()))
    world.run_until(world.now_ns + span_ticks * TICK)
    for _ in range(span_ticks):
        want_world.run_tick()
    assert (world.ticks_run, world.ticks_skipped) == (warm_ticks, span_ticks)
    assert accounting(link) == accounting(want_link)
    assert _queued_runs(link) == _queued_runs(want_link)
    assert _carried(world) == _carried(want_world)
    assert world.now_ns == want_world.now_ns


def _fed_queue_with_an_application_packet():
    """An AP world whose source overloads its uplink flow, stepped until the
    queue holds backlog, with one application packet then enqueued into that
    CBR-fed flow; returns the world, its link and its deliveries."""
    world, link = _span_world(0, [(8_000_000, 1000, 12, 0, None, 1,
                                   Direction.UPLINK)], warm_ticks=4)
    deliveries = []
    world.on_delivery = deliveries.append
    assert link.flows["bg0"].backlog_bits
    assert link.enqueue("bg0", 4_000, world.now_ns, meta={"tag": "app"})
    return world, link, deliveries


def test_an_application_packet_in_a_fed_queue_is_delivered_as_when_stepping():
    # a span serves only background runs, so an application packet in a fed
    # queue rules it out: the packet's tick must run and deliver it
    world, link, got = _fed_queue_with_an_application_packet()
    want_world, want_link, want = _fed_queue_with_an_application_packet()
    world.run_until(world.now_ns + 30 * TICK)
    for _ in range(30):
        want_world.run_tick()
    assert [d.meta for d in want] == [{"tag": "app"}]
    assert got == want
    assert accounting(link) == accounting(want_link)
    assert _queued_runs(link) == _queued_runs(want_link)
    assert world.now_ns == want_world.now_ns
    # the ticks after the delivery are a span again
    assert world.ticks_skipped > 0


# each per-tick check of _advance_span raises on state that breaks only it,
# from inside a span: the other checks hold, so a span without that check
# raises nothing, and no tick of these worlds is run another way

def _overloaded_span():
    """An AP world whose one source offers twice the uplink's 10,000 bits a
    tick, stepped until its queue holds backlog and then advanced as a span;
    returns the world and the source's flow."""
    world, link = _span_world(0, [(8_000_000, 1000, 12, 0, None, 1,
                                   Direction.UPLINK)], warm_ticks=4)
    world.run_until(world.now_ns + 4 * TICK)
    assert (world.ticks_run, world.ticks_skipped) == (4, 4)
    return world, link.flows["bg0"]


def _raises_in_a_span(world: SimWorld, match: str) -> None:
    ticks = (world.ticks_run, world.ticks_skipped)
    with pytest.raises(InvariantViolation, match=match) as excinfo:
        world.run_until(world.now_ns + 4 * TICK)
    assert (world.ticks_run, world.ticks_skipped) == ticks
    assert "_advance_span" in [entry.name for entry in excinfo.traceback]


def test_a_span_serving_over_the_budget_raises(monkeypatch):
    world, _ = _overloaded_span()
    serve = netem._serve_waterfill

    def over_reported(queues, budget, completed):
        return serve(queues, budget, completed) + budget

    monkeypatch.setattr(netem, "_serve_waterfill", over_reported)
    _raises_in_a_span(world, "over budget")


def test_a_span_leaving_budget_unserved_raises(monkeypatch):
    world, _ = _overloaded_span()
    serve = netem._serve_waterfill

    def one_bit_short(queues, budget, completed):
        return serve(queues, budget - 1, completed)

    monkeypatch.setattr(netem, "_serve_waterfill", one_bit_short)
    _raises_in_a_span(world, "work conservation broken")


def test_unbalanced_accounting_in_a_span_raises():
    world, q = _overloaded_span()
    q.offered_bits += 1  # one bit offered but never queued
    _raises_in_a_span(world, "conservation broken for flow bg0")


def test_a_backlog_over_the_cap_in_a_span_raises():
    world, q = _overloaded_span()
    q.cap_bits = world.link.budgets[Direction.UPLINK]  # below the backlog left
    _raises_in_a_span(world, "queue cap exceeded for flow bg0")
