"""The batched background path against a per-packet reference.

SimWorld enqueues each source's arrivals of a tick as one run, keyed by
arrival time, and serves runs by arithmetic.  These tests replay small
randomized worlds through a reference event loop that schedules every
arrival on the heap and feeds it to LinkSimulator.enqueue one packet at a
time, and require the same per-tick queue accounting and the same
application deliveries."""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cv2x_bench import netem
from cv2x_bench.loadgen import CbrPacketSource
from cv2x_bench.netem import (Cell, Delivery, Direction,
                              LinkSimulator, PriorityClass, SchedulerKind,
                              SimWorld)

from config_defaults import QUEUE_CAP_BYTES, TICK_NS, make_link
from per_packet import PerPacketWorld, accounting

TICK = TICK_NS
TICKS = 120
APP_FLOWS = {"app-ul": Direction.UPLINK, "app-dl": Direction.DOWNLINK}


@dataclass
class Source:
    flow_id: str
    direction: Direction
    rate_bps: int
    packet_bytes: int
    start_ns: int
    stop_ns: int | None
    cap_bytes: int

    def build(self) -> CbrPacketSource:
        return CbrPacketSource(self.flow_id, self.rate_bps, self.packet_bytes,
                               start_ns=self.start_ns, stop_ns=self.stop_ns)


@dataclass
class Params:
    scheduler: SchedulerKind
    ul_capacity_bps: int
    dl_capacity_bps: int
    sources: list[Source]
    # (time_ns, flow_id, bits, follow-up offset or None): the follow-up is
    # an enqueue the event schedules while its tick dispatches
    app_events: list[tuple[int, str, int, int | None]]


def _random_params(scheduler: SchedulerKind, seed: int) -> Params:
    """2-4 sources per direction.  A source after the first has its own
    rate, or the rate and packet size of the one before it, arriving in
    lockstep with it or phase-shifted; the seed fixes which of the two the
    uplink's second source is."""
    rng = random.Random(seed)
    ul_cap = rng.randrange(4_000_000, 12_000_000)
    dl_cap = rng.randrange(8_000_000, 30_000_000)
    sources: list[Source] = []
    for direction, cap_bps, tag in ((Direction.UPLINK, ul_cap, "ul"),
                                    (Direction.DOWNLINK, dl_cap, "dl")):
        count = rng.randrange(2, 5)
        # the uplink is overloaded so its small queues fill and drop
        total = cap_bps * (rng.uniform(1.2, 2.0) if direction is Direction.UPLINK
                           else rng.uniform(0.5, 1.5))
        for i in range(count):
            kind = rng.choice(("own", "lockstep", "shifted"))
            if i == 1 and direction is Direction.UPLINK:
                kind = ("lockstep", "shifted")[seed % 2]
            if i == 0 or kind == "own":
                rate = int(total / count * rng.uniform(0.7, 1.3))
                size = rng.randrange(200, 1500)
                start = rng.choice((0, rng.randrange(0, 3 * TICK)))
                stop = rng.choice((None, rng.randrange(TICKS * TICK // 2,
                                                       TICKS * TICK)))
            elif kind == "shifted":
                interval = size * 8 * 1_000_000_000 // rate
                start += rng.randrange(1, max(2, interval))
            sources.append(Source(f"bg-{tag}-{i}", direction, rate, size,
                                  start, stop,
                                  cap_bytes=size * rng.randrange(2, 6)
                                  + rng.randrange(0, size)))
    return Params(scheduler, ul_cap, dl_cap, sources,
                  _app_events(rng, sources))


def _opposite_direction_params(scheduler: SchedulerKind) -> Params:
    """Two uplink sources in lockstep and two downlink sources at their
    rate and packet size, half an interval later: the arrivals of the two
    directions interleave one by one."""
    rng = random.Random(99)
    sources = []
    for direction, tag, start in ((Direction.UPLINK, "ul", 0),
                                  (Direction.DOWNLINK, "dl", 500_000)):
        for i in range(2):
            # 8,000-bit packets every 1 ms: 16 Mbps offered per direction
            sources.append(Source(f"bg-{tag}-{i}", direction, 8_000_000, 1000,
                                  start, None, cap_bytes=3_500))
    return Params(scheduler, 10_000_000, 14_000_000, sources,
                  _app_events(rng, sources))


def _app_events(rng: random.Random,
                sources: list[Source]) -> list[tuple[int, str, int, int | None]]:
    arrivals = sorted({t for s in sources
                       for t, _ in s.build().arrivals(0, TICKS * TICK)})
    app_events = []
    for _ in range(60):
        flow = rng.choice(sorted(APP_FLOWS))
        bits = rng.randrange(800, 20_000)
        if rng.random() < 0.8:
            # on a CBR arrival instant, sometimes with a follow-up enqueue
            # on the same or a later arrival instant of the same tick
            t = rng.choice(arrivals)
            same_tick = [u - t for u in arrivals if t <= u < (t // TICK + 1) * TICK]
            follow = rng.choice(same_tick) if rng.random() < 0.5 else None
        else:
            t = rng.randrange(0, TICKS * TICK)
            follow = None
        app_events.append((t, flow, bits, follow))
    return app_events


def _run(params: Params, world_cls) -> tuple[list, list, LinkSimulator, int]:
    """Per-tick accounting, per-tick application deliveries, the link, and
    the number of FlowQueue.admit calls on the background queues: the CBR
    sources' admissions (the reference admits packet by packet)."""
    link = make_link([Cell(1)], scheduler=params.scheduler,
                     ul_capacity_bps=params.ul_capacity_bps,
                     dl_capacity_bps=params.dl_capacity_bps)
    runs = 0

    def counted(admit):
        def counted_admit(*args) -> int:
            nonlocal runs
            runs += 1
            return admit(*args)
        return counted_admit

    for flow_id, direction in APP_FLOWS.items():
        link.add_flow(flow_id, direction, PriorityClass.APPLICATION, 1, None)
    for s in params.sources:
        q = link.add_flow(s.flow_id, s.direction, PriorityClass.BACKGROUND, 1,
                          s.cap_bytes)
        q.admit = counted(q.admit)
    world = world_cls(link, cbr_sources=[s.build() for s in params.sources])
    tags = itertools.count()

    def app_enqueue(flow_id: str, bits: int, follow: int | None, now_ns: int) -> None:
        link.enqueue(flow_id, bits, now_ns, meta={"tag": next(tags)})
        if follow is not None:
            world.schedule(now_ns + follow, partial(app_enqueue, flow_id, bits, None))

    def on_delivery(d) -> None:
        # an uplink delivery triggers a downlink reply at the next tick's
        # start, pending before that tick dispatches
        if d.flow_id == "app-ul":
            world.schedule(d.delivery_ns, partial(app_enqueue, "app-dl",
                                                  d.size_bits, None))

    for t, flow, bits, follow in params.app_events:
        world.schedule(t, partial(app_enqueue, flow, bits, follow))
    world.on_delivery = on_delivery
    per_tick, app_deliveries = [], []
    for _ in range(TICKS):
        deliveries = world.run_tick()
        per_tick.append(accounting(link))
        app_deliveries.append([d for d in deliveries if d.flow_id in APP_FLOWS])
    return per_tick, app_deliveries, link, runs


def _check_against_reference(params: Params) -> None:
    got_accounting, got_deliveries, link, runs = _run(params, SimWorld)
    want_accounting, want_deliveries, _, _ = _run(params, PerPacketWorld)
    for tick, (got, want) in enumerate(zip(got_accounting, want_accounting)):
        assert got == want, f"tick {tick}"
    for tick, (got, want) in enumerate(zip(got_deliveries, want_deliveries)):
        assert got == want, f"tick {tick}"
    # one admission per source and tick with arrivals, however the sources
    # interleave, and some while the sources are live
    arriving = sum(src.count_before(tick * TICK) < src.count_before((tick + 1) * TICK)
                   for src in map(Source.build, params.sources)
                   for tick in range(TICKS))
    assert 0 < runs == arriving
    # the cases exercise what the batching must get right
    assert any(d for d in want_deliveries)
    assert any(q.dropped_bits for q in link.flows.values())
    assert any(follow is not None for *_, follow in params.app_events)


@pytest.mark.parametrize("scheduler", [SchedulerKind.BL, SchedulerKind.AP])
@pytest.mark.parametrize("seed", range(8))
def test_batched_world_matches_per_packet_reference(scheduler, seed):
    params = _random_params(scheduler, seed)
    ul = [s for s in params.sources if s.direction is Direction.UPLINK]
    assert 2 <= len(ul) <= 4 and 2 <= len(params.sources) - len(ul) <= 4
    # the uplink's first two sources share a rate, in lockstep or shifted
    assert (ul[0].rate_bps, ul[0].packet_bytes) == (ul[1].rate_bps, ul[1].packet_bytes)
    assert (ul[0].start_ns == ul[1].start_ns) == (seed % 2 == 0)
    _check_against_reference(params)


@pytest.mark.parametrize("scheduler", [SchedulerKind.BL, SchedulerKind.AP])
def test_interleaved_directions_match_per_packet_reference(scheduler):
    _check_against_reference(_opposite_direction_params(scheduler))


def test_identical_sources_alternate_packet_by_packet():
    # two sources at one rate arrive at the same instants; each source's
    # arrivals of a tick are one run, and BL serves the two in turn, the
    # first source first at each instant
    link = make_link([Cell(1)], scheduler=SchedulerKind.BL,
                     ul_capacity_bps=4_000_000)
    for i in range(2):
        link.add_flow(f"bg{i}", Direction.UPLINK, PriorityClass.BACKGROUND, 1,
                      QUEUE_CAP_BYTES)
    world = SimWorld(link, cbr_sources=[CbrPacketSource(f"bg{i}", 8_000_000, 1000)
                                        for i in range(2)])

    def queued() -> list:
        return [[(e.first, e.count, e.remaining_bits)
                 for e in link.flows[f"bg{i}"].packets] for i in range(2)]

    world.run_tick()  # arrivals at 0, 1 and 2 ms; a 10,000-bit budget
    # served: bg0's packet 0, then 2,000 bits of bg1's packet 0
    assert queued() == [[(1, 2, 8_000)], [(0, 3, 6_000)]]
    world.run_tick()  # arrivals at 3 and 4 ms extend each run
    # served: the rest of bg1's packet 0, then 4,000 bits of bg0's packet 1
    assert queued() == [[(1, 4, 4_000)], [(1, 4, 8_000)]]


def test_single_source_tick_is_one_run():
    link = make_link([Cell(1)], scheduler=SchedulerKind.BL,
                     ul_capacity_bps=400)
    world = SimWorld(link, cbr_sources=[CbrPacketSource("bg", 40_000_000, 1400)])
    link.add_flow("bg", Direction.UPLINK, PriorityClass.BACKGROUND, 1, 10_000)
    world.run_tick()
    q = link.flows["bg"]
    # 9 arrivals, 7 fit the 80,000-bit cap, 1 bit was served
    assert [(e.first, e.count) for e in q.packets] == [(0, 7)]
    assert q.packets[0].remaining_bits == 11_199
    assert (q.offered_bits, q.dropped_bits) == (9 * 11_200, 2 * 11_200)


def test_application_packets_and_runs_never_merge():
    # the first application packet is number 1 and the run's packets of its
    # size are numbered 2 to 4, so by packet numbers alone the run would
    # extend it; neither a run nor a packet merges into an application
    # packet, and a packet never merges into a run
    link = make_link([Cell(1)], scheduler=SchedulerKind.BL,
                     ul_capacity_bps=1_000_000)
    link.add_flow("ue", Direction.UPLINK, PriorityClass.APPLICATION, 1, None)
    src = CbrPacketSource("ue", 800_000, 100)  # 800-bit packets
    assert link.enqueue("ue", 800, 5, meta={"tag": "first"}) is True
    assert link.enqueue_run(src, 0, 2, 5) == 3
    assert link.enqueue("ue", 800, 6, meta={"tag": "second"}) is True
    q = link.flows["ue"]
    assert [(e.first, e.count, e.enqueue_ns) for e in q.packets] == [
        (1, 1, 5), (2, 3, None), (2, 1, 6)]
    # a 2,500-bit budget per tick: the first packet and 1,700 bits of the run,
    # then the rest of the run and the second packet
    assert link.run_tick(0) == [Delivery("ue", 800, 5, TICK, 1, {"tag": "first"})]
    assert [(e.first, e.count, e.remaining_bits) for e in q.packets] == [
        (4, 1, 700), (2, 1, 800)]
    assert link.run_tick(TICK) == [
        Delivery("ue", 800, 6, 2 * TICK, 1, {"tag": "second"})]
    assert not q.packets and q.served_bits == 5 * 800


def test_tail_drop_at_the_cap_boundary():
    # an 80,000-bit cap: a packet or run that fills it exactly is kept, one
    # bit more is dropped, for single packets and for runs alike
    link = make_link([Cell(1)], scheduler=SchedulerKind.BL,
                     ul_capacity_bps=400)
    link.add_flow("bg", Direction.UPLINK, PriorityClass.BACKGROUND, 1, 10_000)
    assert link.enqueue("bg", 40_000, 0) is True
    assert link.enqueue("bg", 40_001, 0) is False
    # 13,336-bit packets: two fill 26,672 of the 40,000 bits left
    assert link.enqueue_run(CbrPacketSource("bg", 1_000_000, 1667), 0, 0, 3) == 2
    assert link.enqueue("bg", 13_328, 0) is True
    assert link.enqueue_run(CbrPacketSource("bg", 1_000_000, 1), 1, 0, 1) == 0
    q = link.flows["bg"]
    assert (q.backlog_bits, q.dropped_bits) == (80_000, 40_001 + 13_336 + 8)


def test_arrivals_on_tick_edges_are_enqueued_once():
    # the sources' packets fall on the first and on the last instant of
    # ticks, where an off-by-one window start would drop or repeat one
    link = make_link([Cell(1)], scheduler=SchedulerKind.BL,
                     ul_capacity_bps=400)
    starts = {"edge-end": TICK - 1, "edge-start": TICK}
    arrived = dict.fromkeys(starts, 0)
    references = []
    for flow_id, start_ns in starts.items():
        link.add_flow(flow_id, Direction.UPLINK, PriorityClass.BACKGROUND, 1,
                      QUEUE_CAP_BYTES)
        references.append(CbrPacketSource(flow_id, 8_000_000, 1250,
                                          start_ns=start_ns))
    world = SimWorld(link, cbr_sources=[
        CbrPacketSource(flow_id, 8_000_000, 1250, start_ns=start_ns)
        for flow_id, start_ns in starts.items()])
    for tick in range(8):
        world.run_tick()
        for ref in references:
            arrived[ref.flow_id] += len(list(ref.arrivals(tick * TICK,
                                                          (tick + 1) * TICK)))
            assert (link.flows[ref.flow_id].offered_bits
                    == arrived[ref.flow_id] * 10_000), (tick, ref.flow_id)
    assert arrived == {"edge-end": 15, "edge-start": 14}


# -- BL merges over interleaved source runs -----------------------------------

class Pass(NamedTuple):
    """One _serve_fifo call: its queues, its budget, the bits it served,
    the application packets it completed as (flow, enqueue_ns, rank), and
    the queued runs (first, count, remaining_bits) of every queue holding
    packets, before and after."""
    queues: list
    budget: int
    served: int
    completed: list[tuple[str, int, int]]
    before: dict[str, list[tuple[int, int, int]]]
    after: dict[str, list[tuple[int, int, int]]]


def _queued(queues) -> dict[str, list[tuple[int, int, int]]]:
    return {q.flow_id: [(e.first, e.count, e.remaining_bits) for e in q.packets]
            for q in queues if q.packets}


@pytest.fixture
def passes(monkeypatch) -> list[Pass]:
    """Every _serve_fifo call, in order; _step_both keeps the SimWorld's."""
    calls = []
    serve_fifo = netem._serve_fifo

    def recorded(queues, budget, completed, bulk):
        before = _queued(queues)
        done = len(completed)
        served = serve_fifo(queues, budget, completed, bulk)
        calls.append(Pass(queues, budget, served,
                          [(q.flow_id, e.enqueue_ns, e.rank)
                           for q, e in completed[done:]],
                          before, _queued(queues)))
        return served

    monkeypatch.setattr(netem, "_serve_fifo", recorded)
    return calls


def _world(world_cls, ul_capacity_bps: int, sources,
           cap_bytes: int = QUEUE_CAP_BYTES):
    """A BL uplink with an application flow "app" and one background flow
    per (rate_bps, packet_bytes, start_ns) source, flow "bg<i>"."""
    link = make_link([Cell(1)], scheduler=SchedulerKind.BL,
                     ul_capacity_bps=ul_capacity_bps)
    link.add_flow("app", Direction.UPLINK, PriorityClass.APPLICATION, 1, None)
    for i in range(len(sources)):
        link.add_flow(f"bg{i}", Direction.UPLINK, PriorityClass.BACKGROUND, 1, cap_bytes)
    return world_cls(link, cbr_sources=[
        CbrPacketSource(f"bg{i}", rate_bps, packet_bytes, start_ns=start_ns)
        for i, (rate_bps, packet_bytes, start_ns) in enumerate(sources)])


def _step_both(build, ticks: int, passes: list[Pass] | None = None) -> SimWorld:
    """Step the SimWorld and the PerPacketWorld that build(world_cls) makes
    alike, and require the same accounting and application deliveries
    after every tick; returns the SimWorld.  `passes` keeps only the calls
    that served the SimWorld's queues."""
    got, want = build(SimWorld), build(PerPacketWorld)
    background = {src.flow_id for src in want.cbr_sources}
    for tick in range(ticks):
        got_deliveries = got.run_tick()
        want_deliveries = [d for d in want.run_tick() if d.flow_id not in background]
        assert accounting(got.link) == accounting(want.link), f"tick {tick}"
        assert got_deliveries == want_deliveries, f"tick {tick}"
    if passes is not None:
        flows = set(got.link.flows.values())
        passes[:] = [p for p in passes if p.queues[0] in flows]
    return got


# two sources in lockstep: 8,000-bit packets every 1 ms each
LOCKSTEP = [(8_000_000, 1000, 0), (8_000_000, 1000, 0)]


def test_partly_served_head_carries_across_ticks(passes):
    # a 10,000-bit budget ends inside a packet every tick
    _step_both(partial(_world, ul_capacity_bps=4_000_000, sources=LOCKSTEP), 40,
               passes)
    # one merge of both queues a tick
    assert len(passes) == 40
    assert all(p.served == p.budget and len(p.before) == 2 for p in passes)
    carried = [(p, nxt) for p, nxt in zip(passes, passes[1:])
               if any(runs[0][2] < 8_000 for runs in p.after.values())]
    assert len(carried) >= 25
    # the next tick's call starts from the partly served head as it was left
    for p, nxt in carried:
        for flow, runs in p.after.items():
            if runs[0][2] < 8_000:
                assert nxt.before[flow][0][:1] + nxt.before[flow][0][2:] == (
                    runs[0][:1] + runs[0][2:])


def test_emptied_run_hands_over_to_its_queues_next_run(passes):
    # a 5-packet cap under 2.7x overload: tail drops leave gaps, so a queue
    # holds several runs, and one call serves across their boundary
    _step_both(partial(_world, ul_capacity_bps=6_000_000, sources=LOCKSTEP,
                       cap_bytes=5_000), 60, passes)
    handovers = 0
    for p in passes:
        for flow, runs in p.before.items():
            after = p.after[flow]
            gone = len(runs) - len(after)
            # the runs the call served from: those it emptied, and the one
            # it left partly served
            touched = gone + (bool(after) and after[0] != runs[gone])
            handovers += touched >= 2
    assert handovers > 10
    assert all(p.served == p.budget for p in passes)


def _app_at_source_instants(world_cls, scheduled_in_tick: bool):
    """LOCKSTEP sources slightly over a 36,000-bit budget, so a backlog
    builds up without drops, and a 2,000-bit application packet at the
    sources' arrival instant 1 ms into every other tick: an event pending
    from before its tick (rank -1), or one that an event at the tick's
    start schedules (rank 2)."""
    world = _world(world_cls, ul_capacity_bps=14_400_000, sources=LOCKSTEP)
    link = world.link

    def enqueue(now_ns: int) -> None:
        link.enqueue("app", 2_000, now_ns, meta={"at": now_ns})

    for k in range(0, 40, 2):
        at = k * TICK + 1_000_000
        if scheduled_in_tick:
            world.schedule(k * TICK, lambda now, at=at: world.schedule(at, enqueue))
        else:
            world.schedule(at, enqueue)
    return world


def _served_in_full(p: Pass, flow: str) -> set[int]:
    """The numbers of the packets of `flow` that the call served in full."""
    def numbers(runs) -> set[int]:
        return {n for first, count, _ in runs for n in range(first, first + count)}
    return numbers(p.before.get(flow, [])) - numbers(p.after.get(flow, []))


@pytest.mark.parametrize("scheduled_in_tick,rank", [(False, -1), (True, 2)])
def test_application_packet_ties_with_source_packets(passes, scheduled_in_tick, rank):
    world = _step_both(partial(_app_at_source_instants,
                               scheduled_in_tick=scheduled_in_tick), 48, passes)
    sources = {src.flow_id: src for src in world.cbr_sources}
    # application packets served in the same call as source packets of
    # their very instant
    tied = [(time_ns, app_rank) for p in passes
            for _, time_ns, app_rank in p.completed
            if any(sources[flow].packet_time(n) == time_ns
                   for flow in sources for n in _served_in_full(p, flow))]
    assert len(tied) >= 10
    assert {app_rank for _, app_rank in tied} == {rank}


def test_three_sources_of_different_rates_and_sizes(passes):
    sources = [(6_000_000, 500, 0), (5_000_000, 1200, 300_000),
               (7_000_000, 900, 1_000)]
    _step_both(partial(_world, ul_capacity_bps=12_000_000, sources=sources,
                       cap_bytes=9_000), 80, passes)
    assert any(len(p.before) == 3 and p.served == p.budget for p in passes)
    assert max(len(p.before) for p in passes) == 3


def test_budget_ending_exactly_on_a_packet_boundary(passes):
    # 24,000 bits a tick: exactly three 8,000-bit packets, so no head is
    # ever left partly served
    _step_both(partial(_world, ul_capacity_bps=9_600_000, sources=LOCKSTEP,
                       cap_bytes=6_000), 60, passes)
    assert len(passes) >= 50
    for p in passes:
        assert p.served == p.budget == 24_000
        assert all(runs[0][2] == 8_000 for runs in p.after.values() if runs)


# -- BL order against a sort of every queued packet ---------------------------

# (packet_bytes, rate_bps) of sources whose packets fall on a 100 us grid, so
# that sources share instants, and sources of one rank packet numbers too
GRID_SOURCES = [(100, 8_000_000), (100, 4_000_000), (150, 6_000_000),
                (125, 10_000_000)]


def _sorted_service(link: LinkSimulator, budget: int):
    """Serve `budget` bits by hand: every queued packet expanded to its key
    (time, rank, number) and its queue's position, sorted, and served in
    that order.  Returns each flow's served bits, its runs left as (first,
    count, remaining_bits), and the tags of the application packets
    completed, in order."""
    packets = []
    for index, q in enumerate(link.flows.values()):
        for run in q.packets:
            for n in range(run.first, run.first + run.count):
                time_ns = run.enqueue_ns if run.src is None else run.src.packet_time(n)
                bits = run.remaining_bits if n == run.first else run.size_bits
                packets.append(((time_ns, run.rank, n, index), q.flow_id, run, n, bits))
    packets.sort(key=itemgetter(0))
    served = dict.fromkeys(link.flows, 0)
    rest, completed = {}, []
    for _, flow, run, n, bits in packets:
        take = min(bits, budget)
        budget -= take
        served[flow] += take
        rest[id(run), n] = bits - take
        if take == bits and run.src is None:
            completed.append(run.meta["tag"])
    runs = {}
    for flow, q in link.flows.items():
        runs[flow] = []
        for run in q.packets:
            left = [n for n in range(run.first, run.first + run.count) if rest[id(run), n]]
            if left:
                runs[flow].append((left[0], len(left), rest[id(run), left[0]]))
    return served, runs, completed


@settings(max_examples=150, deadline=None)
@given(budget=st.integers(200, 12_000),
       sources=st.lists(st.tuples(
           st.sampled_from(GRID_SOURCES),
           st.sampled_from([0, 100_000, 200_000]),  # start_ns
           st.integers(0, 2),  # the source's rank, which others may share
           st.integers(1, 6),  # its queue cap in packets
           st.lists(st.integers(1, 5), min_size=3, max_size=3)),  # arrivals
           min_size=1, max_size=3),
       apps=st.lists(st.tuples(
           st.integers(0, 2_000_000),  # time_ns
           st.sampled_from([-1, 3]),  # below or above every source's rank
           st.integers(1, 3_000),  # bits
           st.sampled_from(["app0", "app1"])), max_size=8))
def test_bl_serves_every_queued_packet_in_key_order(budget, sources, apps):
    # three rounds of arrivals, the first two served in a tick each: a full
    # queue tail-drops, so the next round starts a run of its own, and a
    # budget that ends inside a packet leaves a partly served head
    link = make_link([Cell(1)], scheduler=SchedulerKind.BL,
                     ul_capacity_bps=budget * 400)
    for flow_id in ("app0", "app1"):
        link.add_flow(flow_id, Direction.UPLINK, PriorityClass.APPLICATION, 1, None)
    feeds = []
    for k, ((size, rate_bps), start_ns, rank, cap, arrivals) in enumerate(sources):
        link.add_flow(f"bg{k}", Direction.UPLINK, PriorityClass.BACKGROUND, 1,
                      cap * size)
        feeds.append((CbrPacketSource(f"bg{k}", rate_bps, size, start_ns=start_ns),
                      rank, arrivals))
    # application packets enqueued in key order, so each queue is sorted
    apps.sort()
    for tick in range(3):
        for src, rank, arrivals in feeds:
            first = sum(arrivals[:tick])
            link.enqueue_run(src, rank, first, first + arrivals[tick])
        for tag in range(len(apps) * tick // 3, len(apps) * (tick + 1) // 3):
            time_ns, rank, bits, flow_id = apps[tag]
            link.event_rank = rank
            link.enqueue(flow_id, bits, time_ns, meta={"tag": tag})
        if tick < 2:
            link.run_tick(tick * TICK)
    served, runs, completed = _sorted_service(link, budget)
    before = {flow_id: q.served_bits for flow_id, q in link.flows.items()}
    deliveries = link.run_tick(2 * TICK)
    assert {flow_id: q.served_bits - before[flow_id]
            for flow_id, q in link.flows.items()} == served
    assert {flow_id: [(e.first, e.count, e.remaining_bits) for e in q.packets]
            for flow_id, q in link.flows.items()} == runs
    assert [d.meta["tag"] for d in deliveries] == completed


# -- each source's tick counted once ------------------------------------------

class CountingSource(CbrPacketSource):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.counts = 0

    def count_before(self, t: int) -> int:
        self.counts += 1
        return super().count_before(t)


def test_consecutive_ticks_count_each_source_once():
    link = make_link([Cell(1)], scheduler=SchedulerKind.BL,
                     ul_capacity_bps=4_000_000)
    for i in range(2):
        link.add_flow(f"bg{i}", Direction.UPLINK, PriorityClass.BACKGROUND, 1,
                      QUEUE_CAP_BYTES)
    world = SimWorld(link, cbr_sources=[CountingSource(f"bg{i}", 8_000_000, 1000)
                                        for i in range(2)])
    for _ in range(10):
        world.run_tick()
    # each source is counted once where the world starts, then once at
    # the end of each tick: a tick starts where the one before ended
    assert [src.counts for src in world.cbr_sources] == [11, 11]
    assert link.flows["bg0"].offered_bits == 25 * 8_000


def test_next_counts_follow_skips_and_steps():
    # sources that fit every tick of a 40 Mbps uplink, so run_until skips
    link = make_link([Cell(1)], scheduler=SchedulerKind.BL)
    for flow_id in ("a", "b"):
        link.add_flow(flow_id, Direction.UPLINK, PriorityClass.BACKGROUND, 1,
                      QUEUE_CAP_BYTES)
    a = CbrPacketSource("a", 1_000_000, 100)
    b = CbrPacketSource("b", 3_000_000, 125, start_ns=700_000)
    world = SimWorld(link, cbr_sources=[b, a])

    def check() -> None:
        for src in (a, b):
            q = link.flows[src.flow_id]
            assert q.offered_bits == src.packet_bits * src.count_before(world.now_ns)
            assert q.backlog_bits == 0
        assert world._next == [b.count_before(world.now_ns),
                               a.count_before(world.now_ns)]

    # step some ticks, then skip to a later tick, four times over
    for steps, until_ticks in ((2, 40), (2, 45), (3, 50), (2, 80)):
        for _ in range(steps):
            world.run_tick()
        check()
        world.run_until(until_ticks * TICK)
        check()
    assert (world.ticks_run, world.ticks_skipped) == (9, 71)
    assert link.flows["a"].offered_bits > 0 and link.flows["b"].offered_bits > 0


# -- BL bulk step of a source run against packet-by-packet pops ---------------

def _queue_state(specs, heads):
    """Queues "q<k>" on one BL uplink, one per spec: ("cbr", (packet_bytes,
    rate_bps), start_ns, rank, runs) holds the runs of one source, each
    (gap before it, count), numbered on from the run before; ("app",
    packets) holds application packets (time_ns, rank, bits), enqueued in
    key order.  heads[k] bits of queue k's head are then served, which
    leaves it partly served."""
    link = make_link([Cell(1)], scheduler=SchedulerKind.BL)
    for k, spec in enumerate(specs):
        flow_id = f"q{k}"
        if spec[0] == "app":
            link.add_flow(flow_id, Direction.UPLINK, PriorityClass.APPLICATION, 1, None)
            for tag, (time_ns, rank, bits) in enumerate(sorted(spec[1])):
                link.event_rank = rank
                link.enqueue(flow_id, bits, time_ns, meta={"tag": (k, tag)})
        else:
            _, (size, rate_bps), start_ns, rank, runs = spec
            link.add_flow(flow_id, Direction.UPLINK, PriorityClass.BACKGROUND, 1,
                          QUEUE_CAP_BYTES)
            src = CbrPacketSource(flow_id, rate_bps, size, start_ns=start_ns)
            first = 0
            for gap, count in runs:
                first += gap
                link.enqueue_run(src, rank, first, first + count)
                first += count
    queues = list(link.flows.values())
    for q, head in zip(queues, heads):
        q.serve_bits(min(head, q.packets[0].remaining_bits - 1), [])
    return queues


def _packet_bits_in_key_order(queues) -> list[int]:
    """Each queued packet's bits, in the order of the keys (time, rank,
    number, queue index); each queue is sorted, so this is the merge's."""
    packets = []
    for index, q in enumerate(queues):
        for run in q.packets:
            for n in range(run.first, run.first + run.count):
                time_ns = run.enqueue_ns if run.src is None else run.src.packet_time(n)
                bits = run.remaining_bits if n == run.first else run.size_bits
                packets.append(((time_ns, run.rank, n, index), bits))
    return [bits for _, bits in sorted(packets)]


def _serve_once(queues, budget: int, bulk: bool):
    """What one _serve_fifo call does to the queues: its result or the
    ValueError it raised, each queue's served bits, the application packets
    it completed, in order, and each queue's runs left."""
    completed = []
    try:
        outcome = netem._serve_fifo(queues, budget, completed, bulk)
    except ValueError as exc:
        outcome = str(exc)
    return (outcome, [q.served_bits for q in queues],
            [(q.flow_id, run.meta["tag"]) for q, run in completed],
            [[(e.first, e.count, e.remaining_bits) for e in q.packets]
             for q in queues])


_CBR_QUEUE = st.tuples(
    st.just("cbr"),
    st.sampled_from(GRID_SOURCES),  # equal or unequal packet sizes
    st.sampled_from([0, 100_000, 300_000]),  # start_ns
    st.integers(0, 2),  # rank, which other queues may share
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 6)),  # (gap, count)
             min_size=1, max_size=3))
_APP_QUEUE = st.tuples(
    st.just("app"),
    st.lists(st.tuples(
        st.integers(0, 12).map(lambda k: k * 100_000),  # on the sources' grid
        st.integers(-1, 3),  # below, equal to or above a source's rank
        st.integers(1, 3_000)), min_size=1, max_size=4))


@settings(max_examples=400, deadline=None)
@given(specs=st.lists(st.one_of(_CBR_QUEUE, _APP_QUEUE), min_size=1, max_size=4)
       .filter(lambda specs: sum(s[0] == "cbr" for s in specs) <= 3),
       heads=st.lists(st.integers(0, 1_500), min_size=4, max_size=4),
       budget=st.integers(1, 30_000), on_a_boundary=st.booleans())
def test_bulk_step_serves_what_packet_by_packet_pops_serve(specs, heads, budget,
                                                           on_a_boundary):
    if on_a_boundary:
        # the budget ends right after a packet, none of it partly served
        bits = _packet_bits_in_key_order(_queue_state(specs, heads))
        budget = sum(bits[:budget % len(bits) + 1])
    assert (_serve_once(_queue_state(specs, heads), budget, True)
            == _serve_once(_queue_state(specs, heads), budget, False))


# -- in-place admission against a per-packet model ----------------------------

class _ModelQueue:
    """A flow's queue as a list of packets [number, remaining bits, source,
    size, enqueue_ns, meta], each dropped or queued on its own: one that
    would overflow the cap is tail-dropped."""

    def __init__(self, cap_bits: int | None) -> None:
        self.cap_bits = cap_bits
        self.packets: list[list] = []
        self.offered = self.served = self.dropped = self.backlog = 0

    def admit(self, numbers, size: int, src, enqueue_ns=None, meta=None) -> int:
        accepted = 0
        for n in numbers:
            self.offered += size
            if self.cap_bits is not None and self.backlog + size > self.cap_bits:
                self.dropped += size
                continue
            self.packets.append([n, size, src, size, enqueue_ns, meta])
            self.backlog += size
            accepted += 1
        return accepted

    def serve(self, bits: int) -> list:
        completed = []
        while bits and self.packets:
            head = self.packets[0]
            take = min(bits, head[1])
            head[1] -= take
            bits -= take
            self.served += take
            self.backlog -= take
            if not head[1]:
                self.packets.pop(0)
                if head[2] is None:
                    completed.append(head[5])
        return completed

    def runs(self, rank: int, app_rank: int) -> list[tuple]:
        """The QueuedRun fields the queue must hold: a source's packets with
        consecutive numbers, next to each other, form one run; an
        application packet is a run of one."""
        runs: list[list] = []
        for n, left, src, size, enqueue_ns, meta in self.packets:
            tail = runs[-1] if runs else None
            if (src is not None and tail is not None and tail[5] is src
                    and tail[0] + tail[1] == n):
                tail[1] += 1
            else:
                runs.append([n, 1, size, left, rank if src else app_rank, src,
                             enqueue_ns, meta])
        return [tuple(run) for run in runs]


_TICK_OF_ARRIVALS = st.tuples(
    st.integers(0, 2),  # packet numbers skipped before the tick's first
    st.integers(0, 6),  # arrivals, none for a tick without any
    st.integers(0, 4_000),  # bits served after them
    st.one_of(st.none(), st.integers(1, 3_000)))  # an application packet


@settings(max_examples=400, deadline=None)
@given(packet_bytes=st.integers(1, 250), cap_packets=st.one_of(
           st.none(), st.floats(0.5, 12.0)),  # None: an application flow
       ticks=st.lists(_TICK_OF_ARRIVALS, min_size=1, max_size=12))
def test_admission_matches_a_per_packet_queue(packet_bytes, cap_packets, ticks):
    # a cap of a fractional number of packets leaves room for part of one,
    # which tail drop must not take; the numbers of the packets it drops
    # stay a gap that no later tick's run may merge across
    size = packet_bytes * 8
    cap_bytes = None if cap_packets is None else max(1, round(cap_packets * packet_bytes))
    klass = PriorityClass.APPLICATION if cap_bytes is None else PriorityClass.BACKGROUND
    q = netem.FlowQueue("q", Direction.UPLINK, klass, 1, cap_bytes)
    model = _ModelQueue(None if cap_bytes is None else cap_bytes * 8)
    src = CbrPacketSource("q", 1_000_000, packet_bytes)
    rank, app_rank, nxt = 2, -1, 0
    for tick, (gap, count, serve, app_bits) in enumerate(ticks):
        first = nxt + gap
        if count:
            assert (q.admit(first, count, size, rank, src)
                    == model.admit(range(first, first + count), size, src))
            nxt = first + count
        if app_bits is not None:
            meta = {"tag": tick}
            assert (q.admit(1_000 + tick, 1, app_bits, app_rank, None, tick, meta)
                    == model.admit([1_000 + tick], app_bits, None, tick, meta))
        completed: list = []
        assert q.serve_bits(serve, completed) == min(serve, model.backlog)
        assert [run.meta for _, run in completed] == model.serve(serve)
        assert [tuple(getattr(run, f.name) for f in dataclasses.fields(run))
                for run in q.packets] == model.runs(rank, app_rank), tick
        assert ((q.offered_bits, q.served_bits, q.dropped_bits, q.backlog_bits)
                == (model.offered, model.served, model.dropped, model.backlog)), tick
