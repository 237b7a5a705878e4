"""The batched background path against a per-packet reference.

SimWorld enqueues each tick's CBR arrivals as runs and serves them by
arithmetic.  These tests replay small randomized worlds through a
reference event loop that schedules every arrival on the heap and feeds it
to LinkSimulator.enqueue one packet at a time, and require the same
per-tick queue accounting and the same application deliveries."""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from functools import partial

import pytest

from cv2x_bench.loadgen import CbrPacketSource
from cv2x_bench.netem import (Cell, Delivery, Direction,
                              LinkSimulator, PriorityClass, SchedulerKind,
                              SimWorld)

TICK = 2_500_000
TICKS = 120
APP_FLOWS = {"app-ul": Direction.UPLINK, "app-dl": Direction.DOWNLINK}


class PerPacketWorld(SimWorld):
    """Reference event loop: every CBR arrival is a heap event, scheduled at
    the start of its tick, that enqueues one packet."""

    def run_tick(self):
        tick_start = self.now_ns
        tick_end = tick_start + self.tick_ns
        for src in self.cbr_sources:
            for arrival_ns, size_bits in src.arrivals(tick_start, tick_end):
                self.schedule(arrival_ns, partial(self._enqueue_one, src.flow_id,
                                                  size_bits))
        while self._heap and self._heap[0][0] < tick_end:
            time_ns, _, callback = heapq.heappop(self._heap)
            callback(time_ns)
        deliveries = self.link.run_tick(tick_start)
        for d in deliveries:
            if self.on_delivery is not None:
                self.on_delivery(d)
        self.now_ns = tick_end
        return deliveries

    def _enqueue_one(self, flow_id: str, size_bits: int, now_ns: int) -> None:
        self.link.enqueue(flow_id, size_bits, now_ns)


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
    rng = random.Random(seed)
    ul_cap = rng.randrange(4_000_000, 12_000_000)
    dl_cap = rng.randrange(8_000_000, 30_000_000)
    sources: list[Source] = []
    for direction, cap_bps, tag in ((Direction.UPLINK, ul_cap, "ul"),
                                    (Direction.DOWNLINK, dl_cap, "dl")):
        count = rng.choice((1, 2))
        # the uplink is overloaded so its small queues fill and drop
        total = cap_bps * (rng.uniform(1.2, 2.0) if direction is Direction.UPLINK
                           else rng.uniform(0.5, 1.5))
        identical = count == 2 and (seed % 2 == 0 or rng.random() < 0.5)
        for i in range(count):
            if i == 0 or not identical:
                rate = int(total / count * rng.uniform(0.7, 1.3))
                size = rng.randrange(200, 1500)
                start = rng.choice((0, rng.randrange(0, 3 * TICK)))
                stop = rng.choice((None, rng.randrange(TICKS * TICK // 2,
                                                       TICKS * TICK)))
            sources.append(Source(f"bg-{tag}-{i}", direction, rate, size,
                                  start, stop,
                                  cap_bytes=size * rng.randrange(2, 6)
                                  + rng.randrange(0, size)))
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
    return Params(scheduler, ul_cap, dl_cap, sources, app_events)


def _run(params: Params, world_cls) -> tuple[list, list, LinkSimulator]:
    link = LinkSimulator([Cell(1)], scheduler=params.scheduler,
                         ul_capacity_bps=params.ul_capacity_bps,
                         dl_capacity_bps=params.dl_capacity_bps)
    for flow_id, direction in APP_FLOWS.items():
        link.add_flow(flow_id, direction, PriorityClass.APPLICATION, 1)
    world = world_cls(link)
    for s in params.sources:
        link.add_flow(s.flow_id, s.direction, PriorityClass.BACKGROUND, 1, s.cap_bytes)
        world.cbr_sources.append(s.build())
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
    accounting, app_deliveries = [], []
    for _ in range(TICKS):
        deliveries = world.run_tick()
        accounting.append([(fid, q.offered_bits, q.served_bits, q.dropped_bits,
                            q.backlog_bits) for fid, q in link.flows.items()])
        app_deliveries.append([d for d in deliveries if d.flow_id in APP_FLOWS])
    return accounting, app_deliveries, link


@pytest.mark.parametrize("scheduler", [SchedulerKind.BL, SchedulerKind.AP])
@pytest.mark.parametrize("seed", range(8))
def test_batched_world_matches_per_packet_reference(scheduler, seed):
    params = _random_params(scheduler, seed)
    got_accounting, got_deliveries, link = _run(params, SimWorld)
    want_accounting, want_deliveries, _ = _run(params, PerPacketWorld)
    for tick, (got, want) in enumerate(zip(got_accounting, want_accounting)):
        assert got == want, f"tick {tick}"
    for tick, (got, want) in enumerate(zip(got_deliveries, want_deliveries)):
        assert got == want, f"tick {tick}"
    # the cases exercise what the batching must get right
    assert any(d for d in want_deliveries)
    assert any(q.dropped_bits for q in link.flows.values())
    assert any(follow is not None for *_, follow in params.app_events)


def test_identical_sources_alternate_packet_by_packet():
    # two sources at one rate arrive at the same instants; source order
    # breaks the tie, so each run holds one packet and BL serves them in turn
    link = LinkSimulator([Cell(1)], scheduler=SchedulerKind.BL,
                         ul_capacity_bps=4_000_000)
    world = SimWorld(link)
    for i in range(2):
        link.add_flow(f"bg{i}", Direction.UPLINK, PriorityClass.BACKGROUND, 1)
        world.cbr_sources.append(CbrPacketSource(f"bg{i}", 8_000_000, 1000))
    world.run_tick()  # arrivals at 0, 1 and 2 ms; a 10,000-bit budget
    queued = [[(e.arrival_idx, e.count, e.remaining_bits)
               for e in link.flows[f"bg{i}"].packets] for i in range(2)]
    assert queued == [[(3, 1, 8_000), (5, 1, 8_000)],
                      [(2, 1, 6_000), (4, 1, 8_000), (6, 1, 8_000)]]


def test_single_source_tick_is_one_run():
    link = LinkSimulator([Cell(1)], scheduler=SchedulerKind.BL,
                         ul_capacity_bps=400)
    world = SimWorld(link)
    link.add_flow("bg", Direction.UPLINK, PriorityClass.BACKGROUND, 1, 10_000)
    world.cbr_sources.append(CbrPacketSource("bg", 40_000_000, 1400))
    world.run_tick()
    q = link.flows["bg"]
    # 9 arrivals, 7 fit the 80,000-bit cap, 1 bit was served
    assert [(e.arrival_idx, e.count) for e in q.packets] == [(1, 7)]
    assert q.packets[0].remaining_bits == 11_199
    assert (q.offered_bits, q.dropped_bits) == (9 * 11_200, 2 * 11_200)


def test_application_packets_and_runs_never_merge():
    # a run right after an application packet of its size and with the next
    # arrival index, and a packet right after that run, would each extend
    # the entry before them if the queue did not keep packets apart
    link = LinkSimulator([Cell(1)], scheduler=SchedulerKind.BL,
                         ul_capacity_bps=1_000_000)
    link.add_flow("ue", Direction.UPLINK, PriorityClass.APPLICATION, 1)
    assert link.enqueue("ue", 800, 5, meta={"tag": "first"}) is True
    assert link.enqueue_run("ue", 3, 800) == 3
    assert link.enqueue("ue", 800, 6, meta={"tag": "second"}) is True
    q = link.flows["ue"]
    assert [(e.arrival_idx, e.count, e.enqueue_ns) for e in q.packets] == [
        (1, 1, 5), (2, 3, None), (5, 1, 6)]
    # a 2,500-bit budget per tick: the first packet and 1,700 bits of the run,
    # then the rest of the run and the second packet
    assert link.run_tick(0) == [Delivery("ue", 800, 5, TICK, 1, {"tag": "first"})]
    assert [(e.arrival_idx, e.count, e.remaining_bits) for e in q.packets] == [
        (4, 1, 700), (5, 1, 800)]
    assert link.run_tick(TICK) == [
        Delivery("ue", 800, 6, 2 * TICK, 1, {"tag": "second"})]
    assert not q.packets and q.served_bits == 5 * 800


def test_tail_drop_at_the_cap_boundary():
    # an 80,000-bit cap: a packet or run that fills it exactly is kept, one
    # bit more is dropped, for single packets and for runs alike
    link = LinkSimulator([Cell(1)], scheduler=SchedulerKind.BL,
                         ul_capacity_bps=400)
    link.add_flow("bg", Direction.UPLINK, PriorityClass.BACKGROUND, 1, 10_000)
    assert link.enqueue("bg", 40_000, 0) is True
    assert link.enqueue("bg", 40_001, 0) is False
    assert link.enqueue_run("bg", 3, 13_334) == 2
    assert link.enqueue("bg", 13_332, 0) is True
    assert link.enqueue_run("bg", 1, 1) == 0
    q = link.flows["bg"]
    assert (q.backlog_bits, q.dropped_bits) == (80_000, 40_001 + 13_334 + 1)


def test_arrivals_on_tick_edges_are_enqueued_once():
    # the sources' packets fall on the first and on the last instant of
    # ticks, where an off-by-one window start would drop or repeat one
    link = LinkSimulator([Cell(1)], scheduler=SchedulerKind.BL,
                         ul_capacity_bps=400)
    world = SimWorld(link)
    starts = {"edge-end": TICK - 1, "edge-start": TICK}
    arrived = dict.fromkeys(starts, 0)
    references = []
    for flow_id, start_ns in starts.items():
        link.add_flow(flow_id, Direction.UPLINK, PriorityClass.BACKGROUND, 1)
        world.cbr_sources.append(CbrPacketSource(flow_id, 8_000_000, 1250,
                                                 start_ns=start_ns))
        references.append(CbrPacketSource(flow_id, 8_000_000, 1250,
                                          start_ns=start_ns))
    for tick in range(8):
        world.run_tick()
        for ref in references:
            arrived[ref.flow_id] += len(list(ref.arrivals(tick * TICK,
                                                          (tick + 1) * TICK)))
            assert (link.flows[ref.flow_id].offered_bits
                    == arrived[ref.flow_id] * 10_000), (tick, ref.flow_id)
    assert arrived == {"edge-end": 15, "edge-start": 14}
