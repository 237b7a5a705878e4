"""Deterministic emulation of a dedicated 5G standalone cell pair.

The link is modeled as a fluid per-tick system.  One tick spans a full TDD
pattern period: the pattern's slot count times the slot duration (default
DDDSU at 0.5 ms slots = 2.5 ms), and LinkSimulator takes only that length.
The scenario config checks that the pattern holds only D, U and S slots,
but the letters set nothing else.  LinkSimulator takes the network's
uplink and downlink capacities, which already embed the symbol split, and
every cell gets the same bit budget per tick in a direction: its capacity
times the tick length.  Queued packets are drained against that budget
and a packet is delivered at the end of the tick in which its last bit is
served, so an uncongested packet picks up at most one tick of
slot-alignment delay.  A queue holds runs of packets of one size, keyed
by arrival (see SimWorld); an application packet is a run of one that
carries its enqueue time and meta, and only such a run yields a Delivery.

Two scheduler disciplines are provided:

  BL  best-effort baseline: all flows in a direction share one logical
      pipe, served strictly in arrival (key) order (no QoS
      differentiation), so overload traffic queues ahead of application
      packets.  The pipe is one k-way merge of its queues' heads in key
      order (see _serve_fifo), until one queue is left to drain.
  AP  absolute priority: application-class queues are drained first, and
      whatever budget remains is split max-min fair across background
      flows.

A flow is described by two facts.  Its priority class decides whether it
may drop: an application flow (the TCP-carried stream) never drops, and a
background flow (UDP load) tail-drops on enqueue above its queue cap.  Its
cell decides where it is served: a flow added with a cell is served there
only, and one added without follows the mobile terminal, served only from
its serving cell and suspended during a handover interruption.

Conservation, work-conservation, priority-dominance, and cap invariants
are asserted on every tick that runs and raise InvariantViolation when
broken; SimWorld.run_until skips only ticks whose outcome is known, which
leave every queue empty as they found it, and checks them on every tick of
an AP span it advances in one call.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable, Sequence


class Direction(Enum):
    UPLINK = "UL"
    DOWNLINK = "DL"


class PriorityClass(Enum):
    APPLICATION = "application"
    BACKGROUND = "background"


class SchedulerKind(Enum):
    BL = "BL"
    AP = "AP"


class InvariantViolation(RuntimeError):
    """A per-tick scheduler invariant (conservation, work conservation,
    priority dominance, or queue cap) was broken."""


@dataclass(frozen=True)
class Cell:
    cell_id: int
    position: tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class HandoverEvent:
    time_ns: int
    from_cell: int
    to_cell: int
    interruption_ns: int


@dataclass(frozen=True)
class MobilityRoute:
    """Piecewise-linear vehicle trajectory: (time_ns, x_m, y_m) waypoints."""

    waypoints: tuple[tuple[int, float, float], ...]

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise ValueError("route needs at least one waypoint")
        times = [w[0] for w in self.waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("waypoint times must be strictly increasing")

    @property
    def start_ns(self) -> int:
        return self.waypoints[0][0]

    @property
    def end_ns(self) -> int:
        return self.waypoints[-1][0]


def _nearest(x: float, y: float,
             cells: Sequence[Cell]) -> tuple[int, list[float]]:
    """The index of the cell nearest to (x, y), the first one on a tie, and
    every cell's distance to it."""
    ds = [math.hypot(x - cell.position[0], y - cell.position[1])
          for cell in cells]
    return ds.index(min(ds)), ds


# the allowance, relative to the largest coordinate or hysteresis, that a
# sample skip keeps for rounding: a computed position or distance is off
# the exact one by a few ulps of that scale, far below this
_SKIP_ALLOWANCE = 1e-9


def apply_handover(route: MobilityRoute, cells: Sequence[Cell], *,
                   hysteresis_m: float, interruption_ns: int,
                   sample_ns: int) -> tuple[int, list[HandoverEvent]]:
    """The id of the cell serving a vehicle at the route's start, and the
    handover events the vehicle triggers following the route.

    The serving cell starts as the nearest cell (the first one on a tie)
    and switches only once another cell is closer by more than the
    hysteresis margin.  The route is sampled on the tick grid, so an event
    time is the first sampled instant at which the switch condition holds.
    The samples are taken in one forward walk over the route's segments: a
    sample is interpolated on the first segment that reaches it, so an
    interior waypoint's time falls on the segment it ends, and the route's
    end is the last waypoint itself.

    The walk evaluates only the samples whose outcome is not known.  After
    an evaluated sample, the switch margin is the least d_i - (d_serving -
    hysteresis_m) over the cells other than the serving one; no cell can
    switch while it is not negative.  Along one segment every distance
    moves by at most step = |velocity| * sample_ns per sample, so the
    margin by at most 2 * step: the next floor((margin - allowance) / (2 *
    step)) samples of the segment cannot switch and are skipped, never one
    past the segment's last, and a stationary segment with a positive
    margin is skipped to its end.  The allowance, _SKIP_ALLOWANCE times
    (1 m + the largest coordinate + the hysteresis), covers rounding, so
    the events equal those of evaluating every sample.
    """
    if len(cells) < 2:
        raise ValueError("handover needs at least two cells")
    if sample_ns <= 0:
        raise ValueError("sample interval must be positive")
    pts = route.waypoints
    end = route.end_ns
    ids = [cell.cell_id for cell in cells]
    serving, _ = _nearest(pts[0][1], pts[0][2], cells)
    start_cell = ids[serving]
    coords = [v for w in pts for v in w[1:]] + [v for c in cells for v in c.position]
    allowance = _SKIP_ALLOWANCE * (1.0 + max(map(abs, coords)) + abs(hysteresis_m))
    events: list[HandoverEvent] = []
    # the sample at the route's start finds the serving cell itself nearest
    t = route.start_ns + sample_ns
    for (t0, x0, y0), (t1, x1, y1) in zip(pts, pts[1:]):
        span, dx, dy = t1 - t0, x1 - x0, y1 - y0
        # 2 * step: the most the margin moves from one sample to the next
        step2 = 2 * math.hypot(dx, dy) * sample_ns / span
        while t <= t1:
            if t == end:
                x, y = x1, y1
            else:
                f = (t - t0) / span
                x, y = x0 + f * dx, y0 + f * dy
            nearest, ds = _nearest(x, y, cells)
            if (ids[nearest] != ids[serving]
                    and ds[nearest] < ds[serving] - hysteresis_m):
                events.append(HandoverEvent(time_ns=t, from_cell=ids[serving],
                                            to_cell=ids[nearest],
                                            interruption_ns=interruption_ns))
                serving = nearest
            # the switch margin less the allowance for rounding, and the
            # samples after t on this segment: those it proves cannot
            # switch are skipped
            slack = (min(d for i, d in enumerate(ds) if i != serving)
                     - (ds[serving] - hysteresis_m) - allowance)
            left = (t1 - t) // sample_ns
            skip = 0
            if slack > 0:
                skip = left if slack >= step2 * left else int(slack / step2)
            t += (skip + 1) * sample_ns
    return start_cell, events


@dataclass(slots=True)
class QueuedRun:
    """`count` packets of `size_bits` from one flow.  A run of CBR source
    `src` holds its packets `first` .. `first + count - 1`, packet n keyed
    (src.packet_time(n), rank, n).  An application packet is a run of one
    with no source, keyed (enqueue_ns, rank, first): only it yields a
    Delivery, and no run merges into it.  Only the head packet can be
    partly served."""

    first: int
    count: int
    size_bits: int
    remaining_bits: int
    rank: int
    src: object | None = None  # a loadgen.CbrPacketSource
    enqueue_ns: int | None = None
    meta: dict | None = None

    def key(self) -> tuple[int, int, int]:
        """The head packet's order key."""
        if self.src is None:
            return self.enqueue_ns, self.rank, self.first
        return self.src.packet_time(self.first), self.rank, self.first


@dataclass(slots=True)
class Delivery:
    flow_id: str
    size_bits: int
    enqueue_ns: int
    delivery_ns: int
    cell_id: int
    meta: dict | None = None


# (queue, packet) of an application packet whose last bit was served
Completion = tuple["FlowQueue", QueuedRun]


class FlowQueue:
    """One flow's queue plus its cumulative accounting counters.  Only a
    background flow is droppable: it tail-drops above `cap_bits`."""

    def __init__(self, flow_id: str, direction: Direction,
                 priority_class: PriorityClass, cell_id: int | None,
                 queue_cap_bytes: int | None) -> None:
        self.droppable = priority_class is PriorityClass.BACKGROUND
        if self.droppable and (queue_cap_bytes is None or queue_cap_bytes <= 0):
            raise ValueError(f"flow {flow_id}: background flows need a positive queue cap")
        self.flow_id = flow_id
        self.direction = direction
        self.cell_id = cell_id
        self.cap_bits = queue_cap_bytes * 8 if self.droppable else None
        self.packets: deque[QueuedRun] = deque()
        self.backlog_bits = 0
        self.offered_bits = 0
        self.served_bits = 0
        self.dropped_bits = 0

    def admit(self, first: int, count: int, size_bits: int, rank: int,
              src: object | None = None, enqueue_ns: int | None = None,
              meta: dict | None = None) -> int:
        """Admit `count` packets of `size_bits` from number `first` at `rank`,
        of CBR source `src` or one application packet; returns how many were
        accepted.  Tail drop keeps a prefix: once one packet of equal size
        overflows the cap, every later one does too.  Packets continuing the
        tail run's numbers, from its source, extend it; others form a run."""
        bits = count * size_bits
        self.offered_bits += bits
        if self.droppable:
            room = self.cap_bits - self.backlog_bits
            if room < bits:
                count = max(0, room // size_bits)
                self.dropped_bits += bits - count * size_bits
                if not count:
                    return 0
                bits = count * size_bits
        self.backlog_bits += bits
        packets = self.packets
        if src is not None and packets:
            tail = packets[-1]
            if tail.src is src and tail.first + tail.count == first:
                tail.count += count
                return count
        packets.append(QueuedRun(first, count, size_bits, size_bits, rank, src,
                                 enqueue_ns, meta))
        return count

    def serve_bits(self, bits: int, completed: list[Completion]) -> int:
        """Drain up to `bits` from the head of the queue; returns the bits
        actually served and appends each application packet completed to
        `completed`."""
        budget = bits
        packets = self.packets
        while bits > 0 and packets:
            head = packets[0]
            left = head.remaining_bits + (head.count - 1) * head.size_bits
            if bits < left:
                # keep the run's last `count` packets, the first partly served
                left -= bits
                count = -(-left // head.size_bits)
                head.first += head.count - count
                head.count = count
                head.remaining_bits = left - (count - 1) * head.size_bits
                bits = 0
                break
            packets.popleft()
            if head.enqueue_ns is not None:
                completed.append((self, head))
            bits -= left
        served = budget - bits
        self.backlog_bits -= served
        self.served_bits += served
        return served


def _serve_fifo(queues: list[FlowQueue], budget: int,
                completed: list[Completion], bulk: bool) -> int:
    """Serve queues as one best-effort pipe, in key order by packet:
    a k-way merge of the queues' heads (Knuth, TAOCP vol. 3, 5.4.1) through
    a heap of (time, rank, number, queue index).  Each pop serves one
    packet, or as much of it as the budget leaves; a queue whose run
    empties goes on with its next entry, and the next packet of a source
    run is keyed by packet_time's formula, written inline for speed, so
    the two must stay equal.  serve_bits drains a lone busy queue.

    With `bulk`, a pop of a source run also serves, in the same step, the
    run's packets after its head that fit the budget whole and are keyed
    before the runner-up's head (t2, r2): packet_time < t2, or == t2 at a
    rank below r2 (count_before's formula, inline).  Each would be the next
    pop, so the step is exact; the tie check then runs on its last packet.

    An application packet and a CBR-source packet of another queue must not
    share a time and a rank: their keys cannot order them, so serving one
    with the other next in key order, in this call or the next, raises
    ValueError."""
    queues = [q for q in queues if q.packets]
    if len(queues) == 1:
        return queues[0].serve_bits(budget, completed)
    heap = [(*q.packets[0].key(), i) for i, q in enumerate(queues)]
    heapq.heapify(heap)
    left = budget
    while left and heap:
        if len(heap) == 1:
            left -= queues[heap[0][3]].serve_bits(left, completed)
            break
        time_ns, rank, n, i = heap[0]
        q = queues[i]
        packets = q.packets
        run = packets[0]
        bits = run.remaining_bits
        if bits > left:
            left -= q.serve_bits(left, completed)
            break
        src = run.src
        if bulk and src is not None:
            t2, r2 = min(heap[1:3])[:2]
            size, per_s = src.packet_bits, src.packet_bits * 1_000_000_000
            k = min(((t2 - src.start_ns + (rank < r2)) * src.rate_bps - 1)
                    // per_s + 1 - n, run.count, (left - bits) // size + 1)
            if k > 1:
                # packets n .. n + k - 2 are served here, the last one below
                n += k - 1
                run.count -= k - 1
                bits += (k - 1) * size
                time_ns = src.start_ns + n * per_s // src.rate_bps
        left -= bits
        q.backlog_bits -= bits
        q.served_bits += bits
        if run.count > 1:
            n += 1
            run.first = n
            run.count -= 1
            run.remaining_bits = run.size_bits
            heapq.heapreplace(heap, (src.start_ns + n * src.packet_bits
                                     * 1_000_000_000 // src.rate_bps, rank, n, i))
        else:
            packets.popleft()
            if src is None:
                completed.append((q, run))
            if packets:
                heapq.heapreplace(heap, (*packets[0].key(), i))
            else:
                heapq.heappop(heap)
        # the packet served next, now or in a later call
        after = heap[0]
        if (after[0] == time_ns and after[1] == rank and after[3] != i
                and (queues[after[3]].packets[0].src is None) != (src is None)):
            raise ValueError(
                f"an application packet and a CBR-source packet share time "
                f"{time_ns} and rank {rank}; their order is undefined")
    return budget - left


def _serve_waterfill(queues: list[FlowQueue], budget: int,
                     completed: list[Completion]) -> int:
    """Max-min fair (byte-fair round-robin) split of a budget across flows.
    A lone active flow is served min(budget, backlog) in one call, as the
    first round would, and no later round serves anything."""
    active = [q for q in queues if q.backlog_bits > 0]
    if len(active) == 1:
        return active[0].serve_bits(min(budget, active[0].backlog_bits), completed)
    served_total = 0
    while budget > 0 and active:
        share = budget // len(active)
        if share == 0:
            for q in active:
                served = q.serve_bits(min(budget, q.backlog_bits), completed)
                budget -= served
                served_total += served
                if budget == 0:
                    break
            break
        for q in active:
            served = q.serve_bits(min(share, q.backlog_bits), completed)
            budget -= served
            served_total += served
        active = [q for q in active if q.backlog_bits > 0]
    return served_total


@dataclass
class _FlowGroup:
    """One direction of one cell: its per-tick bit budget and the flows it
    may serve.  `views[serving == cell_id and not suspended]` holds, in
    flow order, the flows eligible in a tick, as (all, application class,
    background class, whether _serve_fifo steps in bulk: at most one is
    background): index 0 only the flows fixed to this cell, index 1 also
    those that follow the mobile terminal."""

    cell_id: int
    direction: Direction
    budget: int
    views: list[tuple[list[FlowQueue], list[FlowQueue], list[FlowQueue], bool]]


def _check_group(group: _FlowGroup, served: int,
                 queues: list[FlowQueue]) -> None:
    """A group's per-tick invariants: it served at most its budget, and
    all of it while a flow in `queues` still holds backlog."""
    if served > group.budget:
        raise InvariantViolation(
            f"served {served} bits over budget {group.budget} "
            f"in cell {group.cell_id} {group.direction.value}")
    if served < group.budget and any(q.backlog_bits for q in queues):
        raise InvariantViolation(
            f"work conservation broken in cell {group.cell_id} "
            f"{group.direction.value}")


def _check_flows(queues: Iterable[FlowQueue]) -> None:
    """Each flow's per-tick invariants: conservation and the cap."""
    for q in queues:
        if q.offered_bits - q.served_bits - q.dropped_bits != q.backlog_bits:
            raise InvariantViolation(
                f"conservation broken for flow {q.flow_id}")
        if q.droppable and q.backlog_bits > q.cap_bits:
            raise InvariantViolation(
                f"queue cap exceeded for flow {q.flow_id}")


class LinkSimulator:
    """Cells, flows, queues, and the per-tick scheduler."""

    def __init__(self, cells: Sequence[Cell], *, tick_ns: int,
                 scheduler: SchedulerKind, ul_capacity_bps: int,
                 dl_capacity_bps: int) -> None:
        if not cells:
            raise ValueError("need at least one cell")
        self.tick_ns = tick_ns
        self.scheduler = scheduler
        # every cell serves each direction with the same per-tick budget
        self.budgets = {Direction.UPLINK: ul_capacity_bps * tick_ns // 1_000_000_000,
                        Direction.DOWNLINK: dl_capacity_bps * tick_ns // 1_000_000_000}
        for direction, budget in self.budgets.items():
            if budget <= 0:
                raise ValueError(f"{direction.value} capacity gives {budget} "
                                 f"bits per tick, which never drain a queue")
        self.cells: dict[int, Cell] = {c.cell_id: c for c in cells}
        if len(self.cells) != len(cells):
            raise ValueError("cell ids must be unique")
        self.flows: dict[str, FlowQueue] = {}
        self._groups: list[_FlowGroup] | None = None
        # application packets enqueued so far: the last part of their keys
        self._app_packets = 0
        # the rank of the application packets `enqueue` adds (see SimWorld)
        self.event_rank = -1
        self.set_mobility(cells[0].cell_id, [])

    def add_flow(self, flow_id: str, direction: Direction,
                 priority_class: PriorityClass, cell_id: int | None,
                 queue_cap_bytes: int | None) -> FlowQueue:
        """Add a flow served in cell `cell_id`, or with None one that follows
        the mobile terminal (see the module docstring); an application flow
        never drops, and its cap is None."""
        if flow_id in self.flows:
            raise ValueError(f"duplicate flow id {flow_id}")
        if cell_id is not None and cell_id not in self.cells:
            raise ValueError(f"unknown cell {cell_id}")
        q = FlowQueue(flow_id, direction, priority_class, cell_id, queue_cap_bytes)
        self.flows[flow_id] = q
        self._groups = None
        self._eligible = (math.inf, -math.inf, [])
        return q

    def set_mobility(self, initial_cell: int,
                     events: Iterable[HandoverEvent]) -> None:
        """Install the mobile terminal's first serving cell and the
        handovers that switch it, each interrupting its service."""
        # the mobile terminal's handovers, sorted by time
        self.handovers = sorted(events, key=attrgetter("time_ns"))
        if any(ev.interruption_ns < 0 for ev in self.handovers):
            raise ValueError("a handover interruption cannot be negative")
        starts = [ev.time_ns for ev in self.handovers]
        ends = sorted(t + ev.interruption_ns for t, ev in zip(starts, self.handovers))
        # the sorted times at which a handover or an interruption's end
        # changes the terminal's state, and for each k its state (serving
        # cell, interrupted) at every instant of [bounds[k-1], bounds[k]):
        # the cell the last handover by then switched to, and whether more
        # interruptions have started than ended by then
        self._bounds = sorted(set(starts + ends))
        cells = [initial_cell] + [ev.to_cell for ev in self.handovers]
        self._states = [(cells[n := bisect_right(starts, t)], n > bisect_right(ends, t))
                        for t in [-math.inf] + self._bounds]
        # (lo, hi, serving, suspended): the state of every tick in [lo, hi),
        # and (lo, hi, the groups with flows eligible in it); none yet
        self._segment = (math.inf, -math.inf, initial_cell, False)
        self._eligible = (math.inf, -math.inf, [])

    def interrupted(self, start_ns: int, end_ns: int) -> bool:
        """Whether a handover interruption overlaps [start_ns, end_ns)."""
        return start_ns < end_ns and self._locate(start_ns, end_ns)[3]

    def _locate(self, start_ns: int, end_ns: int) -> tuple:
        """The segment (lo, hi, serving cell, suspended) of [start_ns,
        end_ns): the span between two bounds that holds it, or, if a bound
        falls inside it, the range alone and suspended.  An interruption
        then overlaps the range: one covers start_ns, or else the first
        bound after start_ns is where one starts (one that ends there
        started after start_ns, and at or before the bound)."""
        bounds = self._bounds
        k = bisect_right(bounds, start_ns)
        serving, suspended = self._states[k]
        hi = bounds[k] if k < len(bounds) else math.inf
        if end_ns > hi:
            return start_ns, end_ns, serving, True
        return (bounds[k - 1] if k else -math.inf), hi, serving, suspended

    def enqueue(self, flow_id: str, size_bits: int, time_ns: int,
                meta: dict | None = None) -> bool:
        """Enqueue one application packet, keyed (time_ns, event_rank, its
        number); False if it was tail-dropped.  Its key cannot order it
        against a CBR-source packet of another queue with the same time and
        rank, so serving the two next to each other raises ValueError (see
        _serve_fifo); SimWorld's ranks never give such a pair."""
        if size_bits <= 0:
            raise ValueError("packet size must be positive")
        self._app_packets += 1
        return self.flows[flow_id].admit(self._app_packets, 1, size_bits,
                                         self.event_rank, None, time_ns, meta) == 1

    def enqueue_run(self, src, rank: int, first: int, end: int) -> int:
        """Enqueue packets `first` .. `end - 1` of CBR source `src` into its
        flow, packet n keyed (src.packet_time(n), rank, n); returns how many
        were accepted.  Served, they yield no Delivery."""
        if first >= end or src.packet_bits <= 0:
            raise ValueError("run needs a positive count and packet size")
        return self.flows[src.flow_id].admit(first, end - first, src.packet_bits,
                                             rank, src)

    def _flow_groups(self) -> list[_FlowGroup]:
        if self._groups is None:
            self._groups = []
            for cell_id in self.cells:
                for direction, budget in self.budgets.items():
                    flows = [q for q in self.flows.values()
                             if q.direction is direction
                             and q.cell_id in (None, cell_id)]
                    if not flows:
                        continue
                    fixed = [q for q in flows if q.cell_id is not None]
                    # only background flows are droppable
                    views = [(eligible, [q for q in eligible if not q.droppable],
                              bg := [q for q in eligible if q.droppable],
                              len(bg) <= 1)
                             for eligible in (fixed, flows)]
                    self._groups.append(_FlowGroup(cell_id, direction, budget, views))
        return self._groups

    def run_tick(self, tick_start: int) -> list[Delivery]:
        tick_end = tick_start + self.tick_ns
        lo, hi, groups = self._eligible
        if tick_start < lo or tick_end > hi:
            # the segment's groups with eligible flows, each with its view
            lo, hi, serving, suspended = self._segment = self._locate(tick_start, tick_end)
            groups = [(group, *view) for group in self._flow_groups()
                      if (view := group.views[serving == group.cell_id and not suspended])[0]]
            self._eligible = (lo, hi, groups)
        deliveries: list[Delivery] = []
        for group, eligible, app, bg, bulk in groups:
            for q in eligible:
                if q.backlog_bits:
                    break
            else:
                continue  # nothing to serve, so every per-group check holds
            completed: list[Completion] = []
            if self.scheduler is SchedulerKind.AP:
                served = _serve_fifo(app, group.budget, completed, True)
                bg_served = _serve_waterfill(bg, group.budget - served, completed)
                served += bg_served
                if bg_served > 0 and any(q.backlog_bits for q in app):
                    raise InvariantViolation(
                        f"priority dominance broken in cell {group.cell_id} "
                        f"{group.direction.value}")
            else:
                served = _serve_fifo(eligible, group.budget, completed, bulk)
            _check_group(group, served, eligible)
            for q, packet in completed:
                deliveries.append(Delivery(q.flow_id, packet.size_bits,
                                           packet.enqueue_ns, tick_end,
                                           group.cell_id, packet.meta))
        _check_flows(self.flows.values())
        return deliveries


class SimWorld:
    """Single-threaded deterministic event loop around a LinkSimulator.

    Time advances tick by tick.  Each tick, each constant-bitrate source's
    arrivals in the tick are admitted to its queue at once (`FlowQueue.admit`
    extends the tail run they continue), the tick's timed events fire in
    (time, scheduling) order, then queues are served and deliveries
    dispatched to the handler.  Only application packets
    (`LinkSimulator.enqueue`) are delivered; a served run is counted in its
    queue's accounting.  The base delay after a delivery is the handler's
    (SimPipeline's).

    Packets are served in the order of their keys (time, rank, number), not
    of their enqueue calls.  Packet n of cbr_sources[i] is keyed
    (packet_time(n), i, n), an application packet (enqueue time, the rank
    of its event, its enqueue count).  The one tie rule: at one instant,
    events pending from before the tick come first (rank -1, as is an
    enqueue outside an event), then arrivals in source order, then events
    scheduled during the tick (rank len(cbr_sources)).  A whole tick's
    arrivals are enqueued at once, which is exact: nothing is served
    before the tick ends, only background flows drop, each on its own
    backlog and arrivals, and no event reads a background queue.  An event
    enqueues at its own firing time and schedules nothing before it:
    while an event fires or a delivery is handled, now_ns is its time, and
    schedule refuses an earlier one.
    Two worlds built from the same configuration and seeds produce
    identical deliveries and accounting.

    Between ticks, _next[i] == cbr_sources[i].count_before(now_ns): the
    world keeps each source's next packet, and every tick advances it.

    run_until skips a tick whose outcome is known: no heap event falls in
    it, no flow holds backlog at its start, and either no CBR source is
    live or every source's fullest tick fits (see _sources_block_until).
    Its arrivals then enter empty queues, drop nothing and are all served
    by BL or AP within the tick, which delivers nothing and leaves every
    queue empty, so every per-tick invariant holds.  Time jumps over such
    ticks in whole ticks, and each source's arrivals in them are added to
    its flow's offered and served bits; an idle span has none.

    Under AP, run_until also advances the ticks up to the next event's, or
    to until_ns, in one call (_advance_span), counted as skipped, when no
    heap event falls in the next tick, only the CBR-fed flows hold
    backlog, none of them an application packet, and each is a background
    flow fixed to a cell.  Such a span admits and serves CBR runs only, by
    the rules stepping uses: it delivers nothing, so done() cannot change,
    and the invariants are checked on every tick it advances.
    """

    def __init__(self, link: LinkSimulator, start_ns: int = 0,
                 cbr_sources: Iterable = ()) -> None:
        self.link = link
        self.tick_ns = link.tick_ns
        self.start_ns = start_ns
        self.now_ns = start_ns
        self.on_delivery: Callable[[Delivery], None] | None = None
        # objects with .flow_id, .start_ns, .packet_bits, .rate_bps,
        # .stop_ns, .packet_time(k) and .count_before(t), like
        # loadgen.CbrPacketSource, fixed for the world's life; source i
        # feeds flow src.flow_id at rank i
        self.cbr_sources = tuple(cbr_sources)
        self._next = [src.count_before(start_ns) for src in self.cbr_sources]
        # (rank, source, packet bits, its queue's admit) per source, bound
        # at the first arrivals: the flows may be added after the world
        self._feeds: list[tuple] | None = None
        self._heap: list[tuple[int, int, Callable[[int], None]]] = []
        self._heap_seq = 0
        self.ticks_run = 0
        self.ticks_skipped = 0

    def schedule(self, time_ns: int, callback: Callable[[int], None]) -> None:
        if time_ns < self.now_ns:
            raise ValueError(f"cannot schedule event at {time_ns} before now {self.now_ns}")
        self._heap_seq += 1
        heapq.heappush(self._heap, (time_ns, self._heap_seq, callback))

    def _enqueue_arrivals(self, t: int) -> None:
        """Admit each source's packets from _next[i] up to count_before(t)
        into its queue, and advance _next[i] to count_before(t)."""
        nexts = self._next
        feeds = self._feeds
        if feeds is None:
            flows = self.link.flows
            feeds = self._feeds = [(rank, src, src.packet_bits,
                                    flows[src.flow_id].admit)
                                   for rank, src in enumerate(self.cbr_sources)]
        for rank, src, size_bits, admit in feeds:
            first = nexts[rank]
            end = src.count_before(t)
            if first < end:
                admit(first, end - first, size_bits, rank, src)
                nexts[rank] = end

    def run_tick(self) -> list[Delivery]:
        tick_start = self.now_ns
        tick_end = tick_start + self.tick_ns
        link = self.link
        if self.cbr_sources:
            self._enqueue_arrivals(tick_end)
        heap = self._heap
        if heap and heap[0][0] < tick_end:
            pending_before = self._heap_seq
            rank_after = len(self.cbr_sources)
            while heap and heap[0][0] < tick_end:
                event_ns, seq, callback = heapq.heappop(heap)
                link.event_rank = -1 if seq <= pending_before else rank_after
                self.now_ns = event_ns
                callback(event_ns)
            link.event_rank = -1
        deliveries = link.run_tick(tick_start)
        # every delivery is at the tick's end
        self.now_ns = tick_end
        if self.on_delivery is not None:
            for d in deliveries:
                self.on_delivery(d)
        self.ticks_run += 1
        return deliveries

    def _sources_block_until(self, feeds: list[tuple[int, object, FlowQueue]]) -> float:
        """A time from which on the CBR sources block no skip.

        It is -inf if the sources' fullest ticks fit: a tick holds at most
        tick_ns * rate_bps // (packet_bits * 1e9) + 1 packets of a source,
        as packet times are floors; summed per flow they must fit the cap
        of a droppable flow, and summed per cell and direction that cell's
        budget.  A flow without a cell never fits: a handover can suspend
        it.  Otherwise it is the time from which on no source has an
        arrival left."""
        flow_bits: dict[FlowQueue, int] = {}
        cell_bits: dict[tuple[int | None, Direction], int] = {}
        for _, src, q in feeds:
            bits = src.packet_bits * (
                self.tick_ns * src.rate_bps // (src.packet_bits * 1_000_000_000) + 1)
            flow_bits[q] = flow_bits.get(q, 0) + bits
            cell = (q.cell_id, q.direction)
            cell_bits[cell] = cell_bits.get(cell, 0) + bits
        budgets = self.link.budgets
        if (all(q.cell_id is not None and (not q.droppable or bits <= q.cap_bits)
                for q, bits in flow_bits.items())
                and all(bits <= budgets[direction]
                        for (_, direction), bits in cell_bits.items())):
            return -math.inf
        live_until = -math.inf
        for _, src, _ in feeds:
            if src.stop_ns is None:
                return math.inf
            live_until = max(live_until, src.stop_ns)
        return live_until

    def _advance_span(self, n: int,
                      groups: list[tuple[_FlowGroup, list[FlowQueue]]]) -> None:
        """Advance n AP ticks in which only the CBR-fed background flows
        of `groups`, each cell direction with its background flows fixed to
        the cell, hold packets (see run_until), as running them would: each
        tick enqueues its arrivals as run_tick does, serves each group's
        flows by _serve_waterfill and checks the invariants run_tick checks
        on the flows it touches."""
        touched = [q for _, bg in groups for q in bg]
        completed: list[Completion] = []  # a CBR run completes nothing
        t = self.now_ns
        for _ in range(n):
            t += self.tick_ns
            self._enqueue_arrivals(t)
            for group, bg in groups:
                served = _serve_waterfill(bg, group.budget, completed)
                _check_group(group, served, bg)
            _check_flows(touched)
        self.now_ns = t
        self.ticks_skipped += n

    def run_until(self, until_ns: int,
                  done: Callable[[], bool] | None = None) -> None:
        """Run ticks until now_ns reaches until_ns, or until done() holds
        before a tick.  A tick whose outcome is known is skipped, and a span
        of AP ticks with nothing to decide is advanced in one call, not run;
        the state at the end is the one running them would leave."""
        tick_ns = self.tick_ns
        heap = self._heap
        link = self.link
        flows = link.flows
        # a source without a rate never arrives
        feeds = [(rank, src, flows[src.flow_id])
                 for rank, src in enumerate(self.cbr_sources) if src.rate_bps > 0]
        blocked_until = self._sources_block_until(feeds)
        queues = flows.values()
        fed = {q for _, _, q in feeds}
        # spans need AP and fed flows that drop and are fixed to a cell (the
        # cell rule of _sources_block_until); every other flow must be empty
        span_groups = None
        if (link.scheduler is SchedulerKind.AP and fed
                and all(q.droppable and q.cell_id is not None for q in fed)):
            span_groups = [(g, g.views[0][2]) for g in link._flow_groups()
                           if not fed.isdisjoint(g.views[0][2])]
            unfed = [q for q in queues if q not in fed]
            source_of = attrgetter("src")
        while self.now_ns < until_ns and (done is None or not done()):
            now = self.now_ns
            if not heap or heap[0][0] >= now + tick_ns:
                idle = now >= blocked_until and not any(q.backlog_bits for q in queues)
                # a span needs the unfed queues empty and no application
                # packet (a run with no source) in a fed one, which it
                # would deliver
                if idle or (span_groups is not None
                            and not any(q.backlog_bits for q in unfed)
                            and not any(None in map(source_of, q.packets)
                                        for q in fed)):
                    # every tick before the one holding the next event, and
                    # every tick needed to reach until_ns
                    n = -(-(until_ns - now) // tick_ns)
                    if heap:
                        n = min(n, (heap[0][0] - now) // tick_ns)
                    if not idle:
                        self._advance_span(n, span_groups)
                        continue
                    end = now + n * tick_ns
                    # each skipped tick serves its arrivals in full; an
                    # idle span has none
                    for rank, src, q in feeds:
                        end_count = src.count_before(end)
                        bits = (end_count - self._next[rank]) * src.packet_bits
                        self._next[rank] = end_count
                        q.offered_bits += bits
                        q.served_bits += bits
                    self.now_ns = end
                    self.ticks_skipped += n
                    continue
            self.run_tick()
