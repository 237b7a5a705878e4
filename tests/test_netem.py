"""Link emulator tests: tick budgets, scheduling disciplines,
queue invariants, handover geometry, and event-loop determinism."""

from __future__ import annotations

import threading

import pytest

from cv2x_bench import netem
from cv2x_bench.loadgen import CbrPacketSource
from cv2x_bench.netem import (Cell, Direction, HandoverEvent,
                              InvariantViolation, LinkSimulator, MobilityRoute,
                              PriorityClass, SchedulerKind, SimWorld,
                              apply_handover)
from config_defaults import (HYSTERESIS_M, INTERRUPTION_NS, QUEUE_CAP_BYTES,
                             TICK_NS, make_link)

MS = 1_000_000
UL, DL = Direction.UPLINK, Direction.DOWNLINK
APP, BG = PriorityClass.APPLICATION, PriorityClass.BACKGROUND


def test_tick_budgets_of_the_config_defaults():
    assert make_link([Cell(1)]).budgets == {UL: 100_000, DL: 325_000}
    with pytest.raises(ValueError, match="UL capacity gives 0 bits"):
        make_link([Cell(1)], tick_ns=0)
    # 400 bps fills one bit per 2.5 ms tick, 399 bps none
    with pytest.raises(ValueError, match="DL capacity gives 0 bits"):
        make_link([Cell(1)], dl_capacity_bps=399)
    assert make_link([Cell(1)], dl_capacity_bps=400).budgets[DL] == 1


def _one_cell_link(scheduler: SchedulerKind) -> LinkSimulator:
    return make_link([Cell(1)], scheduler=scheduler)


@pytest.mark.parametrize("rate_bps,first,flows", [
    # source packets 0, 1, 2 at 0, 800 and 1600 us; the application packet
    # is keyed (0, 0, 1), between source packet 0 and the next
    (1_000_000, 0, ("a", "bg")),
    # packets 1 and 2 both at 0 ns: source packet 1 and the application
    # packet share the whole key (0, 0, 1), and the source's queue is first
    (10**13, 1, ("bg", "a")),
    # packets 2, 3 and 4 all at 0 ns: the application packet, keyed (0, 0,
    # 1), sorts first, and source packet 2 follows it from the one queue
    # left
    (10**13, 2, ("a", "bg")),
])
def test_an_application_packet_and_a_source_run_tied_on_time_and_rank(
        rate_bps, first, flows):
    link = _one_cell_link(SchedulerKind.BL)
    for flow_id in flows:
        link.add_flow(flow_id, UL, APP if flow_id == "a" else BG, 1, QUEUE_CAP_BYTES)
    src = CbrPacketSource("bg", rate_bps, 100)
    link.event_rank = 0
    link.enqueue("a", 8000, 0)
    link.enqueue_run(src, 0, first, 3)
    raised: list[ValueError] = []

    def run() -> None:
        try:
            link.run_tick(0)
        except ValueError as exc:
            raised.append(exc)
    # the tie once left run_tick serving 0 bits forever
    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(10)
    assert not worker.is_alive(), "run_tick did not return"
    [exc] = raised
    assert "share time 0 and rank 0" in str(exc)


def test_only_background_flows_need_a_positive_queue_cap():
    link = _one_cell_link(SchedulerKind.BL)
    with pytest.raises(ValueError, match="positive queue cap"):
        link.add_flow("bg", UL, BG, 1, 0)
    link.add_flow("app", UL, APP, 1, 0)  # never drops, so its cap is unused
    assert link.enqueue("app", 8_000, 0) is True


def test_ap_serves_application_first():
    link = _one_cell_link(SchedulerKind.AP)
    link.add_flow("app", UL, APP, 1, None)
    link.add_flow("bg", UL, BG, 1, 10_000_000)
    link.enqueue("bg", 1_000_000, 0)
    link.enqueue("app", 16_000, 0)
    deliveries = link.run_tick(0)
    app_q, bg_q = link.flows["app"], link.flows["bg"]
    assert app_q.served_bits == 16_000 and app_q.backlog_bits == 0
    assert bg_q.served_bits == 84_000
    assert {d.flow_id for d in deliveries} == {"app"}


def test_ap_background_residual_split_fairly():
    link = _one_cell_link(SchedulerKind.AP)
    link.add_flow("app", UL, APP, 1, None)
    link.add_flow("bg0", UL, BG, 1, 10_000_000)
    link.add_flow("bg1", UL, BG, 1, 10_000_000)
    link.enqueue("bg0", 1_000_000, 0)
    link.enqueue("bg1", 1_000_000, 0)
    link.enqueue("app", 16_000, 0)
    link.run_tick(0)
    assert link.flows["app"].served_bits == 16_000
    assert link.flows["bg0"].served_bits == 42_000
    assert link.flows["bg1"].served_bits == 42_000


@pytest.mark.parametrize("app_bits,backlogs,served", [
    # 83,999 bits left: 27,999 to each flow, then the 2-bit remainder to
    # the first flow in order
    (16_001, (1_000_000, 1_000_000, 1_000_000), (28_001, 27_999, 27_999)),
    # 84,000 bits left: the short flow empties on its 28,000-bit share, and
    # the two others split what it left
    (16_000, (1_000_000, 1_000_000, 10_000), (37_000, 37_000, 10_000)),
], ids=["remainder-to-first", "short-flow-empties"])
def test_ap_water_fill_splits_the_residual_max_min_fair(app_bits, backlogs, served):
    link = _one_cell_link(SchedulerKind.AP)  # 100,000 bits a tick uplink
    link.add_flow("app", UL, APP, 1, None)
    for i, bits in enumerate(backlogs):
        link.add_flow(f"bg{i}", UL, BG, 1, 10_000_000)
        link.enqueue(f"bg{i}", bits, 0)
    link.enqueue("app", app_bits, 0)
    link.run_tick(0)
    assert link.flows["app"].served_bits == app_bits
    assert tuple(link.flows[f"bg{i}"].served_bits for i in range(3)) == served


def test_bl_work_conserving_when_application_arrives_first():
    # the application packet is older than the backlog, so it drains fully
    # and the residual budget goes to the background queue
    link = _one_cell_link(SchedulerKind.BL)
    link.add_flow("app", UL, APP, 1, None)
    link.add_flow("bg", UL, BG, 1, 10_000_000)
    link.enqueue("app", 16_000, 0)
    link.enqueue("bg", 1_000_000, 0)
    link.run_tick(0)
    assert link.flows["app"].served_bits == 16_000
    assert link.flows["bg"].served_bits == 84_000


def test_bl_is_arrival_ordered_best_effort():
    # under BL there is no QoS differentiation: earlier background bytes
    # delay the application packet
    link = _one_cell_link(SchedulerKind.BL)
    link.add_flow("app", UL, APP, 1, None)
    link.add_flow("bg", UL, BG, 1, 10_000_000)
    link.enqueue("bg", 150_000, 0)
    link.enqueue("app", 16_000, 0)
    deliveries = link.run_tick(0)
    assert link.flows["bg"].served_bits == 100_000
    assert link.flows["app"].served_bits == 0
    assert deliveries == []
    deliveries = link.run_tick(link.tick_ns)
    assert {d.flow_id for d in deliveries} == {"bg", "app"}


def test_bl_overload_backlog_grows_at_excess_rate_until_cap():
    # two background flows each offering 40 Mbps into 40 Mbps of capacity:
    # the aggregate backlog grows by one tick budget per tick (40 Mbps)
    # until the per-flow caps engage
    cap_bytes = 125_000  # 1 Mbit per flow
    link = _one_cell_link(SchedulerKind.BL)
    link.add_flow("bg0", UL, BG, 1, cap_bytes)
    link.add_flow("bg1", UL, BG, 1, cap_bytes)
    per_tick_per_flow = 100_000  # 40 Mbps x 2.5 ms
    growth = []
    for tick in range(40):
        t = tick * link.tick_ns
        for flow in ("bg0", "bg1"):
            link.enqueue(flow, per_tick_per_flow, t)
        link.run_tick(t)
        growth.append(link.flows["bg0"].backlog_bits
                      + link.flows["bg1"].backlog_bits)
    deltas = [b - a for a, b in zip(growth, growth[1:])]
    assert deltas[0] == 100_000  # 40 Mbps of growth while below cap
    assert all(d == 100_000 for d in deltas[:8])
    assert growth[-1] <= 2 * cap_bytes * 8
    assert link.flows["bg0"].dropped_bits > 0


def test_droppable_tail_drop_on_enqueue_only():
    link = _one_cell_link(SchedulerKind.BL)
    link.add_flow("bg", UL, BG, 1, 10_000)
    assert link.enqueue("bg", 60_000, 0) is True
    assert link.enqueue("bg", 60_000, 0) is False  # would exceed 80k bit cap
    q = link.flows["bg"]
    assert q.backlog_bits == 60_000
    assert q.dropped_bits == 60_000
    assert q.offered_bits == 120_000


def test_reliable_flow_never_drops():
    link = _one_cell_link(SchedulerKind.BL)
    link.add_flow("app", UL, APP, 1, None)
    for i in range(100):
        assert link.enqueue("app", 500_000, 0) is True
    assert link.flows["app"].dropped_bits == 0


def test_conservation_counters_hold_across_ticks():
    link = _one_cell_link(SchedulerKind.BL)
    link.add_flow("app", UL, APP, 1, None)
    link.add_flow("bg", UL, BG, 1, 50_000)
    for tick in range(50):
        t = tick * link.tick_ns
        link.enqueue("app", 30_000, t)
        link.enqueue("bg", 90_000, t)
        link.run_tick(t)  # raises InvariantViolation on any breakage
    for q in link.flows.values():
        assert q.offered_bits - q.served_bits - q.dropped_bits == q.backlog_bits


def test_invariant_checks_are_live():
    link = _one_cell_link(SchedulerKind.BL)
    link.add_flow("app", UL, APP, 1, None)
    link.enqueue("app", 10_000, 0)
    link.flows["app"].backlog_bits += 1  # corrupt the accounting
    with pytest.raises(InvariantViolation):
        link.run_tick(0)


# each per-tick check of run_tick raises on state that breaks only it: the
# other checks hold, so a run_tick without that check raises nothing

def test_service_over_the_budget_raises(monkeypatch):
    link = _one_cell_link(SchedulerKind.BL)
    link.add_flow("app", UL, APP, 1, None)
    link.enqueue("app", 10_000, 0)
    serve_fifo = netem._serve_fifo

    def over_reported(queues, budget, completed, bulk):
        # a scheduler that reports a whole budget more than it served
        return serve_fifo(queues, budget, completed, bulk) + budget

    monkeypatch.setattr(netem, "_serve_fifo", over_reported)
    with pytest.raises(InvariantViolation, match="over budget"):
        link.run_tick(0)


def test_unbalanced_flow_accounting_raises():
    link = _one_cell_link(SchedulerKind.BL)
    link.add_flow("app", UL, APP, 1, None)
    link.enqueue("app", 10_000, 0)
    link.flows["app"].offered_bits += 1  # one bit offered but never queued
    with pytest.raises(InvariantViolation, match="conservation broken for flow app"):
        link.run_tick(0)


def test_a_backlog_over_the_queue_cap_raises():
    link = _one_cell_link(SchedulerKind.BL)
    link.add_flow("bg", UL, BG, 1, queue_cap_bytes=100_000)
    budget = link.budgets[UL]
    link.enqueue("bg", 3 * budget, 0)
    link.flows["bg"].cap_bits = budget  # the two budgets left exceed it
    with pytest.raises(InvariantViolation, match="queue cap exceeded for flow bg"):
        link.run_tick(0)


def test_background_served_past_a_waiting_application_raises():
    link = _one_cell_link(SchedulerKind.AP)
    link.add_flow("app", UL, APP, 1, None)
    link.add_flow("bg", UL, BG, 1, QUEUE_CAP_BYTES)
    link.enqueue("app", 8_000, 0)
    link.enqueue("bg", 2 * link.budgets[UL], 0)
    # bits that no packet carries: the application queue seems to wait
    # after its packet is served, and its accounting still balances
    app = link.flows["app"]
    app.offered_bits += 1
    app.backlog_bits += 1
    with pytest.raises(InvariantViolation, match="priority dominance broken"):
        link.run_tick(0)


# -- handover ---------------------------------------------------------------

TWO_CELLS = [Cell(1, (0.0, 0.0)), Cell(2, (200.0, 0.0))]


def test_route_near_one_cell_yields_no_events():
    route = MobilityRoute(((0, 10.0, 0.0), (10_000_000_000, 20.0, 0.0)))
    assert apply_handover(route, TWO_CELLS, hysteresis_m=HYSTERESIS_M,
                          interruption_ns=INTERRUPTION_NS,
                          sample_ns=TICK_NS) == (1, [])


def test_straight_route_emits_one_event_at_hysteresis_crossing():
    # vehicle drives 200 m from cell 2 toward cell 1 at 1 m/s; the switch
    # condition dist(c1) < dist(c2) - 5 m first holds past s = 102.5 m, so
    # with 2.5 ms route sampling the event lands at 102.5025 s
    route = MobilityRoute(((0, 200.0, 0.0), (200_000_000_000, 0.0, 0.0)))
    start_cell, events = apply_handover(route, TWO_CELLS, hysteresis_m=5.0,
                                        interruption_ns=50 * MS, sample_ns=2_500_000)
    assert start_cell == 2
    assert len(events) == 1
    ev = events[0]
    assert (ev.from_cell, ev.to_cell) == (2, 1)
    assert ev.time_ns == 102_502_500_000
    assert ev.interruption_ns == 50 * MS


def test_empty_route_rejected():
    with pytest.raises(ValueError):
        MobilityRoute(())


def test_no_service_to_suspended_terminal_inside_window():
    link = make_link(TWO_CELLS, scheduler=SchedulerKind.BL)
    link.add_flow("dl", DL, APP, None, None)
    event = HandoverEvent(time_ns=10 * link.tick_ns, from_cell=2, to_cell=1,
                          interruption_ns=20 * link.tick_ns)
    link.set_mobility(2, [event])
    window_end = event.time_ns + event.interruption_ns
    deliveries = []
    for tick in range(40):
        if tick == 11:
            link.enqueue("dl", 8_000, tick * link.tick_ns)
        deliveries += link.run_tick(tick * link.tick_ns)
    assert len(deliveries) == 1
    assert deliveries[0].delivery_ns == window_end + link.tick_ns
    assert deliveries[0].cell_id == 1  # served by the new cell


def test_a_flow_with_a_cell_is_served_through_a_handover():
    # the vehicle leaves cell 2 at 0 and is out of service for 10 ticks;
    # the flow fixed to cell 2 is not, the one that follows the vehicle is
    link = make_link(TWO_CELLS, scheduler=SchedulerKind.BL)
    link.add_flow("ul", UL, APP, 2, None)
    link.add_flow("dl", DL, APP, None, None)
    link.set_mobility(2, [HandoverEvent(time_ns=0, from_cell=2, to_cell=1,
                                        interruption_ns=10 * link.tick_ns)])
    link.enqueue("ul", 8_000, 0)
    link.enqueue("dl", 8_000, 0)
    assert [(d.flow_id, d.cell_id) for d in link.run_tick(0)] == [("ul", 2)]


def test_serving_cell_timeline():
    # a handover at tick 4 with no interruption: cell 2 serves the terminal
    # up to tick 3, and cell 1 from tick 4 on
    link = make_link(TWO_CELLS)
    link.add_flow("dl", DL, APP, None, None)
    link.set_mobility(2, [HandoverEvent(time_ns=4 * link.tick_ns, from_cell=2,
                                        to_cell=1, interruption_ns=0)])
    cells = []
    for tick in (0, 3, 4, 9):
        link.enqueue("dl", 8_000, tick * link.tick_ns)
        cells += [d.cell_id for d in link.run_tick(tick * link.tick_ns)]
    assert cells == [2, 2, 1, 1]


# -- event loop -------------------------------------------------------------

def _run_world_with_cbr(rate_bps: int, until_ns: int):
    """Application packets sharing a BL uplink with CBR background load;
    returns the deliveries, each flow's accounting and the ticks run."""
    link = make_link([Cell(1)], scheduler=SchedulerKind.BL)
    link.add_flow("bg", UL, BG, 1, 10_000_000)
    link.add_flow("app", UL, APP, 1, None)
    world = SimWorld(link, cbr_sources=[CbrPacketSource("bg", rate_bps, 1400)])
    deliveries = []
    world.on_delivery = deliveries.append
    for k in range(50):
        world.schedule(k * 9_700_000,
                       lambda now: link.enqueue("app", 8_000, now, meta={"at": now}))
    world.run_until(until_ns)
    accounting = [(fid, q.offered_bits, q.served_bits, q.dropped_bits,
                   q.backlog_bits) for fid, q in link.flows.items()]
    return deliveries, accounting, world.ticks_run


def test_same_config_produces_identical_deliveries():
    a = _run_world_with_cbr(17_000_000, 500_000_000)
    b = _run_world_with_cbr(17_000_000, 500_000_000)
    assert a == b
    deliveries, accounting, _ = a
    assert len(deliveries) == 50
    # the background load was served too, in runs that make no Delivery
    assert all(d.flow_id == "app" for d in deliveries)
    assert accounting[0][0] == "bg" and accounting[0][2] > 0


def test_idle_link_latency_is_alignment_plus_constant():
    # 1 kB frames at 10 Hz on an idle uplink: every packet is delivered at
    # the end of its arrival tick, i.e. within one tick of slot alignment
    link = make_link([Cell(1)], scheduler=SchedulerKind.BL)
    link.add_flow("app", UL, APP, 1, None)
    world = SimWorld(link)
    delays = []
    world.on_delivery = lambda d: delays.append(d.delivery_ns - d.enqueue_ns)

    def enqueue(now_ns: int) -> None:
        link.enqueue("app", 8_000, now_ns)

    for k in range(20):
        world.schedule(k * 100_000_000, enqueue)
    world.run_until(2_100_000_000)
    assert len(delays) == 20
    assert all(0 < d <= link.tick_ns for d in delays)
    assert len(set(delays)) == 1  # constant across packets


def test_schedule_in_the_past_rejected():
    world = SimWorld(make_link([Cell(1)]))
    world.run_tick()
    with pytest.raises(ValueError):
        world.schedule(0, lambda t: None)


def test_an_event_schedules_nothing_before_itself():
    # both times fall in the first 2.5 ms tick, whose start stays at 0
    world = SimWorld(make_link([Cell(1)]))
    world.schedule(2 * MS, lambda t: world.schedule(1 * MS, lambda t: None))
    with pytest.raises(ValueError, match=f"at {1 * MS} before now {2 * MS}"):
        world.run_tick()


def test_a_delivery_schedules_nothing_before_itself():
    link = make_link([Cell(1)])
    link.add_flow("app", UL, APP, 1, None)
    world = SimWorld(link)
    world.on_delivery = lambda d: world.schedule(d.delivery_ns - 1, print)
    link.enqueue("app", 8_000, 0)
    with pytest.raises(ValueError, match=f"before now {world.tick_ns}"):
        world.run_tick()


def test_an_event_may_schedule_at_its_own_time():
    world = SimWorld(make_link([Cell(1)]))
    fired: list[tuple[str, int]] = []

    def parent(t: int) -> None:
        fired.append(("parent", t))
        world.schedule(t, lambda t: fired.append(("child", t)))

    world.schedule(2 * MS, parent)
    world.run_tick()
    assert fired == [("parent", 2 * MS), ("child", 2 * MS)]
    assert world.now_ns == world.tick_ns
