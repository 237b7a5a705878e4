"""apply_handover's one-pass route walk, which skips the samples that
cannot switch, against the per-sample loop it replaced, kept here verbatim
as the reference together with the segment search that located each
sample; and the link's mobility state, worked out once per segment between
handover bounds, against the per-tick lookups it replaced."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cv2x_bench import netem, scenario
from cv2x_bench.netem import (Cell, HandoverEvent, LinkSimulator,
                              MobilityRoute, apply_handover)
from config_defaults import HYSTERESIS_M, INTERRUPTION_NS, TICK_NS, make_link
from shipped_matrix import shipped_matrix


def _distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def position_at(route: MobilityRoute, time_ns: int) -> tuple[float, float]:
    pts = route.waypoints
    if time_ns <= pts[0][0]:
        return pts[0][1], pts[0][2]
    if time_ns >= pts[-1][0]:
        return pts[-1][1], pts[-1][2]
    for (t0, x0, y0), (t1, x1, y1) in zip(pts, pts[1:]):
        if t0 <= time_ns <= t1:
            f = (time_ns - t0) / (t1 - t0)
            return x0 + f * (x1 - x0), y0 + f * (y1 - y0)
    raise AssertionError("unreachable")


def reference_apply_handover(route: MobilityRoute, cells: list[Cell],
                             hysteresis_m: float = HYSTERESIS_M,
                             interruption_ns: int = INTERRUPTION_NS,
                             sample_ns: int = TICK_NS) -> list[HandoverEvent]:
    if len(cells) < 2:
        raise ValueError("handover needs at least two cells")
    if sample_ns <= 0:
        raise ValueError("sample interval must be positive")
    start_pos = position_at(route, route.start_ns)
    serving = min(cells, key=lambda c: _distance(start_pos, c.position))
    events: list[HandoverEvent] = []
    t = route.start_ns
    while t <= route.end_ns:
        pos = position_at(route, t)
        nearest = min(cells, key=lambda c: _distance(pos, c.position))
        if (nearest.cell_id != serving.cell_id
                and _distance(pos, nearest.position)
                < _distance(pos, serving.position) - hysteresis_m):
            events.append(HandoverEvent(time_ns=t, from_cell=serving.cell_id,
                                        to_cell=nearest.cell_id,
                                        interruption_ns=interruption_ns))
            serving = nearest
        t += sample_ns
    return events


def _random_case(seed: int):
    rng = random.Random(seed)

    def coord() -> float:
        return rng.choice((rng.uniform(-300, 300), float(rng.randrange(-300, 300)),
                           rng.randrange(-3000, 3000) / 10))

    n_cells = rng.randrange(2, 5)
    positions = [(coord(), coord()) for _ in range(n_cells)]
    if rng.random() < 0.3:
        # two cells at the same position: the first one listed wins a tie
        i, j = rng.sample(range(n_cells), 2)
        positions[j] = positions[i]
    ids = rng.sample(range(1, 10), n_cells)
    cells = [Cell(i, p) for i, p in zip(ids, positions)]
    sample_ns = rng.randrange(1, 40)
    on_grid = rng.random() < 0.5
    times = [rng.randrange(0, 10**6)]
    for _ in range(rng.randrange(0, 5)):
        # on the grid every waypoint time is a sample instant; off it, most
        # segment lengths are not multiples of the sample interval
        step = (sample_ns * rng.randrange(1, 30) if on_grid
                else rng.randrange(1, 30 * sample_ns + 2))
        times.append(times[-1] + step)
    route = MobilityRoute(tuple((t, coord(), coord()) for t in times))
    hysteresis = rng.choice((0.0, rng.uniform(0.0, 40.0), 5.0))
    return route, cells, hysteresis, sample_ns


def test_one_pass_matches_the_per_sample_loop():
    with_events = on_waypoint_events = ties = 0
    for seed in range(1500):
        route, cells, hysteresis, sample_ns = _random_case(seed)
        start_cell, got = apply_handover(route, cells, hysteresis_m=hysteresis,
                                         interruption_ns=seed, sample_ns=sample_ns)
        want = reference_apply_handover(route, cells, hysteresis_m=hysteresis,
                                        interruption_ns=seed, sample_ns=sample_ns)
        assert got == want, f"seed {seed}"
        start = route.waypoints[0][1:]
        assert start_cell == min(
            cells, key=lambda c: _distance(start, c.position)).cell_id
        times = {w[0] for w in route.waypoints}
        with_events += bool(want)
        on_waypoint_events += any(ev.time_ns in times for ev in want)
        ties += len({c.position for c in cells}) < len(cells)
    # the cases exercise what the walk must get right
    assert with_events > 300
    assert on_waypoint_events > 10
    assert ties > 300


@pytest.mark.parametrize("hysteresis", [0.0, 5.0])
def test_switch_on_an_interior_waypoint(hysteresis):
    # at t = 10 the route is at its waypoint x = 60, 40 m from cell 2
    cells = [Cell(1, (0.0, 0.0)), Cell(2, (100.0, 0.0))]
    route = MobilityRoute(((0, 0.0, 0.0), (10, 60.0, 0.0), (20, 100.0, 0.0)))
    _, events = apply_handover(route, cells, hysteresis_m=hysteresis,
                               interruption_ns=INTERRUPTION_NS, sample_ns=5)
    assert events == reference_apply_handover(route, cells, hysteresis_m=hysteresis,
                                              sample_ns=5)
    assert [(e.time_ns, e.from_cell, e.to_cell) for e in events] == [(10, 1, 2)]


def test_interior_waypoint_is_interpolated_not_copied():
    # position_at(10) interpolates the first segment to its end, which
    # lands one ulp past x = 0.9, the midpoint between the cells; the
    # waypoint's own x would tie the distances and not switch
    cells = [Cell(1, (0.9 - 0.6, 0.0)), Cell(2, (0.9 + 0.6, 0.0))]
    route = MobilityRoute(((0, 0.3, 0.0), (10, 0.9, 0.0), (20, 2.1, 0.0)))
    assert position_at(route, 10)[0] > 0.9
    _, events = apply_handover(route, cells, hysteresis_m=0.0,
                               interruption_ns=INTERRUPTION_NS, sample_ns=5)
    assert events == reference_apply_handover(route, cells, hysteresis_m=0.0,
                                              sample_ns=5)
    assert [e.time_ns for e in events] == [10]


@pytest.mark.parametrize("hysteresis,switch_ns", [(0.0, 65), (4.0, 67)])
def test_a_margin_equal_to_the_hysteresis_does_not_switch(hysteresis, switch_ns):
    # x = t exactly; at x = 64 + hysteresis / 2 the margin equals the hysteresis
    cells = [Cell(1, (0.0, 0.0)), Cell(2, (128.0, 0.0))]
    route = MobilityRoute(((0, 0.0, 0.0), (128, 128.0, 0.0)))
    _, events = apply_handover(route, cells, hysteresis_m=hysteresis,
                               interruption_ns=INTERRUPTION_NS, sample_ns=1)
    assert [(e.time_ns, e.from_cell, e.to_cell) for e in events] == [(switch_ns, 1, 2)]


def test_single_waypoint_route_has_no_events():
    cells = [Cell(1), Cell(2, (1.0, 0.0))]
    route = MobilityRoute(((5, 0.9, 0.0),))
    assert apply_handover(route, cells, hysteresis_m=0.0,
                          interruption_ns=INTERRUPTION_NS, sample_ns=1) == (2, [])


def _counting_nearest(monkeypatch) -> list[int]:
    """Count the samples apply_handover evaluates (route start included)."""
    calls = [0]
    nearest = netem._nearest

    def counted(x, y, cells):
        calls[0] += 1
        return nearest(x, y, cells)
    monkeypatch.setattr(netem, "_nearest", counted)
    return calls


def test_shipped_mobility_route_matches_and_skips(monkeypatch):
    matrix = shipped_matrix()
    [cell] = [c for c in matrix.cells if "mobility" in c]
    cfg = scenario._resolve_matrix_cell(matrix, cell)
    net = cfg.network
    route = MobilityRoute(tuple((t + scenario.RUN_EPOCH_NS, x, y)
                                for t, x, y in cfg.mobility.waypoints))
    kwargs = dict(hysteresis_m=net.handover.hysteresis_m,
                  interruption_ns=net.handover.interruption_ns,
                  sample_ns=net.tick_ns)
    want = reference_apply_handover(route, list(net.cells), **kwargs)
    calls = _counting_nearest(monkeypatch)
    assert apply_handover(route, net.cells, **kwargs)[1] == want
    assert len(want) == 1
    # 80,001 samples, of which the walk evaluates 7 besides the start
    assert (route.end_ns - route.start_ns) // net.tick_ns == 80_000
    assert calls[0] < 100


def _skip_case(seed: int):
    """3-5 cells, some mirrored across a straight route so that both stay
    equidistant from it, and a route mixing stationary segments with ones
    that move several hysteresis margins per sample."""
    rng = random.Random(seed)
    angle = rng.uniform(0, 2 * math.pi)
    ux, uy = math.cos(angle), math.sin(angle)
    ox, oy = rng.uniform(-100, 100), rng.uniform(-100, 100)

    def at(s: float, n: float) -> tuple[float, float]:
        # along the route's line at s, n to its side
        return ox + s * ux - n * uy, oy + s * uy + n * ux

    positions = []
    while len(positions) < rng.randrange(3, 6):
        s, n = rng.uniform(-200, 200), rng.uniform(-80, 80)
        positions.append(at(s, n))
        if rng.random() < 0.5:
            positions.append(at(s, -n))
    positions = positions[:5]
    cells = [Cell(i, p) for i, p in zip(rng.sample(range(1, 10), len(positions)),
                                        positions)]
    sample_ns = rng.randrange(1, 20)
    hysteresis = rng.choice((0.0, 5.0, rng.uniform(0.0, 30.0)))
    t, s = rng.randrange(0, 10**6), rng.uniform(-250, 250)
    on_line = rng.random() < 0.5
    waypoints = [(t, *(at(s, 0.0) if on_line else (s, rng.uniform(-50, 50))))]
    for _ in range(rng.randrange(1, 6)):
        kind = rng.random()
        t += sample_ns * rng.randrange(1, 60) + rng.randrange(0, sample_ns)
        if kind < 0.3:
            waypoints.append((t, *waypoints[-1][1:]))  # stationary
        elif kind < 0.6:
            # up to 40 m a sample, past any hysteresis drawn here
            s += rng.choice((-1, 1)) * rng.uniform(0, 40) * (t - waypoints[-1][0]) / sample_ns
            waypoints.append((t, *at(s, 0.0)))
        else:
            s += rng.uniform(-150, 150)
            waypoints.append((t, *(at(s, 0.0) if on_line
                                   else (s, rng.uniform(-50, 50)))))
    return MobilityRoute(tuple(waypoints)), cells, hysteresis, sample_ns


def test_skipping_walk_matches_the_per_sample_loop():
    with_events = stationary = fast = equidistant = 0
    for seed in range(600):
        route, cells, hysteresis, sample_ns = _skip_case(seed)
        _, got = apply_handover(route, cells, hysteresis_m=hysteresis,
                                interruption_ns=seed, sample_ns=sample_ns)
        want = reference_apply_handover(route, cells, hysteresis_m=hysteresis,
                                        interruption_ns=seed, sample_ns=sample_ns)
        assert got == want, f"seed {seed}"
        pts = route.waypoints
        with_events += bool(want)
        stationary += any(a[1:] == b[1:] for a, b in zip(pts, pts[1:]))
        fast += any(math.dist(a[1:], b[1:]) * sample_ns / (b[0] - a[0]) > hysteresis
                    for a, b in zip(pts, pts[1:]))
        equidistant += any(math.isclose(_distance(pts[0][1:], a.position),
                                        _distance(pts[0][1:], b.position))
                           for a in cells for b in cells if a is not b)
    assert with_events > 300
    assert stationary > 200
    assert fast > 200
    assert equidistant > 100


def _zero_margin_case(rng: random.Random):
    """Two cells on a straight route at decimal coordinates, which reaches
    the point where the margin to the serving cell is exactly the
    hysteresis on a sample: x = (length + hysteresis) / 2."""
    scale = rng.choice((10, 100, 1000))
    length = rng.randrange(1, 3000) / scale
    hysteresis = rng.choice((0.0, rng.randrange(0, 500) / scale))
    samples = rng.randrange(2, 200)
    k = rng.randrange(1, samples)
    speed = rng.randrange(1, 1000) / scale
    start = (length + hysteresis) / 2 - speed * k
    route = MobilityRoute(((0, start, 0.0), (samples, start + speed * samples, 0.0)))
    return route, [Cell(1, (0.0, 0.0)), Cell(2, (length, 0.0))], hysteresis


def test_margins_that_reach_the_hysteresis_on_a_sample():
    # the margin falls by exactly 2 * step a sample along the cells' line,
    # so the skip must land on the first sample that switches, rounding
    # of the tie included
    rng = random.Random(14)
    for case in range(400):
        route, cells, hysteresis = _zero_margin_case(rng)
        _, got = apply_handover(route, cells, hysteresis_m=hysteresis,
                                interruption_ns=INTERRUPTION_NS, sample_ns=1)
        want = reference_apply_handover(route, cells, hysteresis_m=hysteresis,
                                        sample_ns=1)
        assert got == want, f"case {case}"


def test_stationary_segment_is_skipped_to_its_end(monkeypatch):
    cells = [Cell(1, (0.0, 0.0)), Cell(2, (100.0, 0.0)), Cell(3, (50.0, 80.0))]
    route = MobilityRoute(((0, 10.0, 0.0), (10_000, 10.0, 0.0), (10_100, 90.0, 0.0)))
    calls = _counting_nearest(monkeypatch)
    _, events = apply_handover(route, cells, hysteresis_m=5.0,
                               interruption_ns=INTERRUPTION_NS, sample_ns=1)
    assert events == reference_apply_handover(route, cells, hysteresis_m=5.0,
                                              sample_ns=1)
    assert [(e.time_ns, e.from_cell, e.to_cell) for e in events] == [(10_054, 1, 2)]
    # the start, one sample of the stationary segment, then the moving one
    assert calls[0] < 110


# -- mobility state per segment --------------------------------------------

def _interrupted_scan(link: LinkSimulator, start_ns: int, end_ns: int) -> bool:
    """The per-event scan that interrupted() replaced."""
    return any(start_ns < ev.time_ns + ev.interruption_ns
               and end_ns > ev.time_ns for ev in link.handovers)


def _serving_scan(link: LinkSimulator, initial_cell: int, time_ns: int) -> int:
    """The per-event scan for the serving cell: the cell the last handover
    at or before time_ns switched to, in time order, ties in list order."""
    cell = initial_cell
    for ev in sorted(link.handovers, key=lambda ev: ev.time_ns):
        if ev.time_ns <= time_ns:
            cell = ev.to_cell
    return cell


def _check_ticks(link: LinkSimulator, initial_cell: int,
                 starts) -> tuple[set[int], int]:
    """Run each tick and check the state it was served with; returns the
    cells that served and the number of suspended ticks."""
    served, suspended = set(), 0
    for t in starts:
        link.run_tick(t)
        want = (_serving_scan(link, initial_cell, t),
                _interrupted_scan(link, t, t + link.tick_ns))
        assert link._locate(t, t + link.tick_ns)[2:] == want, t
        assert link.interrupted(t, t + link.tick_ns) == want[1], t
        served.add(want[0])
        suspended += want[1]
    return served, suspended


def test_shipped_mobility_cell_state_on_every_tick():
    matrix = shipped_matrix()
    [cell] = [c for c in matrix.cells if "mobility" in c]
    cfg = scenario._resolve_matrix_cell(matrix, cell)
    world, _ = scenario._build_sim(cfg)
    link = world.link
    [event] = link.handovers
    start = world.start_ns
    route_start = cfg.mobility.waypoints[0][1:]
    initial_cell = min(cfg.network.cells,
                       key=lambda c: _distance(route_start, c.position)).cell_id
    served, suspended = _check_ticks(
        link, initial_cell, range(start, start + cfg.duration_ns, link.tick_ns))
    assert len(served) == 2
    assert suspended == -(-event.interruption_ns // link.tick_ns)


_STEPS = st.lists(st.tuples(st.sampled_from(("edge", "any", "back")),
                            st.integers(0, 40), st.integers(0, 60)),
                  max_size=8)


@settings(max_examples=300, deadline=None)
@given(_STEPS, st.integers(0, 9), st.randoms(use_true_random=False), st.data())
def test_segment_state_matches_the_per_tick_lookups(steps, phase, rng, data):
    # ticks of 10 ns from phase on; events on tick edges or anywhere, or
    # back to back, with interruptions of none, under a tick or several
    tick = 10
    link = make_link([Cell(1), Cell(2)], tick_ns=tick,
                     ul_capacity_bps=10**9, dl_capacity_bps=10**9)
    link.add_flow("dl", netem.Direction.DOWNLINK, netem.PriorityClass.APPLICATION,
                  None, None)
    events, t, end, cell = [], phase, phase, 2
    for kind, gap, interruption in steps:
        if kind == "edge":
            t = (t - phase) // tick * tick + phase + gap * tick
        else:
            t = end if kind == "back" else t + gap
        events.append(HandoverEvent(t, cell, 3 - cell, interruption))
        end, cell = t + interruption, 3 - cell
    link.set_mobility(2, events)
    last = max([end] + [ev.time_ns + ev.interruption_ns for ev in events])
    starts = list(range(phase - 3 * tick, last + 3 * tick, tick))
    _check_ticks(link, 2, starts)
    # in any order, with ticks skipped
    rng.shuffle(starts)
    _check_ticks(link, 2, starts[:len(starts) // 2])
    for _ in range(20):
        a = data.draw(st.integers(phase - 20, last + 20))
        b = data.draw(st.integers(a - 5, last + 30))
        assert link.interrupted(a, b) == (a < b and _interrupted_scan(link, a, b))
