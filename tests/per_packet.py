"""A per-packet reference for SimWorld, shared by the tests that check the
batched background path against it.

PerPacketWorld schedules every CBR arrival of a tick on the heap at the
tick's start and lets it enqueue one packet through LinkSimulator.enqueue,
so each background packet is served on its own, in the order the heap
gives: events pending from before the tick, then the arrivals in source
order, then events scheduled during the tick.  That is the tie rule
SimWorld keys its runs by, so the two must serve alike."""

from __future__ import annotations

import heapq
from functools import partial

from cv2x_bench.netem import LinkSimulator, SimWorld


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


def accounting(link: LinkSimulator) -> list[tuple[str, int, int, int, int]]:
    """Each flow's offered, served, dropped and backlog bits."""
    return [(fid, q.offered_bits, q.served_bits, q.dropped_bits, q.backlog_bits)
            for fid, q in link.flows.items()]
