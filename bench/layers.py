"""Per-layer metrics derived from a trace (see spans.py).

Each metric feeds an end-to-end metric named in README.md; a layer a
workload does not exercise reads 0.
"""

from __future__ import annotations


def layer_values(trace: dict) -> dict[str, float]:
    agg = trace["aggregates"]
    counters = trace["counters"]

    def calls(name: str) -> int:
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total_s(name: str) -> float:
        return agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(name: str) -> float:
        return agg.get(name, (0, 0.0, 0.0))[2]

    def share(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    ticks = calls("netem.link_tick")
    enqueues = calls("netem.enqueue")
    drops = counters.get("netem.enqueue.drops", 0)
    deliveries = calls("agents.on_delivery")
    return {
        "netem.ticks": ticks,
        "netem.empty_tick_frac": share(counters.get("netem.empty_ticks", 0), ticks),
        "netem.link_tick.self_s": self_s("netem.link_tick"),
        "netem.world_tick.self_s": self_s("netem.world_tick"),
        "netem.enqueue.calls": enqueues,
        "netem.enqueue.drops": drops,
        "netem.enqueue.self_s": self_s("netem.enqueue"),
        "netem.schedule.calls": calls("netem.schedule"),
        "netem.schedule.self_s": self_s("netem.schedule"),
        "netem.drop_frac": share(drops, enqueues),
        "netem.apply_handover.self_s": self_s("netem.apply_handover"),
        "loadgen.packets": counters.get("loadgen.packets", 0),
        "loadgen.arrivals.self_s": self_s("loadgen.arrivals"),
        "agents.on_delivery.calls": deliveries,
        "agents.on_delivery.self_s": self_s("agents.on_delivery"),
        "agents.useful_delivery_frac": share(
            counters.get("agents.useful_deliveries", 0), deliveries),
        "agents.stamp.self_s": self_s("agents.stamp"),
        "protocol.encode.calls": calls("protocol.encode"),
        "protocol.encode.self_s": self_s("protocol.encode"),
        "protocol.decode.calls": calls("protocol.decode"),
        "protocol.decode.self_s": self_s("protocol.decode"),
        "protocol.payload.self_s": self_s("protocol.payload"),
        "clockmodel.estimate.calls": calls("clockmodel.estimate"),
        "clockmodel.estimate.self_s": self_s("clockmodel.estimate"),
        "analysis.ingest.self_s": self_s("analysis.ingest"),
        "analysis.summarize.self_s": self_s("analysis.summarize"),
        "analysis.report.self_s": self_s("analysis.report"),
        "analysis.write_records.self_s": self_s("analysis.write_records"),
        "broker.fanout.calls": calls("broker.fanout"),
        "broker.fanout.self_s": self_s("broker.fanout"),
        "client.publish.self_s": self_s("client.publish"),
        "client.recv.wait_s": total_s("client.recv"),
    }

