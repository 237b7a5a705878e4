"""A clock-corrected estimate of which packets a handover hit, for the
tests that compare it with the emulator's own set."""

from __future__ import annotations

from cv2x_bench.analysis import PacketRecord
from cv2x_bench.netem import HandoverEvent


def detect_handover_affected(records: list[PacketRecord],
                             events: list[HandoverEvent]) -> list[PacketRecord]:
    """Uncorrupted records whose downlink leg was hit by a handover
    interruption: their clock-corrected downlink interval [t3+e3, t4+e4)
    intersects an interruption window.  That is exact only when the offset
    estimates are exact: estimation error can misjudge a packet near a
    window's edge, which is why run_matrix takes the emulator's own set
    (ScenarioResult.affected_seqs).
    """
    windows = [(e.time_ns, e.time_ns + e.interruption_ns) for e in events]
    return [r for r in records if not r.corrupt
            and any(r.t3 + r.e3 < w1 and r.t4 + r.e4 > w0 for w0, w1 in windows)]
