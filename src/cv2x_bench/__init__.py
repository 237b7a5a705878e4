"""Desk-scale C-V2X messaging testbed.

Sensor -> edge relay -> vehicle messaging with timestamp/offset-bearing
frames, an emulated 5G TDD link (priority scheduling, background load,
handover), and clock-sync-corrected latency analysis.
"""

from .analysis import LatencyStats, PacketRecord, cdf, ingest, percentile, summarize
from .clockmodel import (DriftingClock, OffsetProvider, corrected_latency_dl,
                         corrected_latency_e2e, corrected_latency_ul, ntp_query)
from .netem import (Cell, Direction, HandoverEvent, LinkSimulator,
                    MobilityRoute, PriorityClass, SchedulerKind, SimWorld,
                    apply_handover)
from .protocol import (V2XMessage, compute_checksum, decode, encode,
                       make_padded_payload)
from .scenario import (ScenarioConfig, ScenarioResult, load_config,
                       load_matrix_config, run_matrix, run_scenario,
                       table1_matrix)

__version__ = "0.1.0"
