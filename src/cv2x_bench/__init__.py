"""Desk-scale C-V2X messaging testbed.

Sensor -> edge relay -> vehicle messaging with timestamp/offset-bearing
frames, an emulated 5G TDD link (priority scheduling, background load,
handover), and clock-sync-corrected latency analysis.
"""

__version__ = "0.1.0"

# the longest span of simulated or wall time, in seconds, that a config
# field or an agent option accepts: a run, a delay, an interruption, or the
# drain after a run's end; the emulator advances in 2.5 ms ticks
MAX_DURATION_S = 86_400
