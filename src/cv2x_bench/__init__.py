"""Desk-scale C-V2X messaging testbed.

Sensor -> edge relay -> vehicle messaging with timestamp/offset-bearing
frames, an emulated 5G TDD link (priority scheduling, background load,
handover), and clock-sync-corrected latency analysis.
"""

__version__ = "0.1.0"
