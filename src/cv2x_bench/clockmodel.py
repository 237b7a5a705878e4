"""Per-agent drifting clocks, NTP-style offset estimation, and the
synchronization-corrected latency formulas.

Sign convention used throughout: an offset estimate E, a plain integer of
nanoseconds, is the value ADDED to a local timestamp to map it onto
reference time (reference = local + E).
A clock that runs 2 ms fast therefore has a true offset of +2 ms and a
perfect estimate of -2 ms.  The corrected one-way latencies are

    uplink   = (t2 + e2) - (t1 + e1)
    downlink = (t4 + e4) - (t3 + e3)

computed in exact integer nanoseconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .protocol import V2XMessage


class MissingStampError(ValueError):
    """A latency formula was applied to a message lacking the needed stamps."""


@dataclass
class DriftingClock:
    """Local clock = reference + offset0 + drift * reference + white noise.

    Drift is stored internally in integer parts-per-billion so the offset
    at any reference instant is an exact integer function; both the clock
    reading and a perfect offset estimate evaluate the same function, which
    is what makes perfect correction integer-exact.  Jitter (when nonzero)
    is Gaussian with the given sigma, reproducible from rng_seed.
    """

    offset0_ns: int = 0
    drift_ppm: float = 0.0
    jitter_ns: int = 0
    rng_seed: int = 0
    _drift_ppb: int = field(init=False, repr=False)
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._drift_ppb = round(self.drift_ppm * 1000)
        self._rng = random.Random(self.rng_seed)

    def true_offset_ns(self, reference_ns: int) -> int:
        """Exact (noise-free) offset of this clock at a reference instant."""
        return self.offset0_ns + (self._drift_ppb * reference_ns) // 1_000_000_000

    def local_now(self, reference_ns: int) -> int:
        """Read the local clock at the given reference instant."""
        if reference_ns < 0:
            raise ValueError("reference time must be nonnegative")
        reading = reference_ns + self.true_offset_ns(reference_ns)
        if self.jitter_ns > 0:
            reading += round(self._rng.gauss(0.0, self.jitter_ns))
        return reading


def ntp_query(clock: DriftingClock, reference_ns: int,
              noise_bound_ns: int = 0, rng: random.Random | None = None) -> int:
    """Estimate the clock's additive-to-local offset at a reference instant.

    With zero noise the estimate is exact: adding it to a (jitter-free)
    local reading taken at the same instant recovers reference time.  With
    a nonzero bound b the estimate carries a uniform error in [-b, +b],
    drawn from rng.
    """
    estimate = -clock.true_offset_ns(reference_ns)
    if noise_bound_ns > 0:
        noise = round(rng.uniform(-noise_bound_ns, noise_bound_ns))
        estimate += max(-noise_bound_ns, min(noise_bound_ns, noise))
    return estimate


class OffsetProvider:
    """Caches periodic NTP queries and hands out the freshest estimate.

    period_ns > 0 models an agent querying on a fixed schedule: the query
    instant is the start of the period containing the request, so repeated
    requests inside one period reuse one estimate.  period_ns == 0 queries
    at every request (continuous correction, needed for exact-correction
    runs since drift between query and stamp would otherwise leak in).
    """

    def __init__(self, clock: DriftingClock, *, period_ns: int,
                 noise_bound_ns: int = 0, rng_seed: int = 0) -> None:
        if period_ns < 0:
            raise ValueError("period must be nonnegative")
        self.clock = clock
        self.period_ns = period_ns
        self.noise_bound_ns = noise_bound_ns
        self._rng = random.Random(rng_seed)
        # the instant and value of the last query
        self._queried_at: int | None = None
        self._estimate = 0

    def estimate_at(self, reference_ns: int) -> int:
        if self.period_ns == 0:
            return ntp_query(self.clock, reference_ns, self.noise_bound_ns,
                             self._rng)
        query_time = (reference_ns // self.period_ns) * self.period_ns
        if self._queried_at is None or self._queried_at < query_time:
            self._queried_at = query_time
            self._estimate = ntp_query(self.clock, query_time,
                                       self.noise_bound_ns, self._rng)
        return self._estimate


class ZeroOffsetProvider:
    """Offset provider of the real-socket agents.

    Returns zero estimates, i.e. trusts the host clock; on a single host
    (loopback runs) sender and receiver share the clock so corrected and
    raw latencies coincide.
    """

    def estimate_at(self, reference_ns: int) -> int:
        return 0


def corrected_latency_ul(msg: V2XMessage) -> int:
    """Synchronization-corrected sensor-to-server latency in ns."""
    if msg.t1 == 0 or msg.t2 == 0:
        raise MissingStampError(
            f"uplink latency needs t1 and t2 (seq {msg.seq}: t1={msg.t1}, t2={msg.t2})")
    return (msg.t2 + msg.e2) - (msg.t1 + msg.e1)


def corrected_latency_dl(msg: V2XMessage) -> int:
    """Synchronization-corrected server-to-vehicle latency in ns."""
    if msg.t3 == 0 or msg.t4 == 0:
        raise MissingStampError(
            f"downlink latency needs t3 and t4 (seq {msg.seq}: t3={msg.t3}, t4={msg.t4})")
    return (msg.t4 + msg.e4) - (msg.t3 + msg.e3)


def corrected_latency_e2e(msg: V2XMessage) -> int:
    """Corrected sensor-to-vehicle latency, including server residence time."""
    if msg.t1 == 0 or msg.t4 == 0:
        raise MissingStampError(
            f"end-to-end latency needs t1 and t4 (seq {msg.seq}: t1={msg.t1}, t4={msg.t4})")
    return (msg.t4 + msg.e4) - (msg.t1 + msg.e1)
