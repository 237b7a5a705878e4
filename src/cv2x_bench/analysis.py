"""Packet-log ingestion, clock-corrected latency statistics, handover
flagging, and CSV/SVG report emission.

The on-disk log is JSON lines, one object per delivered message:

  {"src": int, "seq": int, "t1".."t4": int ns, "e1".."e4": int ns,
   "size": int, "cell": int, "corrupt": bool, "gt_ul": int, "gt_dl": int}

gt_ul / gt_dl carry the emulator's ground-truth one-way delays and are -1
for records captured from real sockets.
"""

from __future__ import annotations

import csv
import json
import math
import threading
from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter
from pathlib import Path

from .clockmodel import (corrected_latency_dl, corrected_latency_e2e,
                         corrected_latency_ul)
from .netem import HandoverEvent

# a log record's keys are PacketRecord's field names, in field order,
# except for these renames
_RENAMED = {"source_id": "src", "frame_size": "size", "serving_cell": "cell"}


class IngestError(ValueError):
    """A packet log line failed to parse; the message names the line."""


@dataclass
class PacketRecord:
    """One delivered (or corrupt) message as logged by the vehicle."""

    source_id: int = 0
    seq: int = 0
    t1: int = 0
    t2: int = 0
    t3: int = 0
    t4: int = 0
    e1: int = 0
    e2: int = 0
    e3: int = 0
    e4: int = 0
    frame_size: int = 0
    serving_cell: int = -1
    corrupt: bool = False
    gt_ul: int = -1
    gt_dl: int = -1

    def to_json_obj(self) -> dict:
        return dict(zip(_RECORD_KEYS, _field_values(self)))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PacketRecord":
        if not isinstance(obj, dict):
            raise ValueError("record must be a JSON object")
        missing = [k for k in _RECORD_KEYS if k not in obj]
        if missing:
            raise ValueError(f"missing keys {missing}")
        unknown = [k for k in obj if k not in _RECORD_KEYS]
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        values = _key_values(obj)
        for key, value in zip(_RECORD_KEYS, values):
            if key == "corrupt":
                if not isinstance(value, bool):
                    raise ValueError("'corrupt' must be a boolean")
            elif not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"'{key}' must be an integer")
        return cls(*values)


_FIELD_NAMES = tuple(f.name for f in fields(PacketRecord))
_RECORD_KEYS = tuple(_RENAMED.get(name, name) for name in _FIELD_NAMES)
_field_values = attrgetter(*_FIELD_NAMES)
_key_values = itemgetter(*_RECORD_KEYS)
_VALUE_TYPES = tuple(bool if key == "corrupt" else int for key in _RECORD_KEYS)


def record_line(record: PacketRecord) -> str:
    return json.dumps(record.to_json_obj(), separators=(",", ":"))


def write_records(path: str | Path, records: list[PacketRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for rec in records:
            fp.write(record_line(rec) + "\n")


class RecordWriter:
    """Append-only, serialized JSONL sink shared by concurrent receivers."""

    def __init__(self, path: str | Path) -> None:
        self._fp = open(path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self.count = 0

    def append(self, record: PacketRecord) -> None:
        with self._lock:
            self._fp.write(record_line(record) + "\n")
            self.count += 1

    def close(self) -> None:
        with self._lock:
            self._fp.close()


def ingest(path: str | Path) -> list[PacketRecord]:
    """Load a packet log; parse problems raise IngestError naming the line."""
    records: list[PacketRecord] = []
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                # a record as written: the keys in field order, exact types
                if type(obj) is dict and tuple(obj) == _RECORD_KEYS:
                    values = tuple(obj.values())
                    if tuple(map(type, values)) == _VALUE_TYPES:
                        records.append(PacketRecord(*values))
                        continue
                records.append(PacketRecord.from_json_obj(obj))
            except ValueError as exc:
                raise IngestError(f"{path}: line {lineno}: {exc}") from None
    return records


def percentile(samples: list[int], q: float) -> int:
    """Nearest-rank percentile: the ceil(q*n)-th smallest sample."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    return ordered[rank - 1]


def cdf(samples: list[int]) -> list[tuple[int, float]]:
    """Empirical CDF: sorted unique values with cumulative fractions."""
    if not samples:
        raise ValueError("cdf of empty sample set")
    ordered = sorted(samples)
    n = len(ordered)
    points: list[tuple[int, float]] = []
    for i, value in enumerate(ordered):
        if i + 1 == n or ordered[i + 1] != value:
            points.append((value, (i + 1) / n))
    return points


@dataclass
class LatencyStats:
    n: int
    mean_ns: float
    p95_ns: int
    p99_ns: int
    min_ns: int
    max_ns: int
    cdf: list[tuple[int, float]] = field(default_factory=list)

    @classmethod
    def from_samples(cls, samples: list[int]) -> "LatencyStats":
        if not samples:
            raise ValueError("no latency samples")
        # percentile and cdf sort again, in linear time on sorted input
        ordered = sorted(samples)
        return cls(n=len(ordered),
                   mean_ns=sum(ordered) / len(ordered),
                   p95_ns=percentile(ordered, 0.95),
                   p99_ns=percentile(ordered, 0.99),
                   min_ns=ordered[0],
                   max_ns=ordered[-1],
                   cdf=cdf(ordered))


_METRICS = ("ul", "dl", "e2e")


def latency_samples(records: list[PacketRecord], which: str = "e2e",
                    exclude_processing: bool = False) -> list[int]:
    """Corrected latencies of the uncorrupted records, in record order.

    which selects uplink ("ul"), downlink ("dl"), or end-to-end ("e2e");
    exclude_processing subtracts the corrected server residence time from
    the end-to-end figure to isolate the network.
    """
    if which not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS}, got {which!r}")
    samples: list[int] = []
    for rec in records:
        if rec.corrupt:
            continue
        if which == "ul":
            samples.append(corrected_latency_ul(rec))
        elif which == "dl":
            samples.append(corrected_latency_dl(rec))
        else:
            value = corrected_latency_e2e(rec)
            if exclude_processing:
                value -= (rec.t3 + rec.e3) - (rec.t2 + rec.e2)
            samples.append(value)
    return samples


def summarize(records: list[PacketRecord], which: str = "e2e",
              exclude_processing: bool = False) -> LatencyStats:
    samples = latency_samples(records, which, exclude_processing)
    if not samples:
        raise ValueError("no usable records to summarize")
    return LatencyStats.from_samples(samples)


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


def escape(text: str) -> str:
    """Escape &, < and > for XML character data."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def safe_name(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "-" for ch in name)


def write_stats_csv(stats_by_scenario: dict[str, LatencyStats],
                    path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["scenario", "n", "mean_ns", "p95_ns", "p99_ns"])
        for name, stats in stats_by_scenario.items():
            writer.writerow([name, stats.n, f"{stats.mean_ns:.1f}",
                             stats.p95_ns, stats.p99_ns])


def write_cdf_csv(stats: LatencyStats, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["latency_ns", "cum_fraction"])
        for value, fraction in stats.cdf:
            writer.writerow([value, f"{fraction:.9f}"])


def write_per_packet_csv(records: list[PacketRecord], path: str | Path,
                         affected_seqs: set[int] | None = None) -> None:
    affected_seqs = affected_seqs or set()
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["seq", "ul_ns", "dl_ns", "e2e_ns", "cell",
                         "corrupt", "affected"])
        for rec in records:
            if rec.corrupt:
                writer.writerow([rec.seq, "", "", "", rec.serving_cell, 1, 0])
                continue
            # a frame sent straight to the vehicle has no relay stamps
            relayed = rec.t2 and rec.t3
            writer.writerow([rec.seq,
                             corrected_latency_ul(rec) if relayed else "",
                             corrected_latency_dl(rec) if relayed else "",
                             corrected_latency_e2e(rec),
                             rec.serving_cell, 0,
                             1 if rec.seq in affected_seqs else 0])


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
            "#393b79", "#637939", "#8c6d31")


def svg_line_chart(series: dict[str, list[tuple[float, float]]], title: str,
                   x_label: str, y_label: str,
                   width: int = 900, height: int = 520) -> str:
    """Minimal dependency-free line chart: one polyline per series."""
    margin = 70
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    points = [p for pts in series.values() for p in pts]
    if points:
        x_min = min(p[0] for p in points)
        x_max = max(p[0] for p in points)
        y_min = min(p[1] for p in points)
        y_max = max(p[1] for p in points)
    else:
        x_min = y_min = 0.0
        x_max = y_max = 1.0
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    x_span, y_span = x_max - x_min, y_max - y_min
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="16">{escape(title)}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 16}" text-anchor="middle" '
        f'font-size="12">{escape(x_label)}</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {height / 2:.1f})">{escape(y_label)}</text>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="10" '
        f'text-anchor="middle">{x_min:.3g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" font-size="10" '
        f'text-anchor="middle">{x_max:.3g}</text>',
        f'<text x="{margin - 6}" y="{height - margin}" font-size="10" '
        f'text-anchor="end">{y_min:.3g}</text>',
        f'<text x="{margin - 6}" y="{margin + 4}" font-size="10" '
        f'text-anchor="end">{y_max:.3g}</text>',
    ]
    for i, (name, pts) in enumerate(series.items()):
        if not pts:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{margin + (x - x_min) / x_span * plot_w:.2f},"
                          f"{height - margin - (y - y_min) / y_span * plot_h:.2f}"
                          for x, y in pts)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{coords}"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 14 * i + 10}" '
                     f'font-size="10" fill="{color}">{escape(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def emit_report(stats_by_scenario: dict[str, LatencyStats],
                out_dir: str | Path) -> list[Path]:
    """Write stats.csv, per-scenario CDF CSVs, and a combined CDF chart.

    Returns the list of files written; I/O errors surface with the path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    stats_path = out / "stats.csv"
    write_stats_csv(stats_by_scenario, stats_path)
    written.append(stats_path)
    series: dict[str, list[tuple[float, float]]] = {}
    for name, stats in stats_by_scenario.items():
        cdf_path = out / f"cdf_{safe_name(name)}.csv"
        write_cdf_csv(stats, cdf_path)
        written.append(cdf_path)
        series[name] = [(value / 1e6, fraction) for value, fraction in stats.cdf]
    svg_path = out / "cdf.svg"
    svg_path.write_text(
        svg_line_chart(series, "Latency CDF by scenario",
                       "latency [ms]", "cumulative fraction"),
        encoding="utf-8")
    written.append(svg_path)
    return written


def emit_per_packet_chart(name: str, records: list[PacketRecord],
                          out_dir: str | Path) -> Path:
    pts = [(float(rec.seq), corrected_latency_e2e(rec) / 1e6)
           for rec in records if not rec.corrupt]
    path = Path(out_dir) / f"per_packet_{safe_name(name)}.svg"
    path.write_text(
        svg_line_chart({name: pts}, f"Per-packet latency: {name}",
                       "packet seq", "end-to-end latency [ms]"),
        encoding="utf-8")
    return path
