"""Packet-log ingestion, clock-corrected latency statistics, and CSV/SVG
report emission.

The on-disk log is JSON lines, one object per delivered message:

  {"src": int, "seq": int, "t1".."t4": int ns, "e1".."e4": int ns,
   "size": int, "cell": int, "corrupt": bool, "gt_ul": int, "gt_dl": int}

gt_ul / gt_dl carry the emulator's ground-truth one-way delays and are -1
for records captured from real sockets.

record_line writes each line from one format string: for fields of their
types, the bytes of json.dumps(record.to_json_obj(), separators=(",", ":")).
ingest reads a line that is exactly such a line with one regular
expression; every other line is parsed by json.loads and checked field by
field, so it is accepted or refused, and named in the error, as before.
"""

from __future__ import annotations

import csv
import json
import math
import re
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path

from .clockmodel import (corrected_latency_dl, corrected_latency_e2e,
                         corrected_latency_ul)

# a log record's keys are PacketRecord's field names, in field order,
# except for these renames
_RENAMED = {"source_id": "src", "frame_size": "size", "serving_cell": "cell"}


class IngestError(ValueError):
    """A packet log line failed to parse; the message names the line."""


@dataclass(slots=True)
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
# a line as json.dumps with separators (",", ":") writes a record; %s writes
# an int as JSON does, where %d would truncate a float that ingest refuses
_LINE_FORMAT = "{" + ",".join(f'"{key}":%s' for key in _RECORD_KEYS) + "}"
_before_corrupt = attrgetter(*_FIELD_NAMES[:_FIELD_NAMES.index("corrupt")])
_after_corrupt = attrgetter(*_FIELD_NAMES[_FIELD_NAMES.index("corrupt") + 1:])
_key_values = itemgetter(*_RECORD_KEYS)
# a line exactly as record_line writes it, then its newline if any: each
# integer as JSON writes one, in ASCII digits with no leading zero and at
# most the 20 of 2**64 - 1, so that int() reads no form JSON refuses and no
# over-long digit string
_WRITTEN_LINE = re.compile(r"\{" + ",".join(
    f'"{key}":' + ("(true|false)" if key == "corrupt" else r"(-?(?:0|[1-9][0-9]{0,19}))")
    for key in _RECORD_KEYS) + r"\}\n?")


def record_line(record: PacketRecord) -> str:
    corrupt = "true" if record.corrupt else "false"
    return _LINE_FORMAT % (*_before_corrupt(record), corrupt, *_after_corrupt(record))


def write_records(path: str | Path, records: list[PacketRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for rec in records:
            fp.write(record_line(rec) + "\n")


class RecordWriter:
    """Append-only, serialized JSONL sink shared by concurrent receivers."""

    def __init__(self, path: str | Path) -> None:
        self._fp = open(path, "w", encoding="utf-8")
        self._lock = threading.Lock()

    def append(self, record: PacketRecord) -> None:
        with self._lock:
            self._fp.write(record_line(record) + "\n")

    def close(self) -> None:
        with self._lock:
            self._fp.close()


def ingest(path: str | Path) -> list[PacketRecord]:
    """Load a packet log; parse problems raise IngestError naming the line."""
    records: list[PacketRecord] = []
    written = _WRITTEN_LINE.fullmatch
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            match = written(line)
            if match:  # the values of a line as written, in field order
                (src, seq, t1, t2, t3, t4, e1, e2, e3, e4, size, cell, corrupt,
                 gt_ul, gt_dl) = match.groups()
                records.append(PacketRecord(
                    int(src), int(seq), int(t1), int(t2), int(t3), int(t4),
                    int(e1), int(e2), int(e3), int(e4), int(size), int(cell),
                    corrupt == "true", int(gt_ul), int(gt_dl)))
                continue
            # any other line: parsed and checked field by field
            if not line.strip():
                continue
            try:
                records.append(PacketRecord.from_json_obj(json.loads(line)))
            except ValueError as exc:
                raise IngestError(f"{path}: line {lineno}: {exc}") from None
    return records


def percentile(samples: list[int], q: float) -> int:
    """Nearest-rank percentile: the ceil(q*n)-th smallest sample."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    return _nearest_rank(sorted(samples), q)


def _nearest_rank(ordered: list[int], q: float) -> int:
    return ordered[math.ceil(q * len(ordered)) - 1]


def cdf(samples: list[int]) -> list[tuple[int, float]]:
    """Empirical CDF: sorted unique values with cumulative fractions."""
    if not samples:
        raise ValueError("cdf of empty sample set")
    return _ordered_cdf(sorted(samples))


def _ordered_cdf(ordered: list[int]) -> list[tuple[int, float]]:
    n = len(ordered)
    # each value, in order, with the rank of its last occurrence
    last_rank = dict(zip(ordered, range(1, n + 1)))
    return [(value, rank / n) for value, rank in last_rank.items()]


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
        ordered = sorted(samples)
        return cls(n=len(ordered),
                   mean_ns=sum(ordered) / len(ordered),
                   p95_ns=_nearest_rank(ordered, 0.95),
                   p99_ns=_nearest_rank(ordered, 0.99),
                   min_ns=ordered[0],
                   max_ns=ordered[-1],
                   cdf=_ordered_cdf(ordered))


_LATENCY = {"ul": corrected_latency_ul, "dl": corrected_latency_dl,
            "e2e": corrected_latency_e2e}


def latency_samples(records: list[PacketRecord], which: str = "e2e") -> list[int]:
    """Corrected latencies of the uncorrupted records, in record order.

    which selects uplink ("ul"), downlink ("dl"), or end-to-end ("e2e").
    """
    latency = _LATENCY.get(which)
    if latency is None:
        raise ValueError(f"metric must be one of {tuple(_LATENCY)}, got {which!r}")
    return [latency(rec) for rec in records if not rec.corrupt]


def summarize(records: list[PacketRecord], which: str = "e2e") -> LatencyStats:
    samples = latency_samples(records, which)
    if not samples:
        raise ValueError("no usable records to summarize")
    return LatencyStats.from_samples(samples)


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


def _write_csv_lines(path: str | Path, lines: list[str]) -> None:
    """Write rows already joined by commas, each ended with CRLF as
    csv.writer ends it."""
    with open(path, "w", encoding="utf-8", newline="") as fp:
        fp.write("\r\n".join(lines) + "\r\n")


def write_cdf_csv(stats: LatencyStats, path: str | Path) -> None:
    _write_csv_lines(path, ["latency_ns,cum_fraction"]
                     + [f"{value},{fraction:.9f}" for value, fraction in stats.cdf])


def write_per_packet_csv(records: list[PacketRecord], path: str | Path,
                         affected_seqs: set[int] | None = None) -> None:
    """One row per record, in one pass: its corrected uplink, downlink and
    end-to-end latencies (clockmodel's formulas), left blank for a corrupt
    record, and the hops for one without relay stamps."""
    affected_seqs = affected_seqs or set()
    lines = ["seq,ul_ns,dl_ns,e2e_ns,cell,corrupt,affected"]
    for rec in records:
        seq = rec.seq
        if rec.corrupt:
            lines.append(f"{seq},,,,{rec.serving_cell},1,0")
            continue
        # a frame sent straight to the vehicle has no relay stamps
        relayed = rec.t2 and rec.t3
        if not (rec.t1 and rec.t4):
            _raise_missing_stamp(rec, relayed)
        sent, received = rec.t1 + rec.e1, rec.t4 + rec.e4
        hops = (f"{rec.t2 + rec.e2 - sent},{received - (rec.t3 + rec.e3)}"
                if relayed else ",")
        lines.append(f"{seq},{hops},{received - sent},{rec.serving_cell},"
                     f"0,{1 if seq in affected_seqs else 0}")
    _write_csv_lines(path, lines)


def _raise_missing_stamp(rec: PacketRecord, relayed: bool) -> None:
    """Raise the MissingStampError of the first of the record's latencies,
    in column order, that lacks a stamp."""
    if relayed:
        corrected_latency_ul(rec)
        corrected_latency_dl(rec)
    corrected_latency_e2e(rec)


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
            "#393b79", "#637939", "#8c6d31")
_X, _Y = itemgetter(0), itemgetter(1)


def m4(points: list[tuple[float, float]], x_min: float, x_span: float,
       columns: int) -> list[tuple[float, float]]:
    """M4 (Jugel et al., PVLDB 7(10), 2014): of the points, in x order, that
    fall in each of `columns` equal columns of [x_min, x_min + x_span], the
    first, the last, the lowest and the highest (the first of equals),
    returned in x order.  A line through them draws the same pixels as a
    line through every point when each column is one pixel wide."""
    ordered = sorted(points, key=_X)
    xs, ys = list(map(_X, ordered)), list(map(_Y, ordered))
    return [ordered[i] for i in _m4_kept(xs, ys, x_min, x_span, columns)]


def _m4_kept(xs: list[float], ys: list[float], x_min: float, x_span: float,
             columns: int) -> list[int]:
    """The indices, in order, of the points m4 keeps, of points given as
    their x and y lists in x order."""
    bounds = [x_min + c * x_span / columns for c in range(1, columns)]
    kept: list[int] = []
    lo, n = 0, len(xs)
    while lo < n:
        column = bisect_right(bounds, xs[lo])
        hi = bisect_left(xs, bounds[column], lo) if column < len(bounds) else n
        part = ys[lo:hi]
        kept += sorted({lo, hi - 1, lo + part.index(min(part)),
                        lo + part.index(max(part))})
        lo = hi
    return kept


def svg_line_chart(series: dict[str, tuple[list[float], list[float]]], title: str,
                   x_label: str, y_label: str) -> str:
    """Minimal dependency-free line chart: one polyline per series, given as
    the x and y lists of its points in x order.  Each series is drawn at
    plot resolution, through the points `m4` keeps with one column per
    pixel, so its size does not grow with its points.  A series whose points
    all fall on one pixel is drawn as a one-pixel dash, so that every series
    with a point shows."""
    margin, width, height = 70, 900, 520
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    drawn = [xs for xs, _ in series.values() if xs]
    if drawn:
        x_min, x_max = min(xs[0] for xs in drawn), max(xs[-1] for xs in drawn)
    else:
        x_min = x_max = 0.0
    if x_max == x_min:
        x_max = x_min + 1.0
    x_span = x_max - x_min
    kept = {name: [(xs[i], ys[i]) for i in _m4_kept(xs, ys, x_min, x_span, plot_w)]
            for name, (xs, ys) in series.items()}
    # each column's lowest and highest point is kept, so the kept points
    # span every point's y
    points = list(chain.from_iterable(kept.values()))
    if points:
        y_min, y_max = min(map(_Y, points)), max(map(_Y, points))
    else:
        y_min, y_max = 0.0, 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    y_span = y_max - y_min
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
    for i, (name, pts) in enumerate(kept.items()):
        if not pts:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        pixels = [(margin + (x - x_min) / x_span * plot_w,
                   height - margin - (y - y_min) / y_span * plot_h)
                  for x, y in pts]
        coords = [f"{px:.2f},{py:.2f}" for px, py in pixels]
        if len(set(coords)) == 1:
            px, py = pixels[0]
            coords.append(f"{px + 1:.2f},{py:.2f}")
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{" ".join(coords)}"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 14 * i + 10}" '
                     f'font-size="10" fill="{color}">{escape(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _cdf_steps_ms(cdf: list[tuple[int, float]]) -> tuple[list[float], list[float]]:
    """The vertices of an empirical CDF drawn as a step function, as x and
    y lists, values in ms: up from the fraction below each value to the
    fraction at it, so a point mass is a vertical segment."""
    values_ms = [value / 1e6 for value, _ in cdf]
    fractions = list(map(_Y, cdf))
    xs, ys = [0.0] * (2 * len(cdf)), [0.0] * (2 * len(cdf))
    xs[0::2] = xs[1::2] = values_ms
    ys[1::2] = fractions
    ys[2::2] = fractions[:-1]
    return xs, ys


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
    series: dict[str, tuple[list[float], list[float]]] = {}
    for name, stats in stats_by_scenario.items():
        cdf_path = out / f"cdf_{safe_name(name)}.csv"
        write_cdf_csv(stats, cdf_path)
        written.append(cdf_path)
        series[name] = _cdf_steps_ms(stats.cdf)
    svg_path = out / "cdf.svg"
    svg_path.write_text(
        svg_line_chart(series, "Latency CDF by scenario",
                       "latency [ms]", "cumulative fraction"),
        encoding="utf-8")
    written.append(svg_path)
    return written


def emit_per_packet_chart(name: str, records: list[PacketRecord],
                          out_dir: str | Path) -> Path:
    pts = sorted(((rec.seq, corrected_latency_e2e(rec) / 1e6)
                  for rec in records if not rec.corrupt), key=_X)
    path = Path(out_dir) / f"per_packet_{safe_name(name)}.svg"
    path.write_text(
        svg_line_chart({name: (list(map(_X, pts)), list(map(_Y, pts)))},
                       f"Per-packet latency: {name}",
                       "packet seq", "end-to-end latency [ms]"),
        encoding="utf-8")
    return path
