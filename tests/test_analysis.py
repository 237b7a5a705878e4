"""Statistics, log ingestion, handover flagging, and report emission."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import random
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cv2x_bench import analysis
from cv2x_bench.analysis import (IngestError, LatencyStats, PacketRecord, cdf,
                                 emit_report, ingest, percentile, summarize,
                                 write_records)
from cv2x_bench.netem import HandoverEvent
from handover import detect_handover_affected

MS = 1_000_000


def _record(seq: int, ul: int = 3 * MS, proc: int = 0, dl: int = 2 * MS,
            t1: int = 10**9, **kw) -> PacketRecord:
    t2 = t1 + ul
    t3 = t2 + proc
    t4 = t3 + dl
    defaults = dict(source_id=1, seq=seq, t1=t1, t2=t2, t3=t3, t4=t4,
                    frame_size=1000, serving_cell=1, corrupt=False,
                    gt_ul=ul, gt_dl=dl)
    defaults.update(kw)
    return PacketRecord(**defaults)


# -- ingest -----------------------------------------------------------------

def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert ingest(path) == []


def test_write_then_ingest_round_trips(tmp_path):
    records = [_record(i, ul=(3 + i) * MS) for i in range(50)]
    path = tmp_path / "log.jsonl"
    write_records(path, records)
    assert ingest(path) == records


_WIDE_INTS = st.integers(min_value=-2**63, max_value=2**64 - 1)
_RECORDS = st.builds(PacketRecord, **{
    f.name: st.booleans() if f.name == "corrupt" else _WIDE_INTS
    for f in dataclasses.fields(PacketRecord)})


@settings(max_examples=200, deadline=None)
@given(st.lists(_RECORDS, max_size=5))
def test_a_log_line_is_the_records_compact_json(records):
    for rec in records:
        assert analysis.record_line(rec) == json.dumps(rec.to_json_obj(),
                                                       separators=(",", ":"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        write_records(path, records)
        assert ingest(path) == records


def test_ingest_names_the_malformed_line(tmp_path):
    lines = [analysis.record_line(_record(i)) for i in range(1000)]
    lines[499] = '{"src": 1, "broken": true}'
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestError, match="line 500"):
        ingest(path)


def test_ingest_rejects_unknown_and_missing_keys(tmp_path):
    path = tmp_path / "log.jsonl"
    obj = _record(0).to_json_obj()
    obj["extra"] = 1
    path.write_text(__import__("json").dumps(obj) + "\n")
    with pytest.raises(IngestError, match="unknown"):
        ingest(path)
    del obj["extra"], obj["seq"]
    path.write_text(__import__("json").dumps(obj) + "\n")
    with pytest.raises(IngestError, match="missing"):
        ingest(path)


def test_ingest_rejects_wrong_types(tmp_path):
    path = tmp_path / "log.jsonl"
    obj = _record(0).to_json_obj()
    obj["t1"] = "not-a-number"
    path.write_text(__import__("json").dumps(obj) + "\n")
    with pytest.raises(IngestError, match="t1"):
        ingest(path)


def _line_with(*dropped: str, **changes) -> str:
    """A valid log line without the dropped keys and with the changes."""
    obj = _record(0).to_json_obj()
    for key in dropped:
        del obj[key]
    obj.update(changes)
    return json.dumps(obj, separators=(",", ":"))


# each malformed line, and the error that names it; the record checks are
# the field-by-field ones, whichever way the line is first tried
@pytest.mark.parametrize("line, error", [
    (_line_with("seq"), "missing keys ['seq']"),
    (_line_with(extra=1), "unknown keys ['extra']"),
    (_line_with(t1=True), "'t1' must be an integer"),
    (_line_with(corrupt=0), "'corrupt' must be a boolean"),
    (_line_with(corrupt=None), "'corrupt' must be a boolean"),
    (_line_with(corrupt="false"), "'corrupt' must be a boolean"),
    (_line_with(t2=1.5), "'t2' must be an integer"),
    (_line_with(size="1000"), "'size' must be an integer"),
    ("[1, 2, 3]", "record must be a JSON object"),
    ("42", "record must be a JSON object"),
], ids=["missing-key", "unknown-key", "true-in-int", "int-in-corrupt",
        "null-in-corrupt", "string-in-corrupt", "float", "string", "array",
        "number"])
def test_ingest_error_names_line_and_field(tmp_path, line, error):
    path = tmp_path / "log.jsonl"
    # the blank line is skipped but still counted
    path.write_text(f"{_line_with()}\n\n{line}\n{_line_with()}\n")
    with pytest.raises(IngestError) as caught:
        ingest(path)
    assert str(caught.value) == f"{path}: line 3: {error}"


def test_ingest_accepts_keys_in_any_order(tmp_path):
    record = _record(7, corrupt=True)
    obj = record.to_json_obj()
    keys = list(obj)
    i, j = keys.index("t1"), keys.index("t4")
    keys[i], keys[j] = keys[j], keys[i]  # value types still in field order
    path = tmp_path / "log.jsonl"
    path.write_text("".join(json.dumps(dict(items)) + "\n" for items in (
        reversed(obj.items()), ((key, obj[key]) for key in keys), obj.items())))
    assert ingest(path) == [record, record, record]


_EDGE_INTS = st.sampled_from([-1, 0, 2**63 - 1]) | st.integers(-1, 2**63 - 1)
_RECORDS = st.builds(PacketRecord, **{
    f.name: st.booleans() if f.name == "corrupt" else _EDGE_INTS
    for f in dataclasses.fields(PacketRecord)})


@settings(max_examples=100, deadline=None)
@given(records=st.lists(_RECORDS, max_size=5))
def test_write_records_then_ingest_returns_the_records(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("log") / "log.jsonl"
    write_records(path, records)
    assert ingest(path) == records


def _reference_ingest(path) -> list[PacketRecord]:
    """ingest without its fast path: every line through json.loads and the
    field-by-field check."""
    records = []
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            if not line.strip():
                continue
            try:
                records.append(PacketRecord.from_json_obj(json.loads(line)))
            except ValueError as exc:
                raise IngestError(f"{path}: line {lineno}: {exc}") from None
    return records


def _outcome(load, path):
    try:
        return load(path)
    except IngestError as exc:
        return str(exc)


def _with(obj: dict, **changes) -> str:
    return json.dumps({**obj, **changes}, separators=(",", ":"))


def _raw(obj: dict, key: str, text: str) -> str:
    """The line as written, with the text of `key`'s value replaced."""
    return _with(obj, **{key: 0}).replace(f'"{key}":0', f'"{key}":{text}')


# each turns a record's JSON object into the text of its line
_PERTURBATIONS = {
    "as-written": lambda obj: _with(obj),
    "leading-space": lambda obj: " " + _with(obj),
    "trailing-spaces": lambda obj: _with(obj) + "  ",
    "bom": lambda obj: "\ufeff" + _with(obj),
    "trailing-junk": lambda obj: _with(obj) + "x",
    "second-object": lambda obj: _with(obj) + "{}",
    "reordered-keys": lambda obj: json.dumps(dict(reversed(obj.items()))),
    "true-in-int": lambda obj: _with(obj, seq=True),
    "float-in-int": lambda obj: _with(obj, t1=1.0),
    "nan": lambda obj: _with(obj, t2=math.nan),
    "duplicate-key-last": lambda obj: _with(obj)[:-1] + ',"seq":5}',
    "duplicate-key-first": lambda obj: '{"seq":5,' + _with(obj)[1:],
    "spaced": lambda obj: json.dumps(obj),
    # integers JSON reads as int() does, or refuses although int() reads them
    "minus-zero": lambda obj: _raw(obj, "seq", "-0"),
    "leading-zero": lambda obj: _raw(obj, "seq", "01"),
    "non-ascii-digit": lambda obj: _raw(obj, "seq", "\u0663"),
    "non-ascii-second-digit": lambda obj: _raw(obj, "seq", "1\u0663"),
    "25-digits": lambda obj: _raw(obj, "t1", "1" * 25),
    "over-int-max-str-digits": lambda obj: _raw(obj, "t2", "9" * 5_000),
    "exponent": lambda obj: _raw(obj, "t3", "1e3"),
    "int-in-corrupt": lambda obj: _with(obj, corrupt=0),
    "null-in-corrupt": lambda obj: _with(obj, corrupt=None),
    "blank": lambda obj: "",
    "whitespace": lambda obj: " \t ",
}


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(st.tuples(_RECORDS, st.sampled_from(sorted(_PERTURBATIONS))),
                      max_size=6),
       newline=st.sampled_from(["\n", "\r\n"]), last_newline=st.booleans())
def test_ingest_matches_the_field_by_field_reference(tmp_path_factory, lines,
                                                      newline, last_newline):
    text = newline.join(_PERTURBATIONS[kind](record.to_json_obj())
                        for record, kind in lines)
    path = tmp_path_factory.getbasetemp() / "perturbed.jsonl"
    path.write_bytes((text + (newline if last_newline else "")).encode("utf-8"))
    assert _outcome(ingest, path) == _outcome(_reference_ingest, path)


# -- percentile / cdf -------------------------------------------------------

def test_percentile_nearest_rank_examples():
    samples = [i * MS for i in range(1, 101)]
    assert percentile(samples, 0.95) == 95 * MS
    assert percentile(samples, 0.99) == 99 * MS
    assert percentile(samples, 1.0) == 100 * MS
    assert percentile([7 * MS], 0.5) == 7 * MS
    assert percentile([5, 5, 5, 5], 0.99) == 5


def test_percentile_contract_errors():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 0.0)
    with pytest.raises(ValueError):
        percentile([1], 1.5)


def test_percentile_matches_sort_oracle():
    rng = random.Random(31)
    for _ in range(200):
        samples = [rng.randrange(0, 10**9) for _ in range(rng.randrange(1, 500))]
        q = rng.uniform(0.01, 1.0)
        ordered = sorted(samples)
        expected = ordered[math.ceil(q * len(ordered)) - 1]
        assert percentile(samples, q) == expected


def test_cdf_examples():
    assert cdf([1, 2, 3, 4]) == [(1, 0.25), (2, 0.5), (3, 0.75), (4, 1.0)]
    assert cdf([9, 9, 9]) == [(9, 1.0)]
    with pytest.raises(ValueError):
        cdf([])


def test_cdf_fractions_nondecreasing_and_end_at_one():
    rng = random.Random(5)
    samples = [rng.randrange(0, 100) for _ in range(10_000)]
    points = cdf(samples)
    fractions = [f for _, f in points]
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0
    # consistency with the percentile: the CDF at the p95 value is >= 0.95
    p95 = percentile(samples, 0.95)
    frac_at_p95 = max(f for v, f in points if v <= p95)
    assert frac_at_p95 >= 0.95


# -- summarize --------------------------------------------------------------

def test_summarize_single_record():
    stats = summarize([_record(0, ul=4 * MS, dl=3 * MS)], "e2e")
    assert stats.n == 1
    assert stats.mean_ns == stats.p95_ns == stats.p99_ns == 7 * MS
    assert stats.min_ns == stats.max_ns == 7 * MS


def test_summarize_is_permutation_invariant():
    rng = random.Random(8)
    records = [_record(i, ul=rng.randrange(1, 50) * MS) for i in range(200)]
    shuffled = records[:]
    rng.shuffle(shuffled)
    a, b = summarize(records, "ul"), summarize(shuffled, "ul")
    assert (a.mean_ns, a.p95_ns, a.p99_ns, a.min_ns, a.max_ns, a.cdf) == \
           (b.mean_ns, b.p95_ns, b.p99_ns, b.min_ns, b.max_ns, b.cdf)


def test_summarize_invariant_to_constant_offset_with_perfect_estimates():
    base = [_record(i, ul=(2 + i % 5) * MS) for i in range(100)]
    shifted = []
    for rec in base:
        # receiver clock 25 ms fast at t2, perfectly estimated
        shifted.append(dataclasses.replace(rec, t2=rec.t2 + 25 * MS,
                                           e2=rec.e2 - 25 * MS))
    a, b = summarize(base, "ul"), summarize(shifted, "ul")
    assert (a.mean_ns, a.p95_ns, a.p99_ns) == (b.mean_ns, b.p95_ns, b.p99_ns)


def test_summarize_excludes_corrupt_records():
    records = [_record(0, ul=3 * MS), _record(1, ul=900 * MS, corrupt=True)]
    stats = summarize(records, "ul")
    assert stats.n == 1 and stats.max_ns == 3 * MS


def test_summarize_requires_usable_records():
    with pytest.raises(ValueError):
        summarize([_record(0, corrupt=True)], "ul")
    with pytest.raises(ValueError):
        summarize([], "e2e")


def test_latency_requirement_check_is_expressible():
    # e.g. "95% of latencies below 40 ms" is a plain percentile comparison
    records = [_record(i, ul=3 * MS, dl=2 * MS) for i in range(100)]
    assert summarize(records, "e2e").p95_ns < 40 * MS


def test_summarize_rejects_unknown_metric():
    with pytest.raises(ValueError):
        summarize([_record(0)], "sideways")


# -- handover flagging ------------------------------------------------------

def test_detect_no_events_flags_nothing():
    records = [_record(i) for i in range(10)]
    assert detect_handover_affected(records, []) == []


def test_detect_exact_window_intersection():
    # downlink interval of record i is [t3, t4) = [t1 + 3ms, t1 + 5ms)
    base = 10**9
    records = [_record(i, t1=base + i * 50 * MS) for i in range(20)]
    window_start = records[7].t3 + MS  # cuts through record 7's interval
    events = [HandoverEvent(time_ns=window_start, from_cell=2, to_cell=1,
                            interruption_ns=MS // 2)]
    flagged = detect_handover_affected(records, events)
    assert [r.seq for r in flagged] == [7]


def test_detect_half_open_boundaries():
    rec = _record(0, t1=10**9)
    start, end = rec.t3, rec.t4  # interval [start, end)
    ends_at_start = HandoverEvent(time_ns=start - MS, from_cell=2, to_cell=1,
                                  interruption_ns=MS)
    begins_at_end = HandoverEvent(time_ns=end, from_cell=2, to_cell=1,
                                  interruption_ns=MS)
    overlapping = HandoverEvent(time_ns=end - 1, from_cell=2, to_cell=1,
                                interruption_ns=MS)
    assert detect_handover_affected([rec], [ends_at_start]) == []
    assert detect_handover_affected([rec], [begins_at_end]) == []
    assert [r.seq for r in detect_handover_affected([rec], [overlapping])] == [0]


# -- reports ----------------------------------------------------------------

def _stats(values) -> LatencyStats:
    return LatencyStats.from_samples(list(values))


def test_emit_report_files(tmp_path):
    stats = {"alpha": _stats([MS, 2 * MS, 3 * MS]),
             "beta": _stats([5 * MS] * 4)}
    written = emit_report(stats, tmp_path)
    stats_csv = tmp_path / "stats.csv"
    assert stats_csv in written
    rows = stats_csv.read_text().strip().splitlines()
    assert len(rows) == 3  # header + 2 scenarios
    assert rows[0] == "scenario,n,mean_ns,p95_ns,p99_ns"
    assert (tmp_path / "cdf_alpha.csv").exists()
    assert (tmp_path / "cdf_beta.csv").exists()


def test_cdf_svg_is_wellformed_with_one_polyline_per_scenario(tmp_path):
    stats = {name: _stats([MS * (i + 1) for i in range(20)])
             for name in ("s1", "s2", "s3")}
    emit_report(stats, tmp_path)
    tree = ET.parse(tmp_path / "cdf.svg")
    polylines = tree.getroot().findall(
        ".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == 3


def test_per_packet_outputs(tmp_path):
    records = [_record(i) for i in range(10)]
    path = tmp_path / "per_packet_x.csv"
    analysis.write_per_packet_csv(records, path, affected_seqs={3})
    with open(path) as fp:
        rows = list(csv.DictReader(fp))
    assert len(rows) == 10
    assert rows[3]["affected"] == "1" and rows[0]["affected"] == "0"
    assert int(rows[0]["e2e_ns"]) == 5 * MS
    svg = analysis.emit_per_packet_chart("x", records, tmp_path)
    ET.parse(svg)  # must be valid XML


def test_per_packet_csv_leaves_a_corrupt_records_latencies_blank(tmp_path):
    # a corrupt record is never flagged affected, even if its seq is listed
    records = [_record(7, corrupt=True, serving_cell=2), _record(8)]
    path = tmp_path / "per_packet_x.csv"
    analysis.write_per_packet_csv(records, path, affected_seqs={7})
    lines = path.read_text().splitlines()
    assert lines[1] == "7,,,,2,1,0"
    assert lines[2] == f"8,{3 * MS},{2 * MS},{5 * MS},1,0,0"


# -- charts -----------------------------------------------------------------

def _brute_m4(points, x_min, x_span, columns):
    """Per column, point by point: the first, last, lowest and highest
    point (the first of equals), in x order."""
    ordered = sorted(points, key=lambda p: p[0])
    bounds = [x_min + c * x_span / columns for c in range(1, columns)]
    by_column: dict[int, list[int]] = {}
    for i, (x, _) in enumerate(ordered):
        by_column.setdefault(sum(b <= x for b in bounds), []).append(i)
    kept = []
    for column in sorted(by_column):
        members = by_column[column]
        ys = [ordered[i][1] for i in members]
        kept += sorted({members[0], members[-1], members[ys.index(min(ys))],
                        members[ys.index(max(ys))]})
    return [ordered[i] for i in kept]


@settings(max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(st.integers(0, 40) | st.floats(0, 40),
                                 st.integers(-5, 5)), max_size=60),
       columns=st.integers(1, 12))
def test_m4_keeps_each_columns_first_last_lowest_and_highest(points, columns):
    xs = [x for x, _ in points]
    x_min = min(xs, default=0)
    x_span = (max(xs, default=0) - x_min) or 1
    assert (analysis.m4(points, x_min, x_span, columns)
            == _brute_m4(points, x_min, x_span, columns))


def _polylines(svg_path) -> list[list[tuple[float, float]]]:
    root = ET.parse(svg_path).getroot()
    return [[tuple(map(float, pair.split(","))) for pair in line.get("points").split()]
            for line in root.iter("{http://www.w3.org/2000/svg}polyline")]


def test_every_series_with_a_sample_draws_two_distinct_vertices(tmp_path):
    emit_report({"one": _stats([7 * MS]), "flat": _stats([7 * MS] * 5),
                 "spread": _stats(range(MS, 900 * MS, 7 * MS))}, tmp_path)
    for records in ([_record(0)], [_record(3)] * 4, [_record(i) for i in range(50)]):
        svg = analysis.emit_per_packet_chart("x", records, tmp_path)
        [vertices] = _polylines(svg)
        assert len(set(vertices)) >= 2
    for vertices in _polylines(tmp_path / "cdf.svg"):
        assert len(set(vertices)) >= 2


def test_a_point_mass_cdf_is_a_vertical_segment(tmp_path):
    emit_report({"flat": _stats([7 * MS] * 200)}, tmp_path)
    [vertices] = _polylines(tmp_path / "cdf.svg")
    # from fraction 0 at the foot of the plot to 1 at its top
    assert vertices == [(70.0, 450.0), (70.0, 70.0)]


@pytest.mark.parametrize("n", [1_000, 100_000])
def test_chart_size_does_not_grow_with_the_records(tmp_path, n):
    rng = random.Random(n)
    records = [_record(seq, ul=rng.randrange(MS, 50 * MS), dl=rng.randrange(MS, 9 * MS))
               for seq in range(n)]
    rng.shuffle(records)
    emit_report({"x": summarize(records)}, tmp_path)
    analysis.emit_per_packet_chart("x", records, tmp_path)
    for name in ("cdf.svg", "per_packet_x.svg"):
        assert (tmp_path / name).stat().st_size < 48_000, name
