"""The real-path log check fails on missing, duplicated or corrupt
messages."""

import json

import workload_real


def _record(seq, **overrides):
    rec = {"src": workload_real.SOURCE_ID, "seq": seq, "t1": 10, "t2": 20,
           "t3": 30, "t4": 40, "e1": 0, "e2": 0, "e3": 0, "e4": 0,
           "size": workload_real.FRAME_BYTES, "cell": -1, "corrupt": False,
           "gt_ul": -1, "gt_dl": -1}
    rec.update(overrides)
    return rec


def _check(tmp_path, records, n=4):
    log = tmp_path / "vehicle.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    return workload_real.check_log(log, n)


def test_complete_log_passes(tmp_path):
    by_seq, problems = _check(tmp_path, [_record(s) for s in (2, 0, 3, 1)])
    assert problems == []
    assert [rec["seq"] for rec in by_seq] == [0, 1, 2, 3]


def test_missing_message_fails(tmp_path):
    _, problems = _check(tmp_path, [_record(s) for s in (0, 1, 3)])
    assert problems == ["1 of 4 messages missing"]


def test_duplicated_message_fails(tmp_path):
    _, problems = _check(tmp_path, [_record(s) for s in (0, 1, 1, 2, 3)])
    assert problems == ["1 of 4 messages duplicated"]


def test_corrupt_message_fails(tmp_path):
    records = [_record(0), _record(1, corrupt=True), _record(2), _record(3)]
    _, problems = _check(tmp_path, records)
    assert problems == ["1 of 4 messages missing", "1 of 4 messages corrupt"]


def test_out_of_range_or_short_frame_fails(tmp_path):
    records = [_record(0), _record(1), _record(2, size=999), _record(7)]
    _, problems = _check(tmp_path, records)
    assert problems == ["2 of 4 messages missing",
                        "2 of 4 messages malformed or out of range"]
