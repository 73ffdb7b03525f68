"""Log format and scenario generator tests."""

import dataclasses
import enum
import hashlib
import itertools
import json
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from myobridge import session
from myobridge.protocol import EmgFrame, ImuFrame
from myobridge.session import (
    InvalidScenarioError,
    LogParseError,
    Pose,
    PerformerScript,
    Scenario,
    SessionRecord,
    default_scenario,
    generate_scenario,
    iter_log,
    make_meta_record,
    record,
    records_to_frames,
    scenario_from_dict,
)


def still_pose(duration_s=1.0, tension=(0.0,) * 8):
    return Pose(duration_s=duration_s, orientation=(0.0, 0.0, 0.0),
                tension=tension)


def tiny_scenario():
    return Scenario(performers=(PerformerScript(poses=(still_pose(),)),))


# --- log writing and parsing ---------------------------------------------------

_META = make_meta_record()
_META_LINE = json.dumps(_META._asdict(),
                        separators=(",", ":")).encode() + b"\n"
# a valid log past its meta record
_BODY = [SessionRecord(0, "imu", (16384, 0, 0, 0, 0, 0, 2048, 0, 0, 0)),
         SessionRecord(2500, "emg", (1,) * 8),
         SessionRecord(5000, "emg", (-1,) * 8)]


def _emg_bytes(t_us, code=2):
    """An EMG record's bytes, under any kind byte."""
    return struct.pack("<qB8b", t_us, code, *(0,) * 8)


def test_record_empty_stream_writes_empty_file(tmp_path):
    path = tmp_path / "empty.log"
    assert record([], path) == 0
    assert path.read_bytes() == b""
    assert list(iter_log(path)) == []


def test_record_preserves_arrival_order(tmp_path):
    recs = [_META] + _BODY
    path = tmp_path / "log.log"
    assert record(recs, path) == 4
    content = path.read_bytes()
    starts = [len(_META_LINE) + at for at in (0, 29, 29 + 17)]
    assert content.startswith(_META_LINE) and len(content) == starts[-1] + 17
    # the kind byte follows each record's int64 t_us
    assert [content[at + 8] for at in starts] == [1, 2, 2]
    assert list(iter_log(path)) == recs


def test_record_replay_record_round_trip(tmp_path):
    logs = generate_scenario(tiny_scenario(), seed=5)
    p1 = tmp_path / "a.log"
    p2 = tmp_path / "b.log"
    record(logs[0], p1)
    record(iter_log(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_monotonicity_error_names_line(tmp_path):
    # the writer keeps the order it is given; the reader yields every
    # record before the one that goes back in time
    path = tmp_path / "bad.log"
    recs = [_META, SessionRecord(100, "imu", (0,) * 10),
            SessionRecord(50, "imu", (0,) * 10)]
    assert record(recs, path) == 3
    got = []
    with pytest.raises(LogParseError, match="precedes") as excinfo:
        got.extend(iter_log(path))
    assert got == recs[:2]
    assert (excinfo.value.record_no, excinfo.value.offset) == (
        3, len(_META_LINE) + 29)
    assert f"record 3 at byte {len(_META_LINE) + 29}" in str(excinfo.value)


def _refusal(path):
    """The LogParseError iter_log raises on path."""
    with pytest.raises(LogParseError) as excinfo:
        list(iter_log(path))
    return excinfo.value


def test_corrupt_json_names_line(tmp_path):
    path = tmp_path / "bad.log"
    path.write_bytes(_META_LINE[:len(_META_LINE) // 2] + b"\n"
                     + _emg_bytes(0))
    error = _refusal(path)
    assert (error.record_no, error.offset) == (1, 0)
    assert "invalid JSON" in str(error)


@pytest.mark.parametrize("t_us, error", [
    (str(2**63 - 1), None),
    (str(-2**63), None),
    (str(2**63), "signed 64-bit"),
    (str(-2**63 - 1), "signed 64-bit"),
    ("1" + "0" * 400, "signed 64-bit"),  # parses; float time would overflow
    # past Python's int/str digit limit, where json.loads raises a plain
    # ValueError rather than JSONDecodeError
    ("1" + "0" * 5000, "invalid JSON"),
])
def test_t_us_outside_int64_names_line(tmp_path, t_us, error):
    # the meta line is JSON, so its t_us is checked against int64 when read;
    # a binary record's t_us is an int64 by its layout
    path = tmp_path / "log.log"
    path.write_bytes(b'{"t_us":%s,"kind":"meta","data":{"version":"2.0"}}\n'
                     % t_us.encode())
    if error is None:
        assert [r.t_us for r in iter_log(path)] == [int(t_us)]
        return
    with pytest.raises(LogParseError, match=error) as excinfo:
        list(iter_log(path))
    assert excinfo.value.record_no == 1


def test_non_ascii_byte_names_line(tmp_path):
    path = tmp_path / "bad.log"
    path.write_bytes(_META_LINE.replace(b'"meta"', b'"meta\xff"')
                     + _emg_bytes(0))
    error = _refusal(path)
    assert (error.record_no, error.offset) == (1, 0)
    assert "0xff" in str(error)


_EMG_LINE = b'{"t_us":%d,"kind":"emg","data":[0,0,0,0,0,0,0,0]}'


@pytest.mark.parametrize("line", [
    b"\x0c" + _EMG_LINE % 5000,
    _EMG_LINE % 5000 + b"\x1f",
    _EMG_LINE % 5000 + b"\x0b\r",
    b"\x1c" + _EMG_LINE % 5000 + b"\x1d",
    b"\x1e",
])
def test_control_bytes_json_refuses_name_their_line(tmp_path, line):
    # str.strip() would drop these bytes; json.loads refuses them, before
    # it could see that the line is not a meta record
    path = tmp_path / "bad.log"
    path.write_bytes(line + b"\n" + _emg_bytes(5000))
    with pytest.raises(LogParseError, match="invalid JSON") as excinfo:
        list(iter_log(path))
    assert excinfo.value.record_no == 1


def test_json_whitespace_around_the_meta_line_is_accepted(tmp_path):
    path = tmp_path / "ok.log"
    path.write_bytes(b" \t" + _META_LINE[:-1] + b" \t\r\n" + _emg_bytes(0))
    assert [r.kind for r in iter_log(path)] == ["meta", "emg"]
    # a blank line is not a meta record
    path.write_bytes(b"\n" + _META_LINE)
    assert _refusal(path).record_no == 1


def test_unknown_major_version_rejected(tmp_path):
    path = tmp_path / "log.log"
    for version in ["1.0", "3.0", "", "20.0", "².0"]:
        meta = SessionRecord(0, "meta", {"version": version})
        with pytest.raises(LogParseError, match="unsupported log version"):
            record([meta], path)
        assert path.read_bytes() == b""
        path.write_bytes(json.dumps(meta._asdict()).encode() + b"\n")
        with pytest.raises(LogParseError, match="unsupported log version"):
            list(iter_log(path))


def _refused_at(path, recs, record_no):
    """record refuses recs at record_no, after writing every record before
    it: the file reads back as exactly those records."""
    with pytest.raises(ValueError, match=f"^record {record_no}: "):
        record(recs, path)
    assert list(iter_log(path)) == recs[:record_no - 1]


def test_out_of_range_values_rejected(tmp_path):
    path = tmp_path / "log.log"
    for kind, n, lo, hi in (("imu", 10, -32768, 32767), ("emg", 8, -128, 127)):
        ok = [_META, SessionRecord(1, kind, (lo,) * n),
              SessionRecord(2, kind, (hi,) * n)]
        assert record(ok, path) == 3
        assert list(iter_log(path)) == ok
        for past in (lo - 1, hi + 1):
            past_record = SessionRecord(3, kind, (0, past) * (n // 2))
            _refused_at(path, ok + [past_record], 4)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "log.log"
    for kind in ("wat", "", ["imu"]):
        _refused_at(path, [_META] + _BODY + [SessionRecord(6000, kind, ())],
                    5)


def test_records_to_frames_applies_meta_scales(tmp_path):
    recs = [
        make_meta_record(device_id="x"),
        SessionRecord(0, "imu", (16384, 0, 0, 0, 2048, 0, 0, 16, 0, 0)),
        SessionRecord(0, "emg", (5,) * 8),
    ]
    frames = list(records_to_frames(recs))
    assert isinstance(frames[0], ImuFrame)
    assert frames[0].quat == (1.0, 0.0, 0.0, 0.0)
    assert frames[0].accel == (1.0, 0.0, 0.0)
    assert frames[0].gyro == (1.0, 0.0, 0.0)
    assert isinstance(frames[1], EmgFrame)
    assert frames[1].channels == (5,) * 8


def test_log_declaring_other_units_names_line(tmp_path):
    path = tmp_path / "log.log"
    other = SessionRecord(0, "meta", dict(_META.data, quat_scale=8192.0))
    # the writer refuses the meta record the reader would refuse
    with pytest.raises(LogParseError, match="quat_scale"):
        record([other] + _BODY, path)
    assert path.read_bytes() == b""
    path.write_bytes(json.dumps(other._asdict()).encode() + b"\n")
    error = _refusal(path)
    assert (error.record_no, error.offset) == (1, 0)
    assert "quat_scale" in str(error)
    # a meta record that leaves the units out is accepted
    record([SessionRecord(0, "meta", {"version": "2.0"})], path)
    assert len(list(iter_log(path))) == 1


# fault -> (the log's bytes, the record refused, where it starts, its message)
_READ_FAULTS = {
    "truncated-last-record": (
        _META_LINE + _emg_bytes(0) + _emg_bytes(5)[:-3],
        3, len(_META_LINE) + 17, "truncated record"),
    "unknown-kind-byte": (
        _META_LINE + _emg_bytes(0) + _emg_bytes(5, code=7) + _emg_bytes(9),
        3, len(_META_LINE) + 17, "unknown kind byte 7"),
    "decreasing-timestamp": (
        _META_LINE + _emg_bytes(0) + _emg_bytes(5) + _emg_bytes(4),
        4, len(_META_LINE) + 34, "timestamp 4 precedes 5"),
    "version-1-jsonl-log": (
        b'{"t_us":0,"kind":"meta","data":{"version":"1.0"}}\n'
        + _EMG_LINE % 0 + b"\n", 1, 0, "unsupported log version '1.0'"),
    "first-line-not-meta": (
        _EMG_LINE % 0 + b"\n" + _emg_bytes(5), 1, 0, "must be a meta record"),
    "other-device-units": (
        _META_LINE.replace(b'"gyro_scale":16.0', b'"gyro_scale":16.5'),
        1, 0, "meta gyro_scale 16.5 is not the device's 16.0"),
}


@pytest.mark.parametrize("fault", sorted(_READ_FAULTS))
def test_iter_log_refuses_a_fault_naming_its_record_and_offset(tmp_path,
                                                               fault):
    content, record_no, offset, message = _READ_FAULTS[fault]
    path = tmp_path / "bad.log"
    path.write_bytes(content)
    good = content[:offset]  # the records before the fault, whole
    if good:
        (tmp_path / "good.log").write_bytes(good)
    expected = list(iter_log(tmp_path / "good.log")) if good else []
    got = []
    with pytest.raises(LogParseError) as excinfo:
        got.extend(iter_log(path))
    assert got == expected and len(got) == record_no - 1
    error = excinfo.value
    assert (error.record_no, error.offset) == (record_no, offset)
    assert str(error).startswith(f"record {record_no} at byte {offset}: ")
    assert message in str(error)


_RECORD_SIZES = {"imu": 29, "emg": 17}


@settings(max_examples=150, deadline=None)
@given(meta=st.booleans(),
       pieces=st.lists(st.binary(max_size=40)
                       | st.integers(0, 99).map(_emg_bytes), max_size=8))
@example(meta=True, pieces=[_emg_bytes(5), _emg_bytes(4)])
@example(meta=True, pieces=[_emg_bytes(5), _emg_bytes(6)[:-1]])
def test_any_bytes_give_records_then_at_most_one_refusal(meta, pieces):
    data = (_META_LINE if meta else b"") + b"".join(pieces)
    got = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "any.log"
        path.write_bytes(data)
        try:
            got.extend(iter_log(path))
        except LogParseError as error:
            # the refused record starts where the records read end
            assert error.record_no == len(got) + 1
            read = data.index(b"\n") + 1 + sum(
                _RECORD_SIZES[rec.kind] for rec in got[1:]) if got else 0
            assert 0 <= error.offset == read < len(data)
    assert all(rec.kind == "meta" for rec in got[:1])


class Level(enum.IntEnum):
    LOW = -3
    HIGH = 40000


# fault -> the record refused, at record 5 after four good ones; None for a
# log that does not start with its meta record.  Values one past their
# range and unknown kinds are refused the same way in
# test_out_of_range_values_rejected and test_unknown_kind_rejected.
_WRITE_FAULTS = {
    "intenum-past-range": SessionRecord(6000, "imu", (Level.HIGH,) * 10),
    "float-value": SessionRecord(6000, "emg", (1.0,) + (0,) * 7),
    "float-t_us": SessionRecord(6000.0, "emg", (0,) * 8),
    "t_us-past-int64": SessionRecord(2**63, "emg", (0,) * 8),
    "huge-int": SessionRecord(6000, "emg", (10**5000,) + (0,) * 7),
    "wrong-count": SessionRecord(6000, "emg", (0,) * 7),
    "not-a-sequence": SessionRecord(6000, "emg", 0),
    "meta-after-first": make_meta_record(),
    "first-not-meta": None,
}


@pytest.mark.parametrize("fault", sorted(_WRITE_FAULTS))
def test_record_refuses_a_record_after_writing_every_earlier_one(tmp_path,
                                                                 fault):
    bad = _WRITE_FAULTS[fault]
    path = tmp_path / "log.log"
    if bad is None:
        _refused_at(path, _BODY, 1)
    else:
        _refused_at(path, [_META] + _BODY + [bad, _BODY[-1]], 5)


class _ShortReads:
    """A log opened for iter_log whose read(n) returns at most io_bytes
    bytes, so the reader's chunks end wherever a test puts them."""

    def __init__(self, path, io_bytes):
        self._fh = open(path, "rb")
        self._io_bytes = io_bytes

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def readline(self, limit):
        return self._fh.readline(limit)

    def read(self, n):
        return self._fh.read(min(n, self._io_bytes))


def _read_in_chunks_of(path, io_bytes):
    """iter_log's records, its reads past the meta line cut to io_bytes."""
    with mock.patch.object(session, "open", create=True,
                           new=lambda p, mode: _ShortReads(p, io_bytes)):
        return list(iter_log(path))


@settings(max_examples=100, deadline=None)
@given(recs=st.lists(st.one_of(
           st.builds(SessionRecord, t_us=st.integers(-2**63, 2**63 - 1),
                     kind=st.just("imu"),
                     data=st.tuples(*[st.integers(-32768, 32767)] * 10)),
           st.builds(SessionRecord, t_us=st.integers(-2**63, 2**63 - 1),
                     kind=st.just("emg"),
                     data=st.tuples(*[st.integers(-128, 127)] * 8))),
           max_size=30),
       device_id=st.text(max_size=5),
       io_bytes=st.integers(1, 64))
@example(recs=[], device_id="é☃", io_bytes=1)
def test_record_then_iter_log_gives_back_every_valid_record(recs, device_id,
                                                            io_bytes):
    # io_bytes cuts the file into chunks that split records anywhere
    meta = make_meta_record(device_id)
    recs = [SessionRecord(-2**63, "meta", meta.data)] + sorted(
        recs, key=lambda r: r.t_us)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.log"
        assert record(iter(recs), path) == len(recs)
        assert _read_in_chunks_of(path, io_bytes) == recs


class SourceDropped(Exception):
    """Raised by a record source that stops partway through a take."""


def _source(recs, drops):
    yield from recs
    if drops:
        raise SourceDropped


def test_record_keeps_what_a_source_gave_before_it_raised(tmp_path):
    # more records than one write holds: one whole write and a partial one
    recs = [make_meta_record()] + [SessionRecord(i, "emg", (i % 128,) * 8)
                                   for i in range(1, 5000)]
    path = tmp_path / "log.log"
    with pytest.raises(SourceDropped):
        record(_source(recs, drops=True), path)
    assert list(iter_log(path)) == recs
    assert record(recs, tmp_path / "whole.log") == 5000
    assert path.read_bytes() == (tmp_path / "whole.log").read_bytes()


def test_block_writer_meets_odd_records_deep_in_a_long_stream(tmp_path):
    # past the first write: ints of other types are packed by value and read
    # back as plain ints, and a float is refused at its record
    recs = [SessionRecord(i, "emg", (i % 128,) * 8) for i in range(10_000)]
    recs[0] = make_meta_record()
    recs[4001] = SessionRecord(4001, "emg", (True, False) * 4)
    recs[4517] = SessionRecord(4517, "imu", (Level.LOW,) * 10)
    recs[4600] = SessionRecord(np.int64(4600), "emg", (np.int8(-5),) * 8)
    path = tmp_path / "log.log"
    assert record(recs, path) == 10_000
    back = list(iter_log(path))
    assert back[4001].data == (1, 0) * 4
    assert back[4517].data == (-3,) * 10
    assert back[4600] == SessionRecord(4600, "emg", (-5,) * 8)
    assert {type(v) for rec in back[1:] for v in (rec.t_us,) + rec.data} == {
        int}
    recs[8000] = SessionRecord(8000, "emg", [1.5] * 8)
    _refused_at(path, recs, 8001)


def _emg_log(n):
    """A generator of a meta record and n - 1 EMG records."""
    return itertools.chain([make_meta_record()], (
        SessionRecord(i, "emg", (i % 128,) * 8) for i in range(1, n)))


def _writer_peak_bytes(path, n):
    """Peak bytes allocated while record writes _emg_log(n)."""
    records = _emg_log(n)
    tracemalloc.start()
    try:
        assert record(records, path) == n
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_record_memory_does_not_grow_with_the_log(tmp_path):
    small = _writer_peak_bytes(tmp_path / "small.log", 5_000)
    large = _writer_peak_bytes(tmp_path / "large.log", 50_000)
    # the large log is about 0.85 MB
    assert large < 1 << 20
    assert large < small + (64 << 10)


def _reader_peak_bytes(path, n):
    """Peak bytes allocated while iter_log reads _emg_log(n) back."""
    record(_emg_log(n), path)
    tracemalloc.start()
    try:
        assert sum(1 for _ in iter_log(path)) == n
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_iter_log_memory_does_not_grow_with_the_log(tmp_path):
    small = _reader_peak_bytes(tmp_path / "small.log", 5_000)
    large = _reader_peak_bytes(tmp_path / "large.log", 50_000)
    assert large < 1 << 20
    assert large < small + (64 << 10)


def test_a_meta_line_without_a_newline_is_refused_unread(tmp_path):
    path = tmp_path / "no-newline.log"
    with open(path, "wb") as fh:
        for _ in range(20):
            fh.write(b"\x01" * (1 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(LogParseError, match="meta line longer") as err:
            list(iter_log(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.record_no, err.value.offset) == (1, 0)
    # the whole 20 MB file once peaked at 40.6 MB
    assert peak < 4 * session._IO_BYTES


def _meta_of_line_length(n):
    """A meta record whose line, newline included, is n bytes long."""
    short = len(json.dumps(make_meta_record("")._asdict(),
                           separators=(",", ":"))) + 1
    return make_meta_record("x" * (n - short))


def test_the_longest_meta_line_is_read_and_one_byte_more_is_refused(tmp_path):
    path = tmp_path / "longest.log"
    recs = [_meta_of_line_length(session._IO_BYTES)] + _BODY
    assert record(recs, path) == len(recs)
    assert path.read_bytes().index(b"\n") + 1 == session._IO_BYTES
    assert list(iter_log(path)) == recs
    # record refuses the longer line before writing a byte ...
    too_long = _meta_of_line_length(session._IO_BYTES + 1)
    with pytest.raises(LogParseError, match="meta line longer") as err:
        record([too_long] + _BODY, path)
    assert (err.value.record_no, err.value.offset) == (1, 0)
    assert path.read_bytes() == b""
    # ... and iter_log refuses the same line written by hand
    path.write_bytes(json.dumps(too_long._asdict(), separators=(",", ":"))
                     .encode() + b"\n")
    with pytest.raises(LogParseError, match="meta line longer") as err:
        list(iter_log(path))
    assert (err.value.record_no, err.value.offset) == (1, 0)


def test_a_valid_log_is_read_in_blocks_past_its_meta_line(tmp_path):
    scenario = Scenario(performers=(PerformerScript(
        poses=(still_pose(duration_s=4.0),)),))
    recs = generate_scenario(scenario, seed=1)[0]
    path = tmp_path / "p0.log"
    assert record(recs, path) == 1001
    # reads that end inside a record's t_us, at its kind byte, in its
    # values and at its end, and one read for the whole file
    for io_bytes in (1, 2, 8, 9, 10, 16, 17, 28, 29, 30, 1 << 20):
        assert _read_in_chunks_of(path, io_bytes) == recs, io_bytes


def test_record_writes_lines_while_the_stream_is_still_running(tmp_path):
    path = tmp_path / "log.log"
    sizes = []

    def live_bridge():
        yield make_meta_record()
        for i in range(20_000):
            if i % 5000 == 0:
                sizes.append(path.stat().st_size)
            yield SessionRecord(i, "emg", (i % 128,) * 8)

    assert record(live_bridge(), path) == 20_001
    # earlier records reach the file before the generator is exhausted
    assert sizes[0] == 0 and sizes[-1] > 0


# --- scenario generation ---------------------------------------------------------

def test_one_second_pose_writes_meta_then_50_imu_and_200_emg_records():
    logs = generate_scenario(tiny_scenario(), seed=1)
    assert len(logs) == 1
    recs = logs[0]
    assert recs[0].kind == "meta"
    assert recs[0].data["version"] == session.LOG_VERSION
    assert recs[0].data["rng"] == session.RNG_ALGORITHM
    imu = [r for r in recs if r.kind == "imu"]
    emg = [r for r in recs if r.kind == "emg"]
    assert len(imu) == 50 and len(emg) == 200


def test_generation_is_seed_deterministic(tmp_path):
    scenario = default_scenario()
    small = Scenario(
        performers=tuple(PerformerScript(
            poses=tuple(Pose(duration_s=2.0, orientation=p.orientation,
                             tension=p.tension)
                        for p in script.poses[:2]))
                         for script in scenario.performers[:2]))
    logs_a = generate_scenario(small, seed=42)
    logs_b = generate_scenario(small, seed=42)
    for a, b in zip(logs_a, logs_b):
        assert a == b
    logs_c = generate_scenario(small, seed=43)
    assert logs_c != logs_a


def test_default_scenario_shape():
    scenario = default_scenario()
    assert len(scenario.performers) == 4
    for script in scenario.performers:
        assert len(script.poses) == 4
        assert sum(p.duration_s for p in script.poses) == 540.0


def test_default_scenario_spans_nine_minutes_per_performer(bundled_logs):
    # the seed moves no value asserted here: timestamps are sample index
    # times period, and counts are the pose durations times the rate
    assert len(bundled_logs) == 4
    for log in bundled_logs:
        # one pass, as each pass over a Log decodes its records afresh
        imu_t = [t_us for t_us, kind, _ in log if kind == "imu"]
        assert len(imu_t) == 27000
        # past its meta record a log holds only IMU and EMG records
        assert log[0].kind == "meta" and len(log) - 1 - 27000 == 108000
        span_s = (imu_t[-1] - imu_t[0]) / 1e6
        assert abs(span_s - 540.0) <= 0.02  # one frame period


def test_recorded_scenario_matches_golden_hash(tmp_path):
    """Pins the generator (and its Euler -> quaternion step) and the writer."""
    scenario = Scenario(performers=(PerformerScript(poses=(
        Pose(duration_s=2.0, orientation=(0.4, -0.3, 1.2),
             tension=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)),
        Pose(duration_s=2.0, orientation=(-2.5, 0.9, -2.9),
             tension=(0.8, 0.0, 0.6, 0.0, 0.4, 0.0, 0.2, 0.0)),
    )),))
    path = tmp_path / "p0.log"
    assert record(generate_scenario(scenario, seed=2012)[0], path) == 1001
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "c12d2fe8d69443cfc7df908b4caebbfc2aa8420757077ec42a1bdf1ba62b7c59")


def test_bundled_scenario_matches_golden_hash(tmp_path, bundled_logs):
    """Pins the bundled scenario file and its loader, with the generator
    and the writer, at seed 1."""
    path = tmp_path / "p0.log"
    record(bundled_logs[0][:5000], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "b5e7d797ddb2fa6dc94e735793f8b5322d3d314c00d82c4a6e28adcb8b8c6735")


def test_generated_logs_are_monotone_and_in_range(tmp_path):
    # performer 0 alone: SeedSequence(3).spawn(n)[0] is the same child for
    # any n, so its log is the one the whole scenario gives it
    scenario = default_scenario()
    logs = generate_scenario(dataclasses.replace(
        scenario, performers=scenario.performers[:1]), seed=3)
    path = tmp_path / "p0.log"
    record(logs[0][:5000], path)
    parsed = list(iter_log(path))  # raises if malformed
    assert parsed[0].kind == "meta"


def test_transitions_inject_supra_threshold_motion():
    scenario = Scenario(performers=(PerformerScript(poses=(
        still_pose(duration_s=4.0),
        Pose(duration_s=4.0, orientation=(0.5, 0.3, -0.2),
             tension=(0.0,) * 8),
    )),))
    logs = generate_scenario(scenario, seed=11)
    frames = [f for f in records_to_frames(logs[0])
              if isinstance(f, ImuFrame)]
    # first pose: gyro small; transition window (4.0..6.0 s): gyro huge
    hold = [f for f in frames if f.t_us < 3_900_000]
    burst = [f for f in frames if 4_000_000 <= f.t_us < 4_900_000]
    assert max(abs(g) for f in hold for g in f.gyro) < 50.0
    assert min(abs(f.gyro[0]) for f in burst) > 1000.0


def pose_dict(**overrides):
    return {"duration_s": 1.0, "orientation": [0.0, 0.0, 0.0],
            "tension": [0.0] * 8, **overrides}


def test_scenario_validation_errors():
    inf, nan = math.inf, math.nan
    # (pose keys, text the error names)
    rows = [
        ({"duration_s": -1}, "duration"),
        ({"duration_s": 0.0}, "duration"),
        ({"duration_s": nan}, "duration"),
        ({"duration_s": inf}, "duration"),
        ({"orientation": [0.0, 0.0]}, "orientation"),
        ({"orientation": [nan, 0.0, 0.0]}, "orientation"),
        ({"orientation": [0.0, -inf, 0.0]}, "orientation"),
        ({"tension": [2.0] + [0] * 7}, "tension"),
        ({"tension": [nan] * 8}, "tension"),
        ({"tension": [0.0] * 7}, "tension"),
    ]
    for pose, what in rows:
        obj = {"performers": [{"poses": [pose_dict(), pose_dict(**pose)]}]}
        with pytest.raises(InvalidScenarioError, match=(
                "malformed scenario: performer 0 pose 1: " + what)):
            scenario_from_dict(obj)
    # the constructor refuses the same values without the loader, the
    # wrong types included
    ok = still_pose()
    rows = [
        ({}, Pose(1.0, "123", (0.0,) * 8), "orientation"),
        ({}, Pose(1.0, [0.0, 0.0, 0.0], (0.0,) * 8), "orientation"),
        ({}, Pose(1.0, (0.0, "1", 0.0), (0.0,) * 8), "orientation"),
        ({}, still_pose(duration_s=True), "duration"),
        ({}, still_pose(duration_s="5"), "duration"),
        ({}, still_pose(duration_s=10**400), "duration"),
        ({}, still_pose(duration_s=nan), "duration"),
        ({}, still_pose(tension="0" * 8), "tension"),
        ({}, still_pose(tension=(False,) * 8), "tension"),
        ({}, "still", "not a Pose"),
        ({"name": None}, ok, "name"),
        ({"name": 7}, ok, "name"),
    ]
    for top, pose, what in rows:
        where = "performer 0 pose 1: " if pose is not ok else ""
        with pytest.raises(InvalidScenarioError, match=where + what):
            Scenario(performers=(PerformerScript(poses=(ok, pose)),), **top)
    with pytest.raises(InvalidScenarioError, match="no performers"):
        Scenario(performers=())
    with pytest.raises(InvalidScenarioError, match="no performers"):
        Scenario(performers=[PerformerScript(poses=(ok,))])
    with pytest.raises(InvalidScenarioError, match="performer 0 has no poses"):
        Scenario(performers=(PerformerScript(poses=()),))
    with pytest.raises(InvalidScenarioError, match="performer 1 has no poses"):
        Scenario(performers=(PerformerScript(poses=(ok,)),
                             PerformerScript(poses=[ok])))
    with pytest.raises(InvalidScenarioError, match="performer 0 has no poses"):
        Scenario(performers=((ok,),))
    with pytest.raises(InvalidScenarioError):
        scenario_from_dict({"wrong": []})
    # JSON's NaN literal is refused too
    with pytest.raises(InvalidScenarioError, match="duration"):
        scenario_from_dict(json.loads(
            '{"performers": [{"poses": [{'
            '"duration_s": NaN, "orientation": [0, 0, 0], "tension": '
            '[0, 0, 0, 0, 0, 0, 0, 0]}]}]}'))


def test_scenario_from_dict_refuses_unknown_keys_and_malformed_values():
    loaded = scenario_from_dict({"performers": [{"poses": [pose_dict()]}]})
    assert loaded == Scenario(performers=(PerformerScript(poses=(Pose(
        duration_s=1.0, orientation=(0.0, 0.0, 0.0), tension=(0.0,) * 8),)),))
    bad = [
        {"performers": [{"poses": [pose_dict(micromotion_amps=0.0)]}]},
        # the motion model is fixed: the old amplitude knobs are unknown
        {"performers": [{"poses": [pose_dict(micromotion_amp=1.0)]}]},
        {"performers": [{"poses": [pose_dict(transition_motion_amp=4.0)]}]},
        {"performers": [{"poses": [pose_dict()], "pose": []}]},
        {"performers": [{"poses": [pose_dict()]}], "transition": 1.0},
        # the transition is session.TRANSITION_S: its old key is unknown
        {"performers": [{"poses": [pose_dict()]}], "transition_s": 2.0},
        {"performers": [{"poses": [pose_dict()]}], "transition_s": -1.0},
        {"performers": [{"poses": [pose_dict(duration_s="long")]}]},
        {"performers": [{"poses": [pose_dict(duration_s=10**400)]}]},
        {"performers": [{"poses": [pose_dict(orientation=1.0)]}]},
        {"performers": [{"poses": [pose_dict(tension="tight")]}]},
        # nothing is coerced: JSON numbers, arrays and a string name only
        {"performers": [{"poses": [pose_dict(orientation="123")]}]},
        {"performers": [{"poses": [pose_dict(
            orientation={"1": 0, "2": 0, "3": 0})]}]},
        {"performers": [{"poses": [pose_dict(orientation=[0, "1", 0])]}]},
        {"performers": [{"poses": [pose_dict(tension="0" * 8)]}]},
        {"performers": [{"poses": [pose_dict(duration_s=True)]}]},
        {"performers": [{"poses": [pose_dict(duration_s="5")]}]},
        {"performers": [{"poses": [pose_dict()]}], "name": None},
        {"performers": [{"poses": [pose_dict()]}], "name": 7},
        {"performers": [{"poses": [{"orientation": [0.0, 0.0, 0.0],
                                    "tension": [0.0] * 8}]}]},
        {"performers": [{"poses": ["still"]}]},
        {"performers": {"poses": []}},
        [],
    ]
    for obj in bad:
        with pytest.raises(InvalidScenarioError, match="malformed scenario"):
            scenario_from_dict(obj)


_angle = st.floats(-2 * math.pi, 2 * math.pi)
_poses = st.lists(st.builds(
    Pose,
    duration_s=st.floats(0.0, 0.2, exclude_min=True),
    orientation=st.tuples(_angle, _angle, _angle),
    tension=st.tuples(*[st.floats(0.0, 1.0)] * 8)), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(poses=_poses, seed=st.integers(0, 2**32 - 1))
def test_every_accepted_scenario_generates_logs_that_read_back(poses, seed):
    scenario = Scenario(performers=(PerformerScript(poses=tuple(poses)),))
    logs = generate_scenario(scenario, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p0.log"
        record(logs[0], path)
        assert list(iter_log(path)) == logs[0]


def _per_sample_log(script, seed):
    """Performer 0's log as the generator built it before it packed its
    arrays: one SessionRecord per sample, EMG then IMU, sorted stably by
    t_us, so EMG comes first at equal stamps."""
    child = np.random.SeedSequence(seed).spawn(1)[0]
    imu, emg = session._samples(script, np.random.Generator(
        np.random.PCG64(child)))
    records = (
        [SessionRecord(t, "emg", tuple(row))
         for t, row in zip(emg["t_us"].tolist(), emg["values"].tolist())]
        + [SessionRecord(t, "imu", tuple(row))
           for t, row in zip(imu["t_us"].tolist(), imu["values"].tolist())])
    records.sort(key=lambda rec: rec.t_us)
    meta = make_meta_record(device_id="synthetic-0")
    meta.data.update(seed=seed, performer=0)
    return [meta] + records


@settings(max_examples=60, deadline=None)
@given(poses=_poses, seed=st.integers(0, 2**32 - 1))
# no record at all, then one EMG sample and no IMU sample
@example(poses=[still_pose(duration_s=0.001)], seed=0)
@example(poses=[still_pose(duration_s=0.005)], seed=0)
def test_a_generated_log_is_the_bytes_record_writes_for_its_records(poses,
                                                                    seed):
    script = PerformerScript(poses=tuple(poses))
    (log,) = generate_scenario(Scenario(performers=(script,)), seed)
    with tempfile.TemporaryDirectory() as tmp:
        packed, written, oracle = (Path(tmp) / name
                                   for name in ("packed", "written", "oracle"))
        assert log.write(packed) == len(log)
        record(list(log), written)
        record(_per_sample_log(script, seed), oracle)
        assert packed.read_bytes() == written.read_bytes() \
            == oracle.read_bytes()


def test_a_log_reads_as_the_list_of_its_records():
    (log,) = generate_scenario(tiny_scenario(), seed=1)
    records = list(log)
    assert len(log) == len(records) == 251
    for i in (0, 1, 2, 7, 250, -1, -2, -251):
        assert log[i] == records[i]
    for i in (251, -252):
        with pytest.raises(IndexError):
            log[i]
    for rows in (slice(None), slice(0, 5), slice(1, None), slice(3, 17),
                 slice(-5, None), slice(None, -1), slice(5, 5), slice(9, 2),
                 slice(1, 200, 7), slice(None, None, -3), slice(40, 3, -2)):
        assert log[rows] == records[rows], rows
    # each read decodes a record of its own: changing one changes no other
    log[0].data["seed"] = 2
    assert log[0].data["seed"] == 1


def test_a_log_equals_the_same_records_in_any_sequence():
    (log,) = generate_scenario(tiny_scenario(), seed=1)
    records = list(log)
    (again,) = generate_scenario(tiny_scenario(), seed=1)
    (other,) = generate_scenario(tiny_scenario(), seed=2)
    later = records[:-1] + [records[-1]._replace(t_us=records[-1].t_us + 1)]
    for same in (records, tuple(records), again):
        assert log == same and same == log
        assert not (log != same or same != log)
    for different in (later, tuple(later), records[:-1], records + records[:1],
                      other):
        assert log != different and different != log
        assert not (log == different or different == log)
    assert log != "p0.log" and log != iter(records)
