"""Log format and scenario generator tests."""

import dataclasses
import enum
import hashlib
import io
import itertools
import json
import math
import re
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

def test_record_empty_stream_writes_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert record([], path) == 0
    assert path.read_bytes() == b""
    assert list(iter_log(path)) == []


def test_record_preserves_arrival_order(tmp_path):
    recs = [
        SessionRecord(0, "imu", (0,) * 10),
        SessionRecord(2500, "emg", (1,) * 8),
        SessionRecord(5000, "emg", (-1,) * 8),
    ]
    path = tmp_path / "log.jsonl"
    assert record(recs, path) == 3
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert [json.loads(l)["kind"] for l in lines] == ["imu", "emg", "emg"]
    assert list(iter_log(path)) == recs


def test_record_replay_record_round_trip(tmp_path):
    logs = generate_scenario(tiny_scenario(), seed=5)
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    record(logs[0], p1)
    record(iter_log(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_monotonicity_error_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    recs = [SessionRecord(100, "imu", (0,) * 10),
            SessionRecord(50, "imu", (0,) * 10)]
    record(recs, path)
    with pytest.raises(LogParseError, match="precedes") as excinfo:
        list(iter_log(path))
    assert excinfo.value.line_no == 2
    assert "line 2" in str(excinfo.value)


def test_corrupt_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    lines = [session._serialize(SessionRecord(i * 1000, "emg", (0,) * 8))
             for i in range(20)]
    lines[16] = '{"t_us": 16000, "kind": "emg", "data": [0,0,0'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogParseError) as excinfo:
        list(iter_log(path))
    assert excinfo.value.line_no == 17


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
    path = tmp_path / "log.jsonl"
    path.write_text('{"t_us":-9223372036854775808,"kind":"meta",'
                    '"data":{"version":"1.0"}}\n'
                    '{"t_us":%s,"kind":"emg","data":[0,0,0,0,0,0,0,0]}\n'
                    % t_us)
    if error is None:
        assert [r.t_us for r in iter_log(path)] == [-2**63, int(t_us)]
        return
    with pytest.raises(LogParseError, match=error) as excinfo:
        list(iter_log(path))
    assert excinfo.value.line_no == 2


def test_non_ascii_byte_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"t_us":0,"kind":"emg","data":[0,0,0,0,0,0,0,0]}\n'
                     b'{"t_us":5000,"kind":"emg\xff","data":[]}\n')
    with pytest.raises(LogParseError) as excinfo:
        list(iter_log(path))
    assert excinfo.value.line_no == 2
    assert "0xff" in str(excinfo.value)


_EMG_LINE = b'{"t_us":%d,"kind":"emg","data":[0,0,0,0,0,0,0,0]}'


@pytest.mark.parametrize("line", [
    b"\x0c" + _EMG_LINE % 5000,
    _EMG_LINE % 5000 + b"\x1f",
    _EMG_LINE % 5000 + b"\x0b\r",
    b"\x1c" + _EMG_LINE % 5000 + b"\x1d",
    b"\x1e",
])
def test_control_bytes_json_refuses_name_their_line(tmp_path, line):
    # str.strip() dropped these, so the line was read as a valid record
    path = tmp_path / "bad.jsonl"
    path.write_bytes(_EMG_LINE % 0 + b"\n" + line + b"\n")
    with pytest.raises(LogParseError, match="invalid JSON") as excinfo:
        list(iter_log(path))
    assert excinfo.value.line_no == 2


def test_json_whitespace_and_blank_lines_are_accepted(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_bytes(b"\n \t\r\n" + _EMG_LINE % 0 + b"\r\n\n"
                     + b" \t" + _EMG_LINE % 5000 + b" \t\r\n")
    assert [r.t_us for r in iter_log(path)] == [0, 5000]


def test_unknown_major_version_rejected(tmp_path):
    path = tmp_path / "v2.jsonl"
    path.write_text('{"t_us":0,"kind":"meta","data":{"version":"2.0"}}\n')
    with pytest.raises(LogParseError, match="unsupported log version"):
        list(iter_log(path))


def test_out_of_range_values_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t_us":0,"kind":"emg","data":[999,0,0,0,0,0,0,0]}\n')
    with pytest.raises(LogParseError):
        list(iter_log(path))
    path.write_text('{"t_us":0,"kind":"imu","data":[40000,0,0,0,0,0,0,0,0,0]}\n')
    with pytest.raises(LogParseError):
        list(iter_log(path))


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t_us":0,"kind":"wat","data":[]}\n')
    with pytest.raises(LogParseError):
        list(iter_log(path))


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
    path = tmp_path / "log.jsonl"
    other = dict(make_meta_record().data, quat_scale=8192.0)
    record([SessionRecord(0, "imu", (0,) * 10),
            SessionRecord(0, "meta", other)], path)
    with pytest.raises(LogParseError) as excinfo:
        list(iter_log(path))
    assert excinfo.value.line_no == 2
    assert "quat_scale" in str(excinfo.value)
    # a meta record that leaves the units out is accepted
    record([SessionRecord(0, "meta", {"version": "1.0"})], path)
    assert len(list(iter_log(path))) == 1


def reference_serialize(rec):
    """The writer's line before per-kind templates: json.dumps alone."""
    data = rec.data if isinstance(rec.data, dict) else list(rec.data)
    return json.dumps({"t_us": rec.t_us, "kind": rec.kind, "data": data},
                      separators=(",", ":"))


class Level(enum.IntEnum):
    LOW = -3
    HIGH = 40000


_odd_value = st.one_of(
    st.integers(),
    st.sampled_from([2**63, -2**63 - 1, 10**30, 10**5000, -10**5000]),
    st.booleans(),
    st.floats(),  # NaN and infinities included
    st.sampled_from([Level.LOW, Level.HIGH, np.int64(7), np.int16(-2)]),
)


@st.composite
def odd_records(draw):
    """Mostly near-valid records: the kind's length or one off, int16
    values with up to two odd ones, and t_us of any int, bool or float."""
    kind = draw(st.sampled_from(["imu", "emg", "meta", "other"]))
    t_us = draw(st.integers() | st.sampled_from(
        [True, False, 2.0, math.nan, 10**5000]))
    form = draw(st.sampled_from([list, tuple, tuple, dict]))
    if form is dict:
        data = draw(st.dictionaries(st.text(max_size=3), _odd_value,
                                    max_size=3))
    else:
        n = {"imu": 10, "emg": 8}.get(kind, 8) + draw(
            st.sampled_from([0, 0, 0, -1, 1]))
        values = draw(st.lists(st.integers(-32768, 32767),
                               min_size=n, max_size=n))
        for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            values[i] = draw(_odd_value)
        data = form(values)
    return SessionRecord(t_us, kind, data)


def _write_one(rec):
    """The text the block writer writes for a block of one record."""
    fh = io.BytesIO()
    session._write_block(fh, [rec])
    return fh.getvalue().decode("ascii")


@settings(max_examples=500, deadline=None)
@given(rec=odd_records())
def test_serialize_matches_json_dumps_or_raises_alike(rec):
    try:
        expected = reference_serialize(rec)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        with pytest.raises(type(exc)):
            _write_one(rec)
        return
    assert _write_one(rec) == expected + "\n"


_valid_record = st.one_of(
    st.builds(SessionRecord, t_us=st.integers(-2**63, 2**63 - 1),
              kind=st.just("imu"),
              data=st.tuples(*[st.integers(-32768, 32767)] * 10)),
    st.builds(SessionRecord, t_us=st.integers(-2**63, 2**63 - 1),
              kind=st.just("emg"),
              data=st.tuples(*[st.integers(-128, 127)] * 8)),
)


@settings(max_examples=100, deadline=None)
@given(recs=st.lists(_valid_record, max_size=30),
       device_id=st.text(max_size=5))
def test_record_then_iter_log_gives_back_every_valid_record(recs, device_id):
    meta = make_meta_record(device_id)
    recs = [SessionRecord(-2**63, "meta", meta.data)] + sorted(
        recs, key=lambda r: r.t_us)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        assert record(iter(recs), path) == len(recs)
        assert list(iter_log(path)) == recs


_meta_record = st.builds(make_meta_record, st.text(max_size=3))


@st.composite
def _spoiled_record(draw):
    """A valid record with one value swapped for none, one or two odd
    ones, so a block of valid records around it passes every check but
    one."""
    rec = draw(_valid_record)
    data = list(rec.data)
    at = draw(st.integers(0, len(data) - 1))
    data[at:at + 1] = draw(st.lists(_odd_value, max_size=2))
    return rec._replace(data=draw(st.sampled_from([tuple, list]))(data))


def _reference_file(recs):
    """The bytes the per-record writer leaves for recs, and the type of
    the exception it raises at the first record json.dumps refuses."""
    lines = []
    for rec in recs:
        try:
            lines.append(reference_serialize(rec) + "\n")
        except Exception as exc:  # noqa: BLE001 - the type is what is compared
            return "".join(lines).encode(), type(exc)
    return "".join(lines).encode(), None


class SourceDropped(Exception):
    """Raised by a record source that stops partway through a take."""


def _source(recs, drops):
    yield from recs
    if drops:
        raise SourceDropped


# json.dumps escapes non-ASCII text, and the writer encodes the escaped
# line: a meta record with such a device id, alone and ahead of a block
# that the templates print
_NON_ASCII_META = make_meta_record("\u00e9\u2603")
_EMG_RECORDS = [SessionRecord(t, "emg", (t - 64,) * 8) for t in range(5)]


@settings(max_examples=100, deadline=None)
@given(recs=st.lists(st.one_of(_valid_record, _valid_record, _meta_record,
                               _spoiled_record(), odd_records()),
                     max_size=12),
       drops=st.booleans())
@example(recs=[_NON_ASCII_META], drops=False)
@example(recs=[_NON_ASCII_META] + _EMG_RECORDS, drops=False)
def test_block_writer_writes_and_raises_as_the_line_writer(recs, drops):
    expected, refused = _reference_file(recs)
    if refused is None and drops:
        refused = SourceDropped
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        for size in (1, 2, 3, 255, session._BLOCK_RECORDS):
            with mock.patch.object(session, "_BLOCK_RECORDS", size):
                if refused is None:
                    assert record(_source(recs, drops), path) == len(recs)
                else:
                    with pytest.raises(refused):
                        record(_source(recs, drops), path)
            assert path.read_bytes() == expected, size


def test_record_keeps_what_a_source_gave_before_it_raised(tmp_path):
    recs = [make_meta_record()] + [SessionRecord(i, "emg", (i % 128,) * 8)
                                   for i in range(1, 300)]
    path = tmp_path / "log.jsonl"
    with pytest.raises(SourceDropped):
        record(_source(recs, drops=True), path)
    # 299 records after the meta line: one whole block and a partial one
    assert path.read_bytes() == _reference_file(recs)[0]
    assert path.read_bytes().count(b"\n") == 300


def test_block_writer_meets_odd_records_deep_in_a_long_stream(tmp_path):
    recs = [SessionRecord(i, "emg", (i % 128,) * 8) for i in range(900)]
    recs[0] = make_meta_record()
    recs[300] = SessionRecord(300, "meta", {"note": "resync"})
    recs[301] = SessionRecord(301, "emg", (True,) * 8)
    recs[517] = SessionRecord(517, "imu", (Level.LOW,) * 10)
    recs[600] = SessionRecord(600, "emg", [1.5] * 8)
    path = tmp_path / "log.jsonl"
    assert record(recs, path) == 900
    assert path.read_bytes() == _reference_file(recs)[0]
    # an int past Python's int/str digit limit passes the type checks and
    # is refused by %: the lines before it, in its block too, reach the file
    recs[850] = SessionRecord(850, "emg", (1, 10**5000, 2, 3, 4, 5, 6, 7))
    expected, refused = _reference_file(recs)
    assert refused is ValueError
    with pytest.raises(ValueError):
        record(recs, path)
    assert path.read_bytes() == expected
    assert expected.count(b"\n") == 850


def _writer_peak_bytes(path, n):
    """Peak bytes allocated while record writes a generator of n records."""
    records = (SessionRecord(i, "emg", (i % 128,) * 8) for i in range(n))
    tracemalloc.start()
    try:
        assert record(records, path) == n
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_record_memory_does_not_grow_with_the_log(tmp_path):
    small = _writer_peak_bytes(tmp_path / "small.jsonl", 5_000)
    large = _writer_peak_bytes(tmp_path / "large.jsonl", 50_000)
    # the large log's text is about 2.6 MB
    assert large < 1 << 20
    assert large < small + (64 << 10)


_META_LINE = session._serialize(make_meta_record()).encode() + b"\n"


def _first_value(token):
    return lambda line: [re.sub(rb"\[-?\d+", b"[" + token, line, count=1)]


def _t_us(token):
    return lambda line: [re.sub(rb'"t_us":-?\d+', b'"t_us":' + token, line)]


# fault -> the lines that replace a good line
_FAULTS = {
    "bad-json": lambda line: [line[:len(line) // 2] + b"\n"],
    "int8-range": _first_value(b"128"),
    "int8-low": _first_value(b"-129"),
    "int16-range": _first_value(b"-32769"),
    "int16-high": _first_value(b"32768"),
    "true": _first_value(b"true"),
    "float": _first_value(b"1.0"),
    "decreasing-t": _t_us(b"-1"),
    "int64-range": _t_us(b"9223372036854775808"),
    "non-ascii": lambda line: [line[:5] + b"\xe9" + line[5:]],
    "blank": lambda line: [b" \t\n", line],
    "crlf": lambda line: [line.replace(b"\n", b"\r\n")],
    "kind-swap": lambda line: [line.replace(b'"imu"', b'"x"').replace(
        b'"emg"', b'"imu"').replace(b'"x"', b'"emg"')],
    "unknown-kind": lambda line: [line.replace(b'"kind":"', b'"kind":"x')],
    "extra-key": lambda line: [line.replace(b'"kind"', b'"x":[1],"kind"')],
    "meta": lambda line: [_META_LINE, line],
    "split": lambda line: [line.replace(b',"data"', b',\n"data"')],
    # the joined block parses, as one object where two lines stood
    "nested": lambda line: [b'{"t_us":0,"kind":"emg","data":[1\n',
                            b'{"a":1},2,3,4,5,6,7]}\n'],
    "deep": lambda line: [b'{"a":' + b"[" * 2000 + b"]" * 2000 + b"}\n"],
}


@st.composite
def faulty_logs(draw):
    """A written log, with faults injected at random lines past its meta
    record."""
    recs = draw(st.lists(_valid_record, min_size=1, max_size=40))
    t0 = draw(st.integers(0, 10**6))
    steps = draw(st.lists(st.integers(0, 5000), min_size=len(recs),
                          max_size=len(recs)))
    lines = [_META_LINE] + [
        session._serialize(SessionRecord(t, rec.kind, rec.data)).encode()
        + b"\n" for t, rec in zip(itertools.accumulate(steps, initial=t0),
                                  recs)]
    for fault in draw(st.lists(st.sampled_from(sorted(_FAULTS)),
                               min_size=1, max_size=3)):
        at = draw(st.integers(1, len(lines) - 1))
        lines[at:at + 1] = _FAULTS[fault](lines[at])
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip(b"\r\n")
    return b"".join(lines)


def _read_until_error(records):
    got = []
    try:
        for rec in records:
            got.append(rec)
    except LogParseError as exc:
        return got, (type(exc), str(exc), getattr(exc, "line_no", None))
    return got, None


def _blocks_of(fh, block_bytes):
    """The line counts of the blocks iter_log reads from this file at this
    block size: the same readline, then readlines(block_bytes) until the
    file ends."""
    fh.seek(0)
    fh.readline()
    return tuple(iter(lambda: len(fh.readlines(block_bytes)), 0))


@settings(max_examples=200, deadline=None)
@given(content=faulty_logs())
def test_block_reader_yields_and_raises_as_the_line_parser(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        path.write_bytes(content)
        # blocks of 1 to 200 bytes break at every line, so each fault lands
        # first, in the middle and last in a block.  iter_log uses the size
        # only as the readlines hint, so sizes that cut the file into the
        # same blocks read it alike: one size per distinct cut is run.
        sizes = {}
        with open(path, "rb") as fh:
            expected = _read_until_error(session._parse_lines(fh, 1, None))
            for block_bytes in range(1, 201):
                sizes.setdefault(_blocks_of(fh, block_bytes), block_bytes)
        for block_bytes in sizes.values():
            with mock.patch.object(session, "_BLOCK_BYTES", block_bytes):
                assert _read_until_error(iter_log(path)) == expected


def test_a_valid_log_is_read_in_blocks_past_its_meta_line(tmp_path,
                                                          monkeypatch):
    scenario = Scenario(performers=(PerformerScript(
        poses=(still_pose(duration_s=4.0),)),))
    recs = generate_scenario(scenario, seed=1)[0]
    path = tmp_path / "p0.jsonl"
    assert record(recs, path) == 1001
    calls = []
    parse_line = session._parse_line

    def counted(line, line_no):
        calls.append(line_no)
        return parse_line(line, line_no)

    monkeypatch.setattr(session, "_parse_line", counted)
    assert list(iter_log(path)) == recs
    assert calls == [1]


def test_record_writes_lines_while_the_stream_is_still_running(tmp_path):
    path = tmp_path / "log.jsonl"
    sizes = []

    def live_bridge():
        for i in range(20_000):
            if i % 5000 == 0:
                sizes.append(path.stat().st_size)
            yield SessionRecord(i, "emg", (i % 128,) * 8)

    assert record(live_bridge(), path) == 20_000
    # earlier lines reach the file before the generator is exhausted
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
    for recs in bundled_logs:
        imu = [r for r in recs if r.kind == "imu"]
        assert len(imu) == 27000
        span_s = (imu[-1].t_us - imu[0].t_us) / 1e6
        assert abs(span_s - 540.0) <= 0.02  # one frame period
        emg = [r for r in recs if r.kind == "emg"]
        assert len(emg) == 108000


def test_recorded_scenario_matches_golden_hash(tmp_path):
    """Pins the generator (and its Euler -> quaternion step) and the writer."""
    scenario = Scenario(performers=(PerformerScript(poses=(
        Pose(duration_s=2.0, orientation=(0.4, -0.3, 1.2),
             tension=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)),
        Pose(duration_s=2.0, orientation=(-2.5, 0.9, -2.9),
             tension=(0.8, 0.0, 0.6, 0.0, 0.4, 0.0, 0.2, 0.0)),
    )),))
    path = tmp_path / "p0.jsonl"
    assert record(generate_scenario(scenario, seed=2012)[0], path) == 1001
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "005f1f24672789b67ce896c3fc8dc5d0c237f4874e838d4e97a27ec37eee933d")


def test_bundled_scenario_matches_golden_hash(tmp_path, bundled_logs):
    """Pins the bundled scenario file and its loader, with the generator
    and the writer, at seed 1."""
    path = tmp_path / "p0.jsonl"
    record(bundled_logs[0][:5000], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "7b2ba679c3b2cb8e6ed45ec55f0fb6c23ed4c2989f8481f26e27f63da928892f")


def test_generated_logs_are_monotone_and_in_range(tmp_path):
    # performer 0 alone: SeedSequence(3).spawn(n)[0] is the same child for
    # any n, so its log is the one the whole scenario gives it
    scenario = default_scenario()
    logs = generate_scenario(dataclasses.replace(
        scenario, performers=scenario.performers[:1]), seed=3)
    path = tmp_path / "p0.jsonl"
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
        path = Path(tmp) / "p0.jsonl"
        record(logs[0], path)
        assert list(iter_log(path)) == logs[0]
