"""Log format and scenario generator tests."""

import enum
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myobridge import session
from myobridge.protocol import EmgFrame, ImuFrame
from myobridge.session import (
    InvalidScenarioError,
    LogParseError,
    MonotonicityError,
    Pose,
    PerformerScript,
    Scenario,
    SessionRecord,
    UnsupportedVersionError,
    default_scenario,
    generate_scenario,
    iter_log,
    make_meta_record,
    record,
    records_to_frames,
    scenario_from_dict,
)


def still_pose(duration_s=1.0, micro=0.0, tension=(0.0,) * 8):
    return Pose(duration_s=duration_s, orientation=(0.0, 0.0, 0.0),
                tension=tension, micromotion_amp=micro,
                transition_motion_amp=4.0)


def tiny_scenario(**kwargs):
    return Scenario(performers=(PerformerScript(poses=(still_pose(),)),),
                    **kwargs)


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
    with pytest.raises(MonotonicityError) as excinfo:
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
    with pytest.raises(UnsupportedVersionError):
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


@settings(max_examples=500, deadline=None)
@given(rec=odd_records())
def test_serialize_matches_json_dumps_or_raises_alike(rec):
    try:
        expected = reference_serialize(rec)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        with pytest.raises(type(exc)):
            session._serialize(rec)
        return
    assert session._serialize(rec) == expected


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

def test_zero_micromotion_zero_tension_is_constant_and_silent():
    logs = generate_scenario(tiny_scenario(), seed=1)
    assert len(logs) == 1
    recs = logs[0]
    assert recs[0].kind == "meta"
    assert recs[0].data["version"] == session.LOG_VERSION
    assert recs[0].data["rng"] == session.RNG_ALGORITHM
    imu = [r for r in recs if r.kind == "imu"]
    emg = [r for r in recs if r.kind == "emg"]
    assert len(imu) == 50 and len(emg) == 200
    assert len({r.data for r in imu}) == 1  # constant orientation
    assert all(r.data == (0,) * 8 for r in emg)
    # identity orientation at rest: quat (1,0,0,0), accel points up
    assert imu[0].data == (16384, 0, 0, 0, 0, 0, 2048, 0, 0, 0)


def test_generation_is_seed_deterministic(tmp_path):
    scenario = default_scenario()
    small = Scenario(
        performers=tuple(PerformerScript(
            poses=tuple(Pose(duration_s=2.0, orientation=p.orientation,
                             tension=p.tension)
                        for p in script.poses[:2]))
                         for script in scenario.performers[:2]),
        transition_s=0.5)
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


def test_default_scenario_spans_nine_minutes_per_performer():
    scenario = default_scenario()
    logs = generate_scenario(scenario, seed=9)
    assert len(logs) == 4
    for recs in logs:
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
    )),), transition_s=0.5)
    path = tmp_path / "p0.jsonl"
    assert record(generate_scenario(scenario, seed=2012)[0], path) == 1001
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "823f59757bb4ca6683fc91ac0b5103b00f17370756dbed4640b53e06d8f06329")


def test_generated_logs_are_monotone_and_in_range(tmp_path):
    logs = generate_scenario(default_scenario(), seed=3)
    path = tmp_path / "p0.jsonl"
    record(logs[0][:5000], path)
    parsed = list(iter_log(path))  # raises if malformed
    assert parsed[0].kind == "meta"


def test_transitions_inject_supra_threshold_motion():
    scenario = Scenario(performers=(PerformerScript(poses=(
        still_pose(duration_s=4.0, micro=1.0),
        Pose(duration_s=4.0, orientation=(0.5, 0.3, -0.2),
             tension=(0.0,) * 8, micromotion_amp=1.0,
             transition_motion_amp=4.0),
    )),), transition_s=1.0)
    logs = generate_scenario(scenario, seed=11)
    frames = [f for f in records_to_frames(logs[0])
              if isinstance(f, ImuFrame)]
    # first pose: gyro small; transition window (4.0..5.0 s): gyro huge
    hold = [f for f in frames if f.t_us < 3_900_000]
    burst = [f for f in frames if 4_000_000 <= f.t_us < 4_900_000]
    assert max(abs(g) for f in hold for g in f.gyro) < 50.0
    assert min(abs(f.gyro[0]) for f in burst) > 1000.0


def pose_dict(**overrides):
    return {"duration_s": 1.0, "orientation": [0.0, 0.0, 0.0],
            "tension": [0.0] * 8, **overrides}


def test_scenario_validation_errors():
    inf, nan = math.inf, math.nan
    # (scenario keys, pose keys, text the error names)
    rows = [
        ({"transition_s": -1.0}, {}, "transition_s"),
        ({"transition_s": nan}, {}, "transition_s"),
        ({"transition_s": inf}, {}, "transition_s"),
        ({}, {"duration_s": -1}, "duration"),
        ({}, {"duration_s": 0.0}, "duration"),
        ({}, {"duration_s": nan}, "duration"),
        ({}, {"duration_s": inf}, "duration"),
        ({}, {"orientation": [0.0, 0.0]}, "orientation"),
        ({}, {"orientation": [nan, 0.0, 0.0]}, "orientation"),
        ({}, {"orientation": [0.0, -inf, 0.0]}, "orientation"),
        ({}, {"tension": [2.0] + [0] * 7}, "tension"),
        ({}, {"tension": [nan] * 8}, "tension"),
        ({}, {"tension": [0.0] * 7}, "tension"),
        ({}, {"micromotion_amp": -1.0}, "amplitudes"),
        ({}, {"micromotion_amp": nan}, "amplitudes"),
        ({}, {"micromotion_amp": inf}, "amplitudes"),
        ({}, {"transition_motion_amp": nan}, "amplitudes"),
    ]
    for top, pose, what in rows:
        obj = {"performers": [{"poses": [pose_dict(), pose_dict(**pose)]}],
               **top}
        where = "performer 0 pose 1: " if pose else ""
        with pytest.raises(InvalidScenarioError, match=where + what):
            scenario_from_dict(obj)
    # the constructor refuses the same values without the loader
    with pytest.raises(InvalidScenarioError, match="no performers"):
        Scenario(performers=())
    with pytest.raises(InvalidScenarioError, match="performer 0 has no poses"):
        Scenario(performers=(PerformerScript(poses=()),))
    with pytest.raises(InvalidScenarioError, match="performer 0 pose 0"):
        Scenario(performers=(PerformerScript(poses=(still_pose(micro=nan),)),))
    with pytest.raises(InvalidScenarioError, match="transition_s"):
        tiny_scenario(transition_s=nan)
    with pytest.raises(InvalidScenarioError):
        scenario_from_dict({"wrong": []})
    # JSON's NaN literal is refused too
    with pytest.raises(InvalidScenarioError, match="transition_s"):
        scenario_from_dict(json.loads(
            '{"transition_s": NaN, "performers": [{"poses": [{'
            '"duration_s": 1, "orientation": [0, 0, 0], "tension": '
            '[0, 0, 0, 0, 0, 0, 0, 0]}]}]}'))


def test_scenario_from_dict_refuses_unknown_keys_and_malformed_values():
    loaded = scenario_from_dict({"performers": [{"poses": [pose_dict()]}]})
    assert loaded == Scenario(performers=(PerformerScript(poses=(Pose(
        duration_s=1.0, orientation=(0.0, 0.0, 0.0), tension=(0.0,) * 8),)),))
    bad = [
        {"performers": [{"poses": [pose_dict(micromotion_amps=0.0)]}]},
        {"performers": [{"poses": [pose_dict()], "pose": []}]},
        {"performers": [{"poses": [pose_dict()]}], "transition": 1.0},
        {"performers": [{"poses": [pose_dict()]}], "transition_s": "soon"},
        {"performers": [{"poses": [pose_dict()]}], "transition_s": None},
        {"performers": [{"poses": [pose_dict(duration_s="long")]}]},
        {"performers": [{"poses": [pose_dict(duration_s=10**400)]}]},
        {"performers": [{"poses": [pose_dict(orientation=1.0)]}]},
        {"performers": [{"poses": [pose_dict(tension="tight")]}]},
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
_amp = st.floats(0.0, 100.0)
_poses = st.lists(st.builds(
    Pose,
    duration_s=st.floats(0.0, 0.2, exclude_min=True),
    orientation=st.tuples(_angle, _angle, _angle),
    tension=st.tuples(*[st.floats(0.0, 1.0)] * 8),
    micromotion_amp=_amp,
    transition_motion_amp=_amp), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(poses=_poses, transition_s=st.floats(0.0, 0.5),
       seed=st.integers(0, 2**32 - 1))
def test_every_accepted_scenario_generates_logs_that_read_back(
        poses, transition_s, seed):
    scenario = Scenario(performers=(PerformerScript(poses=tuple(poses)),),
                        transition_s=transition_s)
    logs = generate_scenario(scenario, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p0.jsonl"
        record(logs[0], path)
        assert list(iter_log(path)) == logs[0]
