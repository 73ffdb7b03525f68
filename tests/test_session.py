"""Log format, replay, and scenario generator tests."""

import hashlib
import json

import numpy as np
import pytest

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
    replay,
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
    assert list(replay(path)) == []


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
    record(replay(p1), p2)
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


def test_non_ascii_byte_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"t_us":0,"kind":"emg","data":[0,0,0,0,0,0,0,0]}\n'
                     b'{"t_us":5000,"kind":"emg\xff","data":[]}\n')
    with pytest.raises(LogParseError) as excinfo:
        list(iter_log(path))
    assert excinfo.value.line_no == 2
    assert "0xff" in str(excinfo.value)


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


def test_replay_speed_validation(tmp_path):
    path = tmp_path / "log.jsonl"
    record([SessionRecord(0, "imu", (0,) * 10)], path)
    with pytest.raises(ValueError):
        list(replay(path, speed=0))


def test_replay_timed_equals_fast(tmp_path):
    logs = generate_scenario(tiny_scenario(), seed=77)
    path = tmp_path / "log.jsonl"
    record(logs[0], path)
    fast = list(replay(path))
    timed = list(replay(path, speed=1e7))
    assert fast == timed


class FakeClock:
    """Stands in for the time module: every sleep overshoots by `late` s."""

    def __init__(self, late):
        self.now = 1000.0
        self.late = late
        self.slept = 0.0

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.slept += seconds
        self.now += seconds + self.late


def test_replay_paces_against_absolute_deadlines(tmp_path, monkeypatch):
    recs = [SessionRecord(i * 20_000, "imu", (0,) * 10) for i in range(251)]
    path = tmp_path / "log.jsonl"
    record(recs, path)
    speed, late = 4.0, 0.002
    clock = FakeClock(late)
    monkeypatch.setattr(session, "time", clock)
    start = clock.now
    for rec in replay(path, speed=speed):
        # each record is released at its own deadline, give or take one
        # overshoot; the overshoots do not pile up
        due = start + rec.t_us / 1e6 / speed
        assert due <= clock.now <= due + late + 1e-9
    span = recs[-1].t_us / 1e6 / speed
    assert clock.now - start == pytest.approx(span + late, abs=1e-9)
    assert clock.slept == pytest.approx(span - 249 * late, abs=1e-9)


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


def test_scenario_validation_errors():
    with pytest.raises(InvalidScenarioError):
        generate_scenario(Scenario(performers=()), seed=0)
    with pytest.raises(InvalidScenarioError):
        Scenario(performers=(PerformerScript(poses=()),))
        validate = session.validate_scenario
        validate(Scenario(performers=(PerformerScript(poses=()),)))
    with pytest.raises(InvalidScenarioError):
        scenario_from_dict({"performers": [{"poses": [
            {"duration_s": -1, "orientation": [0, 0, 0],
             "tension": [0] * 8}]}]})
    with pytest.raises(InvalidScenarioError):
        scenario_from_dict({"performers": [{"poses": [
            {"duration_s": 1, "orientation": [0, 0, 0],
             "tension": [2.0] + [0] * 7}]}]})
    with pytest.raises(InvalidScenarioError):
        scenario_from_dict({"wrong": []})
