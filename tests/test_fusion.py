"""Orientation and gate tests.

The Euler oracle is independent of the conversion under test: both the
quaternion and the Euler output are expanded to rotation matrices and
compared entrywise.
"""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myobridge.fusion import (
    _NOMINAL_DT,
    GYRO_FULL_SCALE_DPS,
    MAX_GAP_S,
    QOM_ALPHA,
    EulerAngles,
    GateConfig,
    MotionState,
    MotionTracker,
    NonNormalizableError,
    compute_qom,
    euler_to_quat,
    initial_state,
    quat_to_euler,
    smooth_ema,
    update_gate,
    vector_magnitude,
)
from myobridge.protocol import ImuFrame, parse_imu_packet


def rotation_matrix_from_quat(w, x, y, z):
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def rotation_matrix_from_euler(roll, pitch, yaw):
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    return rz @ ry @ rx


def random_unit_quats(n, seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


# --- quat_to_euler ----------------------------------------------------------

def test_identity_quaternion():
    e = quat_to_euler((1.0, 0.0, 0.0, 0.0))
    assert e == EulerAngles(0.0, 0.0, 0.0)


def test_pure_yaw_golden():
    e = quat_to_euler((0.70710678, 0.0, 0.0, 0.70710678))
    assert e.roll == pytest.approx(0.0, abs=1e-9)
    assert e.pitch == pytest.approx(0.0, abs=1e-9)
    assert e.yaw == pytest.approx(math.pi / 2, abs=1e-7)


def test_pure_roll_golden():
    e = quat_to_euler((0.70710678, 0.70710678, 0.0, 0.0))
    assert e.roll == pytest.approx(math.pi / 2, abs=1e-7)
    assert e.pitch == pytest.approx(0.0, abs=1e-9)
    assert e.yaw == pytest.approx(0.0, abs=1e-9)


def test_euler_matches_rotation_matrix_oracle():
    checked = 0
    for w, x, y, z in random_unit_quats(2000, seed=1234):
        e = quat_to_euler((w, x, y, z))
        if abs(e.pitch) >= math.pi / 2 - 0.05:
            continue
        r_quat = rotation_matrix_from_quat(w, x, y, z)
        r_euler = rotation_matrix_from_euler(e.roll, e.pitch, e.yaw)
        assert np.max(np.abs(r_quat - r_euler)) < 1e-9
        checked += 1
    assert checked > 1500


def test_double_cover():
    for q in random_unit_quats(100, seed=5):
        e_pos = quat_to_euler(tuple(q))
        e_neg = quat_to_euler(tuple(-q))
        assert e_pos.roll == pytest.approx(e_neg.roll, abs=1e-12)
        assert e_pos.pitch == pytest.approx(e_neg.pitch, abs=1e-12)
        assert e_pos.yaw == pytest.approx(e_neg.yaw, abs=1e-12)


def test_non_normalized_input_is_renormalized():
    e = quat_to_euler((2.0, 0.0, 0.0, 2.0))
    assert e.yaw == pytest.approx(math.pi / 2)


def test_zero_quaternion_rejected():
    with pytest.raises(NonNormalizableError):
        quat_to_euler((0.0, 0.0, 0.0, 0.0))


def test_euler_ranges():
    for q in random_unit_quats(500, seed=77):
        e = quat_to_euler(tuple(q))
        assert -math.pi < e.roll <= math.pi
        assert -math.pi / 2 <= e.pitch <= math.pi / 2
        assert -math.pi < e.yaw <= math.pi


def test_euler_to_quat_round_trip():
    for q in random_unit_quats(300, seed=8):
        e = quat_to_euler(tuple(q))
        if abs(e.pitch) >= math.pi / 2 - 0.05:
            continue
        back = euler_to_quat(e.roll, e.pitch, e.yaw)
        # same rotation up to sign
        dot = abs(sum(a * b for a, b in zip(q, back)))
        assert dot == pytest.approx(1.0, abs=1e-9)


def test_euler_to_quat_arrays_match_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(31)
    roll, pitch, yaw = rng.uniform(-math.pi, math.pi, size=(3, 257))
    quats = euler_to_quat(roll, pitch, yaw)
    assert quats.shape == (257, 4)
    for k in range(len(roll)):
        one = euler_to_quat(float(roll[k]), float(pitch[k]), float(yaw[k]))
        assert one.shape == (4,)
        assert quats[k].tobytes() == one.tobytes()


# --- magnitudes and QoM ------------------------------------------------------

def test_vector_magnitude_goldens():
    assert vector_magnitude((3.0, 4.0, 0.0)) == 5.0
    assert vector_magnitude((0.0, 0.0, 0.0)) == 0.0
    assert vector_magnitude((1.0, 1.0, 1.0)) == pytest.approx(
        1.7320508075688772, abs=1e-12)


def test_qom_compensated_rest():
    assert compute_qom(1.0, 0.0) == 0.0


def test_qom_compensated_golden():
    assert compute_qom(1.2, 25.0 / GYRO_FULL_SCALE_DPS) == pytest.approx(
        0.25, abs=1e-12)


def test_qom_monotone_in_gyro():
    for accel_mag in (0.9, 1.1):
        values = [compute_qom(accel_mag, g / GYRO_FULL_SCALE_DPS)
                  for g in np.linspace(0, 2000, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))


# --- gate --------------------------------------------------------------------

def test_gate_mutes_on_threshold_crossing():
    cfg = GateConfig(threshold=0.35, ramp_seconds=30.0)
    state = initial_state()
    for _ in range(200):
        state = update_gate(state, 0.0, 0.02, cfg)
    assert state.master_gain > 0.1
    state = update_gate(state, 0.5, 0.02, cfg)
    assert state.master_gain == 0.0
    assert state.stillness_s == 0.0


def test_gate_reaches_unity_after_ramp():
    cfg = GateConfig(threshold=0.35, ramp_seconds=30.0)
    state = initial_state()
    for _ in range(1500):  # 30.0 s at 50 Hz
        state = update_gate(state, 0.01, 0.02, cfg)
    assert state.master_gain == pytest.approx(1.0, abs=1e-9)


def test_gate_midpoint_of_linear_ramp():
    cfg = GateConfig(threshold=0.35, ramp_seconds=30.0)
    state = initial_state()
    for _ in range(750):  # 15.0 s
        state = update_gate(state, 0.0, 0.02, cfg)
    assert state.master_gain == pytest.approx(0.5, abs=1e-9)


def test_gate_monotone_under_stillness():
    cfg = GateConfig(threshold=0.35, ramp_seconds=5.0)
    state = initial_state()
    previous = 0.0
    for _ in range(400):
        state = update_gate(state, 0.1, 0.02, cfg)
        assert state.master_gain >= previous
        previous = state.master_gain
    assert previous == 1.0


def test_gate_reset_from_any_state():
    cfg = GateConfig(threshold=0.2, ramp_seconds=10.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        state = initial_state()
        for _ in range(rng.integers(1, 300)):
            state = update_gate(state, float(rng.uniform(0, 0.2)), 0.02, cfg)
        state = update_gate(state, 0.21, 0.02, cfg)
        assert state.master_gain == 0.0


def test_gate_zero_gain_iff_zero_stillness():
    cfg = GateConfig()
    state = initial_state()
    assert state.master_gain == 0.0 and state.stillness_s == 0.0
    state = update_gate(state, 0.0, 0.02, cfg)
    assert state.stillness_s > 0.0 and state.master_gain > 0.0


def test_gate_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        update_gate(initial_state(), 0.0, 0.0)


# --- smoothing ---------------------------------------------------------------

def test_ema_passthrough_and_freeze():
    assert smooth_ema(5.0, 9.0, 1.0) == 9.0
    assert smooth_ema(5.0, 9.0, 0.0) == 5.0
    assert smooth_ema(0.0, 1.0, 0.25) == 0.25


@pytest.mark.parametrize("cls, field, value", [
    (GateConfig, "ramp_seconds", 0),
    (GateConfig, "ramp_seconds", -1.0),
    (GateConfig, "ramp_seconds", math.nan),
    (GateConfig, "ramp_seconds", math.inf),
    (GateConfig, "threshold", math.nan),
    (GateConfig, "threshold", -0.1),
    (GateConfig, "threshold", math.inf),
])
def test_bad_config_rejected_at_construction(cls, field, value):
    with pytest.raises(ValueError):
        cls(**{field: value})


# --- tracker -----------------------------------------------------------------

def _still_frame(t_us):
    return ImuFrame(t_us=t_us, quat=(1.0, 0.0, 0.0, 0.0),
                    accel=(0.0, 0.0, 1.0), gyro=(0.0, 0.0, 0.0))


def test_tracker_ramps_under_stillness():
    tracker = MotionTracker(gate_cfg=GateConfig(ramp_seconds=1.0))
    state = None
    for i in range(100):  # 2 s at 50 Hz
        state = tracker.update(_still_frame(i * 20_000))
    assert state.master_gain == 1.0
    assert state.qom == 0.0
    assert state.euler == EulerAngles(0.0, 0.0, 0.0)


def test_tracker_smoothing_delays_single_spike():
    tracker = MotionTracker(gate_cfg=GateConfig(threshold=0.35))
    for i in range(50):
        tracker.update(_still_frame(i * 20_000))
    # single spike of qom 1.0 (gyro 500 deg/s at rest) smooths to 0.2 < 0.35
    spike = ImuFrame(t_us=50 * 20_000, quat=(1.0, 0.0, 0.0, 0.0),
                     accel=(0.0, 0.0, 1.0), gyro=(500.0, 0.0, 0.0))
    state = tracker.update(spike)
    assert state.master_gain > 0.0


def test_tracker_sustained_spike_mutes_on_second_frame():
    tracker = MotionTracker(gate_cfg=GateConfig(threshold=0.35))
    for i in range(50):
        tracker.update(_still_frame(i * 20_000))
    # qom 1.0 per frame smooths to 0.2, then 0.36 > 0.35
    states = [tracker.update(ImuFrame(t_us=(50 + k) * 20_000,
                                      quat=(1.0, 0.0, 0.0, 0.0),
                                      accel=(0.0, 0.0, 1.0),
                                      gyro=(500.0, 0.0, 0.0)))
              for k in range(2)]
    assert [s.qom for s in states] == pytest.approx([0.2, 0.36], abs=1e-12)
    assert states[0].master_gain > 0.0
    assert states[1].master_gain == 0.0


def test_tracker_holds_orientation_over_degenerate_quaternion():
    tracker = MotionTracker()
    tilted = ImuFrame(t_us=0, quat=(0.70710678, 0.70710678, 0.0, 0.0),
                      accel=(0.0, 0.0, 1.0), gyro=(0.0, 0.0, 0.0))
    before = tracker.update(tilted)
    zero = parse_imu_packet(bytes(20), t_us=20_000)
    after = tracker.update(zero)
    assert tracker.degenerate_frames == 1
    assert after.euler == before.euler
    # magnitudes and the gate still follow the degenerate frame
    assert after.accel_mag == 0.0
    assert after.qom > before.qom
    assert after.stillness_s == before.stillness_s + 0.02


def test_tracker_dropout_is_not_stillness():
    # a spike mutes; 10 still frames start the ramp; then the link drops
    # for 30 s.  The frame after the gap advances the gate by one nominal
    # period, not by 30 s of stillness.
    tracker = MotionTracker()
    for i in range(50):
        tracker.update(_still_frame(i * 20_000))
    tracker.update(ImuFrame(t_us=50 * 20_000, quat=(1.0, 0.0, 0.0, 0.0),
                            accel=(0.0, 0.0, 1.0), gyro=(2000.0, 0.0, 0.0)))
    for i in range(51, 61):
        before = tracker.update(_still_frame(i * 20_000))
    assert 0.0 < before.master_gain < 0.01
    after = tracker.update(_still_frame(60 * 20_000 + 30_000_000))
    assert tracker.gap_frames == 1
    assert after.stillness_s == before.stillness_s + 0.02
    assert after.master_gain < 0.01
    # a gap of MAX_GAP_S itself is taken at face value
    t_us = 60 * 20_000 + 30_000_000 + round(MAX_GAP_S * 1e6)
    last = tracker.update(_still_frame(t_us))
    assert tracker.gap_frames == 1
    assert last.stillness_s == after.stillness_s + MAX_GAP_S


_INT16 = st.integers(-32768, 32767)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(_INT16, min_size=10, max_size=10),
                          st.integers(-2**40, 2**40)),
                min_size=1, max_size=30))
def test_tracker_never_raises_on_arbitrary_imu_packets(packets):
    tracker = MotionTracker()
    for raw, t_us in packets:
        state = tracker.update(parse_imu_packet(struct.pack("<10h", *raw),
                                                t_us))
        assert 0.0 <= state.master_gain <= 1.0
        assert (state.master_gain == 0.0) == (state.stillness_s == 0.0)


# --- reference control state -------------------------------------------------

def reference_update_gate(state, qom, dt, cfg):
    """update_gate as first written, through dataclasses.replace."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if qom > cfg.threshold:
        stillness_s = 0.0
        master_gain = 0.0
    else:
        stillness_s = state.stillness_s + dt
        master_gain = min(1.0, stillness_s / cfg.ramp_seconds)
    return dataclasses.replace(state, qom=qom, stillness_s=stillness_s,
                               master_gain=master_gain)


class ReferenceTracker:
    """MotionTracker.update as first written, built from the public
    functions: quat_to_euler, vector_magnitude, compute_qom, smooth_ema
    and update_gate."""

    def __init__(self, gate_cfg):
        self.gate_cfg = gate_cfg
        self.degenerate_frames = 0
        self.gap_frames = 0
        self.state = initial_state()
        self.last_t_us = None
        self.qom_smoothed = None

    def update(self, frame):
        try:
            euler = quat_to_euler(frame.quat)
        except NonNormalizableError:
            euler = self.state.euler
            self.degenerate_frames += 1
        accel_mag = vector_magnitude(frame.accel)
        gyro_mag = vector_magnitude(frame.gyro)
        qom = compute_qom(accel_mag, gyro_mag / GYRO_FULL_SCALE_DPS)
        if self.qom_smoothed is None:
            self.qom_smoothed = qom
        else:
            self.qom_smoothed = smooth_ema(self.qom_smoothed, qom, QOM_ALPHA)
        if self.last_t_us is None:
            dt = _NOMINAL_DT
        else:
            dt = (frame.t_us - self.last_t_us) / 1e6
            if dt > MAX_GAP_S:
                self.gap_frames += 1
                dt = _NOMINAL_DT
            elif dt <= 0.0:
                dt = _NOMINAL_DT
        self.last_t_us = frame.t_us
        state = MotionState(euler, accel_mag, gyro_mag,
                            stillness_s=self.state.stillness_s)
        self.state = update_gate(state, self.qom_smoothed, dt, self.gate_cfg)
        return self.state


def state_bits(state):
    """Every MotionState field as its float64 bytes: -0.0 differs from 0.0."""
    e = state.euler
    return struct.pack("<8d", e.roll, e.pitch, e.yaw, state.accel_mag,
                       state.gyro_mag, state.qom, state.stillness_s,
                       state.master_gain)


_STILL_RAW = (16384, 0, 0, 0, 0, 0, 2048, 0, 0, 0)
_IMU_RAW = st.one_of(
    st.just(_STILL_RAW),
    st.just((0,) * 10),  # zero quaternion, zero magnitudes
    st.lists(_INT16, min_size=10, max_size=10).map(tuple),
    # a zero quaternion with motion in the magnitudes
    st.lists(_INT16, min_size=6, max_size=6).map(lambda v: (0,) * 4 + tuple(v)),
    # small rotations and jitter around rest, under and over the threshold
    st.tuples(st.integers(-300, 300), st.integers(-300, 300),
              st.integers(-400, 400)).map(
        lambda v: (16384, v[0], 0, 0, 0, v[1], 2048 + v[2], v[0], 0, 0)),
)
_GAP_US = st.one_of(
    st.just(20_000),
    st.sampled_from([0, -20_000, round(MAX_GAP_S * 1e6),
                     round(MAX_GAP_S * 1e6) + 1, 30_000_000, 1]),
    st.integers(-2 * 10**6, 2 * 10**6),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.0, 0.05, 0.35]),
       st.sampled_from([0.05, 1.0, 30.0]),
       st.integers(-2**40, 2**40),
       st.lists(st.tuples(_IMU_RAW, _GAP_US), min_size=1, max_size=60))
def test_tracker_matches_reference_bitwise(threshold, ramp, t0, frames):
    cfg = GateConfig(threshold=threshold, ramp_seconds=ramp)
    tracker, reference = MotionTracker(gate_cfg=cfg), ReferenceTracker(cfg)
    t_us = t0
    for raw, gap in frames:
        t_us += gap
        frame = parse_imu_packet(struct.pack("<10h", *raw), t_us)
        got, want = tracker.update(frame), reference.update(frame)
        assert state_bits(got) == state_bits(want)
        assert tracker.state is got
    assert tracker.degenerate_frames == reference.degenerate_frames
    assert tracker.gap_frames == reference.gap_frames


_GATE_FLOATS = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e6), _GATE_FLOATS,
       st.one_of(st.floats(min_value=1e-9, max_value=10.0),
                 st.just(_NOMINAL_DT)),
       st.sampled_from([0.0, 0.35, 1e9]), st.sampled_from([1e-3, 30.0]))
def test_update_gate_matches_reference_bitwise(stillness_s, qom, dt,
                                               threshold, ramp):
    cfg = GateConfig(threshold=threshold, ramp_seconds=ramp)
    state = MotionState(EulerAngles(-0.0, 0.5, -1.0), 1.01, 3.5, 0.25,
                        stillness_s, min(1.0, stillness_s / ramp))
    got = update_gate(state, qom, dt, cfg)
    want = reference_update_gate(state, qom, dt, cfg)
    assert type(got) is MotionState
    assert state_bits(got) == state_bits(want)
