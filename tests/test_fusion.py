"""Orientation and gate tests.

The Euler oracle is independent of the conversion under test: both the
quaternion and the Euler output are expanded to rotation matrices and
compared entrywise.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from myobridge.fusion import (
    _NOMINAL_DT,
    GYRO_FULL_SCALE_DPS,
    MAX_GAP_S,
    QOM_ALPHA,
    RAMP_S,
    EulerAngles,
    MotionState,
    MotionTracker,
    NonNormalizableError,
    compute_qom,
    euler_to_quat,
    quat_to_euler,
    smooth_ema,
    vector_magnitude,
)
from myobridge.protocol import ImuFrame, scale_imu_values


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
#
# The gate is driven through MotionTracker, frame by frame at 50 Hz, so
# every step is 0.02 s.  A frame's QoM is its gyro magnitude over
# GYRO_FULL_SCALE_DPS (the accelerometer reads 1 g at rest), and the gate
# sees it after the EMA: a steady QoM stays what it is, while one frame of
# QoM q after stillness reaches the gate as QOM_ALPHA * q.

def _moving_frame(t_us, qom):
    return ImuFrame(t_us=t_us, quat=(1.0, 0.0, 0.0, 0.0),
                    accel=(0.0, 0.0, 1.0),
                    gyro=(qom * GYRO_FULL_SCALE_DPS, 0.0, 0.0))


class TrackedGate:
    """A MotionTracker fed one frame every 20 ms."""

    def __init__(self, threshold):
        self.tracker = MotionTracker(threshold)
        self.frames = 0

    def step(self, qom):
        state = self.tracker.update(_moving_frame(self.frames * 20_000, qom))
        self.frames += 1
        return state


def test_gate_mutes_on_threshold_crossing():
    gate = TrackedGate(0.35)
    for _ in range(200):
        state = gate.step(0.0)
    assert state.master_gain > 0.1
    state = gate.step(2.0)  # reaches the gate as 0.4
    assert state.qom > 0.35
    assert state.master_gain == 0.0
    assert state.stillness_s == 0.0


def test_gate_reaches_unity_after_ramp():
    gate = TrackedGate(0.35)
    for _ in range(1500):  # 30.0 s at 50 Hz
        state = gate.step(0.01)
    assert state.master_gain == pytest.approx(1.0, abs=1e-9)


def test_gate_midpoint_of_linear_ramp():
    gate = TrackedGate(0.35)
    for _ in range(750):  # 15.0 s
        state = gate.step(0.0)
    assert state.master_gain == pytest.approx(0.5, abs=1e-9)


def test_gate_monotone_under_stillness():
    gate = TrackedGate(0.35)
    previous = 0.0
    for _ in range(1600):  # 32 s, past the ramp
        state = gate.step(0.1)
        assert state.master_gain >= previous
        previous = state.master_gain
    assert previous == 1.0


def test_gate_reset_from_any_state():
    rng = np.random.default_rng(3)
    for _ in range(50):
        gate = TrackedGate(0.2)
        for _ in range(rng.integers(1, 300)):
            state = gate.step(float(rng.uniform(0, 0.2)))
            assert state.qom <= 0.2 and state.master_gain > 0.0
        # whatever the EMA held, this frame takes it past 0.2
        state = gate.step(1.01)
        assert state.qom > 0.2
        assert state.master_gain == 0.0


def test_gate_zero_gain_iff_zero_stillness():
    gate = TrackedGate(0.35)
    state = gate.step(0.0)
    assert state.stillness_s > 0.0 and state.master_gain > 0.0


def test_gate_never_advances_by_nonpositive_dt():
    # a frame stamped at or before the one before advances the gate by
    # the nominal period, neither by nothing nor backwards
    for step_us in (0, -20_000):
        tracker = MotionTracker()
        before = tracker.update(_still_frame(1_000_000))
        after = tracker.update(_still_frame(1_000_000 + step_us))
        assert after.stillness_s == before.stillness_s + _NOMINAL_DT
        assert after.master_gain > before.master_gain


# --- smoothing ---------------------------------------------------------------

def test_ema_passthrough_and_freeze():
    assert smooth_ema(5.0, 9.0, 1.0) == 9.0
    assert smooth_ema(5.0, 9.0, 0.0) == 5.0
    assert smooth_ema(0.0, 1.0, 0.25) == 0.25


@pytest.mark.parametrize("value", [math.nan, -0.1, math.inf])
def test_bad_config_rejected_at_construction(value):
    with pytest.raises(ValueError):
        MotionTracker(threshold=value)


# --- tracker -----------------------------------------------------------------

def _still_frame(t_us):
    return ImuFrame(t_us=t_us, quat=(1.0, 0.0, 0.0, 0.0),
                    accel=(0.0, 0.0, 1.0), gyro=(0.0, 0.0, 0.0))


def test_tracker_ramps_under_stillness():
    tracker = MotionTracker()
    state = None
    for i in range(1550):  # 31 s at 50 Hz
        state = tracker.update(_still_frame(i * 20_000))
    assert state.master_gain == 1.0
    assert state.qom == 0.0
    assert state.euler == EulerAngles(0.0, 0.0, 0.0)


def test_tracker_smoothing_delays_single_spike():
    tracker = MotionTracker(threshold=0.35)
    for i in range(50):
        tracker.update(_still_frame(i * 20_000))
    # single spike of qom 1.0 (gyro 500 deg/s at rest) smooths to 0.2 < 0.35
    spike = ImuFrame(t_us=50 * 20_000, quat=(1.0, 0.0, 0.0, 0.0),
                     accel=(0.0, 0.0, 1.0), gyro=(500.0, 0.0, 0.0))
    state = tracker.update(spike)
    assert state.master_gain > 0.0


def test_tracker_sustained_spike_mutes_on_second_frame():
    tracker = MotionTracker(threshold=0.35)
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
    zero = scale_imu_values((0,) * 10, t_us=20_000)
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
        state = tracker.update(scale_imu_values(raw, t_us))
        assert 0.0 <= state.master_gain <= 1.0
        assert (state.master_gain == 0.0) == (state.stillness_s == 0.0)


# --- reference control state -------------------------------------------------

def reference_update_gate(state, qom, dt, threshold):
    """The gate step as first written, a public update_gate that copied
    the state with the new qom, stillness and gain."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if qom > threshold:
        stillness_s = 0.0
        master_gain = 0.0
    else:
        stillness_s = state.stillness_s + dt
        master_gain = min(1.0, stillness_s / RAMP_S)
    return state._replace(qom=qom, stillness_s=stillness_s,
                          master_gain=master_gain)


class ReferenceTracker:
    """MotionTracker.update as first written, built from the public
    functions quat_to_euler, vector_magnitude, compute_qom and smooth_ema,
    and reference_update_gate."""

    def __init__(self, threshold):
        self.threshold = threshold
        self.degenerate_frames = 0
        self.gap_frames = 0
        self.state = MotionState(euler=EulerAngles(0.0, 0.0, 0.0))
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
        self.state = reference_update_gate(state, self.qom_smoothed, dt,
                                           self.threshold)
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
       st.integers(-2**40, 2**40),
       st.lists(st.tuples(_IMU_RAW, _GAP_US), min_size=1, max_size=60))
# 32 s of stillness: past RAMP_S, so the gain clamp min(1.0, ...) is reached
@example(0.35, 0, [(_STILL_RAW, 20_000)] * 1600)
def test_tracker_matches_reference_bitwise(threshold, t0, frames):
    tracker = MotionTracker(threshold)
    reference = ReferenceTracker(threshold)
    t_us = t0
    for raw, gap in frames:
        t_us += gap
        frame = scale_imu_values(raw, t_us)
        got, want = tracker.update(frame), reference.update(frame)
        assert state_bits(got) == state_bits(want)
    assert tracker.degenerate_frames == reference.degenerate_frames
    assert tracker.gap_frames == reference.gap_frames


def reference_quat_to_euler(quat):
    """quat_to_euler as first written, its pitch clamped by builtin min and
    max: (roll, pitch, yaw, the unclamped sine of the pitch)."""
    w, x, y, z = quat
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    roll = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    sinp = 2.0 * (w * y - x * z)
    pitch = math.asin(max(-1.0, min(1.0, sinp)))
    yaw = math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return roll, pitch, yaw, sinp


@pytest.mark.parametrize("quat, clamped", [
    # sinp rounds to 1 + 2**-52 and to -1 - 2**-52
    ((0.9, 0.0, 0.9, 0.0), True),
    ((0.9, 0.0, -0.9, 0.0), True),
    ((3 / 16384, 0.0, 3 / 16384, 0.0), True),
    # a NaN component: min(1.0, nan) is 1.0, so the pitch is asin(1.0)
    ((math.nan, 0.0, 0.0, 0.0), True),
    ((0.5, 0.5, math.nan, 0.5), True),
    ((1.0, 0.0, 0.0, 0.0), False),
    ((0.9, 0.1, -0.3, 0.2), False),
])
def test_pitch_clamp_returns_what_min_and_max_returned(quat, clamped):
    """The reference tests draw only finite int16 quaternions, and need
    not draw one whose pitch's sine rounds past +-1."""
    *want, sinp = reference_quat_to_euler(quat)
    assert (not -1.0 < sinp < 1.0) == clamped
    got = quat_to_euler(quat)
    assert struct.pack("<3d", *got) == struct.pack("<3d", *want)
    if math.isnan(sinp):
        assert got.pitch == math.pi / 2


def test_gain_clamp_past_the_ramp_returns_what_min_returned():
    # a still sensor, a frame every MAX_GAP_S (taken at face value), for
    # twice RAMP_S
    tracker, reference = MotionTracker(), ReferenceTracker(0.35)
    step_us = round(MAX_GAP_S * 1e6)
    for k in range(2 * round(RAMP_S / MAX_GAP_S) + 1):
        frame = ImuFrame(k * step_us, (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                         (0.0, 0.0, 0.0))
        got, want = tracker.update(frame), reference.update(frame)
        assert state_bits(got) == state_bits(want)
    assert got.stillness_s > RAMP_S and got.master_gain == 1.0
    assert tracker.gap_frames == 0
