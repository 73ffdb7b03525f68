"""Motion features from IMU frames: Euler angles, magnitudes, quantity of
motion, and the stillness gate.

Euler convention is intrinsic Z-Y'-X'' (yaw, then pitch, then roll).  All
downstream mappings depend on this choice.

The gate implements the inverse motion-to-sound rule: smoothed QoM above
the threshold mutes the master gain at once, and the gain then ramps back
up linearly over RAMP_S (30 s) of stillness, a constant of the piece.
The threshold, MotionTracker's one argument, is the gate's one tuning
value.

Quantity of motion (QoM) has one fixed definition, so that a threshold
calibrated in one room means the same in the next: the accelerometer
magnitude's distance from the 1 g rest reading plus the gyro magnitude
divided by GYRO_FULL_SCALE_DPS, smoothed by an EMA with QOM_ALPHA before
the gate compares it.  A motionless sensor scores ~0.

EulerAngles and MotionState are NamedTuples: immutable and hashable, and
they compare as the tuples of their fields, so EulerAngles(0.0, 0.0, 0.0)
equals (0.0, 0.0, 0.0).  A tracker's state cannot change behind its back.

quat_to_euler and MotionTracker.update run once per IMU frame, so they are
written for the live tick's cost, with the same floats as the plain forms:
- values are built with tuple.__new__(Cls, (...)), the same value as
  Cls(...) without a call of the NamedTuple's generated __new__, a Python
  function;
- clamps are comparisons, not builtin min and max calls, ordered to return
  what min(1.0, ...) and max(-1.0, ...) return for every input, NaN
  included: min(1.0, nan) is 1.0, and so is the comparisons' answer.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .protocol import IMU_RATE_HZ, ImuFrame

_NOMINAL_DT = 1.0 / IMU_RATE_HZ

# Longest gap between IMU frames taken at face value.  A longer one is a
# dropout (a BLE link lost and regained), not time the performer held
# still, so the gate advances by one nominal period across it.
MAX_GAP_S = 0.5

# Gyro magnitude at which rotation adds 1 to QoM, making the accelerometer
# and gyro addends commensurate.
GYRO_FULL_SCALE_DPS = 500.0

# Seconds of stillness over which the gate's gain ramps from 0 to 1.
RAMP_S = 30.0

# EMA weight of a new QoM sample, so one noisy sample cannot mute a
# performer.
QOM_ALPHA = 0.2


class NonNormalizableError(ValueError):
    """Quaternion norm too small to define an orientation."""


class EulerAngles(NamedTuple):
    """roll in (-pi, pi], pitch in [-pi/2, pi/2], yaw in (-pi, pi], radians."""

    roll: float
    pitch: float
    yaw: float


class MotionState(NamedTuple):
    """Per-performer motion summary updated once per IMU frame."""

    euler: EulerAngles
    accel_mag: float = 0.0
    gyro_mag: float = 0.0
    qom: float = 0.0
    stillness_s: float = 0.0
    master_gain: float = 0.0


def quat_to_euler(quat: Sequence[float]) -> EulerAngles:
    """Convert a (w, x, y, z) quaternion to intrinsic Z-Y'-X'' Euler angles.

    The quaternion is renormalized internally; raises NonNormalizableError
    for a norm too close to zero.
    """
    w, x, y, z = quat
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    if norm < 1e-9:
        raise NonNormalizableError(f"quaternion norm {norm} is not invertible")
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    roll = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    sinp = 2.0 * (w * y - x * z)
    if not -1.0 < sinp < 1.0:  # max(-1.0, min(1.0, sinp)), NaN to 1.0
        sinp = -1.0 if sinp <= -1.0 else 1.0
    pitch = math.asin(sinp)
    yaw = math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return tuple.__new__(EulerAngles, (roll, pitch, yaw))


def euler_to_quat(roll, pitch, yaw) -> np.ndarray:
    """Inverse of quat_to_euler (up to quaternion sign).

    Takes radians as scalars or as equal-shape arrays and returns (w, x, y, z)
    on a new last axis: shape (4,) for scalars, (n, 4) for length-n arrays.
    """
    cr, sr = np.cos(roll / 2), np.sin(roll / 2)
    cp, sp = np.cos(pitch / 2), np.sin(pitch / 2)
    cy, sy = np.cos(yaw / 2), np.sin(yaw / 2)
    return np.stack([
        cr * cp * cy + sr * sp * sy,
        sr * cp * cy - cr * sp * sy,
        cr * sp * cy + sr * cp * sy,
        cr * cp * sy - sr * sp * cy,
    ], axis=-1)


def vector_magnitude(v: Sequence[float]) -> float:
    """Euclidean norm of a 3-vector."""
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def compute_qom(accel_mag: float, gyro_norm: float) -> float:
    """Scalar quantity of motion from the acceleration magnitude in g and the
    rotation magnitude already divided by GYRO_FULL_SCALE_DPS."""
    return abs(accel_mag - 1.0) + gyro_norm


def smooth_ema(prev: float, x: float, alpha: float) -> float:
    """One step of exponential smoothing; alpha=1 passes x through."""
    return alpha * x + (1.0 - alpha) * prev


class MotionTracker:
    """Folds a single performer's IMU stream into MotionStates.

    threshold, in QoM units, is the gate's one tuning value: 0.35 is a
    usable default, not a measured constant.  Smoothed QoM above it mutes
    the master gain at once; at or below it the stillness timer advances
    by the frame's dt and the gain ramps back up to 1 over RAMP_S.

    Not safe for concurrent update; one tracker per performer stream.
    Time advances from frame timestamps only, never the wall clock.

    A frame whose quaternion cannot be normalized (an all-zero IMU packet,
    say) must not end a performance: the tracker keeps the last Euler
    angles, still updates the magnitudes and the gate from that frame, and
    counts it in degenerate_frames.

    Nor may a dropout unmute a performer: a frame more than MAX_GAP_S
    after the one before (or not after it at all) advances the gate by
    the nominal frame period; those past MAX_GAP_S count in gap_frames.
    """

    def __init__(self, threshold: float = 0.35):
        if not 0.0 <= threshold < math.inf:
            raise ValueError("threshold must be finite and >= 0")
        self.threshold = threshold
        self.degenerate_frames = 0
        self.gap_frames = 0
        self._state = MotionState(euler=EulerAngles(0.0, 0.0, 0.0))
        self._last_t_us: Optional[int] = None

    def update(self, frame: ImuFrame) -> MotionState:
        try:
            euler = quat_to_euler(frame.quat)
        except NonNormalizableError:
            euler = self._state.euler
            self.degenerate_frames += 1
        accel_mag = vector_magnitude(frame.accel)
        gyro_mag = vector_magnitude(frame.gyro)
        qom = compute_qom(accel_mag, gyro_mag / GYRO_FULL_SCALE_DPS)
        if self._last_t_us is None:
            dt = _NOMINAL_DT
        else:
            # the state's qom is the last smoothed one
            qom = smooth_ema(self._state.qom, qom, QOM_ALPHA)
            dt = (frame.t_us - self._last_t_us) / 1e6
            if dt > MAX_GAP_S:
                self.gap_frames += 1
                dt = _NOMINAL_DT
            elif dt <= 0.0:
                dt = _NOMINAL_DT
        self._last_t_us = frame.t_us
        if qom > self.threshold:
            stillness_s = master_gain = 0.0
        else:
            stillness_s = self._state.stillness_s + dt
            master_gain = stillness_s / RAMP_S
            if not master_gain < 1.0:  # min(1.0, master_gain)
                master_gain = 1.0
        self._state = tuple.__new__(MotionState, (
            euler, accel_mag, gyro_mag, qom, stillness_s, master_gain))
        return self._state
