"""Motion features from IMU frames: Euler angles, magnitudes, quantity of
motion, and the stillness gate.

Euler convention is intrinsic Z-Y'-X'' (yaw, then pitch, then roll).  All
downstream mappings depend on this choice.

The gate implements the inverse motion-to-sound rule: motion above a
threshold mutes the master gain, which then ramps back up over a configured
stillness interval (default 30 s).

Quantity of motion (QoM) has one fixed definition, so that a threshold
calibrated in one room means the same in the next: the accelerometer
magnitude's distance from the 1 g rest reading plus the gyro magnitude
divided by GYRO_FULL_SCALE_DPS, smoothed by an EMA with QOM_ALPHA before
the gate compares it.  A motionless sensor scores ~0.  GateConfig is the
one tuning knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

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

# EMA weight of a new QoM sample, so one noisy sample cannot mute a
# performer.
QOM_ALPHA = 0.2


class NonNormalizableError(ValueError):
    """Quaternion norm too small to define an orientation."""


@dataclass(frozen=True)
class EulerAngles:
    """roll in (-pi, pi], pitch in [-pi/2, pi/2], yaw in (-pi, pi], radians."""

    roll: float
    pitch: float
    yaw: float


@dataclass(frozen=True)
class GateConfig:
    """Threshold and recovery ramp for the stillness gate.

    The threshold is in QoM units and is deliberately calibratable; 0.35
    is a usable default, not a measured constant.  The gain ramps linearly
    from 0 to 1 over ramp_seconds of stillness.
    """

    threshold: float = 0.35
    ramp_seconds: float = 30.0

    def __post_init__(self):
        if not 0.0 <= self.threshold < math.inf:
            raise ValueError("threshold must be finite and >= 0")
        if not 0.0 < self.ramp_seconds < math.inf:
            raise ValueError("ramp_seconds must be finite and > 0")


@dataclass(frozen=True)
class MotionState:
    """Per-performer motion summary updated once per IMU frame."""

    euler: EulerAngles
    accel_mag: float = 0.0
    gyro_mag: float = 0.0
    qom: float = 0.0
    stillness_s: float = 0.0
    master_gain: float = 0.0


def initial_state() -> MotionState:
    return MotionState(euler=EulerAngles(0.0, 0.0, 0.0))


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
    pitch = math.asin(max(-1.0, min(1.0, sinp)))
    yaw = math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return EulerAngles(roll, pitch, yaw)


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


def _gate_step(stillness_s: float, qom: float, dt: float,
               cfg: GateConfig) -> tuple[float, float]:
    """The gate arithmetic: (stillness_s, master_gain) after one period."""
    if qom > cfg.threshold:
        return 0.0, 0.0
    stillness_s += dt
    return stillness_s, min(1.0, stillness_s / cfg.ramp_seconds)


def update_gate(state: MotionState, qom: float, dt: float,
                cfg: GateConfig = GateConfig()) -> MotionState:
    """Advance the stillness gate by one control period.

    QoM above the threshold zeroes the master gain immediately; otherwise
    the stillness timer accumulates and the gain ramps toward 1 over
    cfg.ramp_seconds.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    stillness_s, master_gain = _gate_step(state.stillness_s, qom, dt, cfg)
    return MotionState(state.euler, state.accel_mag, state.gyro_mag, qom,
                       stillness_s, master_gain)


def smooth_ema(prev: float, x: float, alpha: float) -> float:
    """One step of exponential smoothing; alpha=1 passes x through."""
    return alpha * x + (1.0 - alpha) * prev


class MotionTracker:
    """Folds a single performer's IMU stream into MotionStates.

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

    def __init__(self, gate_cfg: Optional[GateConfig] = None):
        self.gate_cfg = gate_cfg or GateConfig()
        self.degenerate_frames = 0
        self.gap_frames = 0
        self._state = initial_state()
        self._last_t_us: Optional[int] = None
        self._qom_smoothed: Optional[float] = None

    @property
    def state(self) -> MotionState:
        return self._state

    def update(self, frame: ImuFrame) -> MotionState:
        try:
            euler = quat_to_euler(frame.quat)
        except NonNormalizableError:
            euler = self._state.euler
            self.degenerate_frames += 1
        accel_mag = vector_magnitude(frame.accel)
        gyro_mag = vector_magnitude(frame.gyro)
        qom = compute_qom(accel_mag, gyro_mag / GYRO_FULL_SCALE_DPS)
        if self._qom_smoothed is not None:
            qom = smooth_ema(self._qom_smoothed, qom, QOM_ALPHA)
        self._qom_smoothed = qom
        if self._last_t_us is None:
            dt = _NOMINAL_DT
        else:
            dt = (frame.t_us - self._last_t_us) / 1e6
            if dt > MAX_GAP_S:
                self.gap_frames += 1
                dt = _NOMINAL_DT
            elif dt <= 0.0:
                dt = _NOMINAL_DT
        self._last_t_us = frame.t_us
        stillness_s, master_gain = _gate_step(self._state.stillness_s, qom,
                                              dt, self.gate_cfg)
        self._state = MotionState(euler, accel_mag, gyro_mag, qom,
                                  stillness_s, master_gain)
        return self._state
