"""Deterministic recording, replay, and synthesis of sensor streams.

Logs are JSON lines, one flat record per line, storing raw pre-scaling
sensor integers so that scaling changes never invalidate archives:

    {"t_us":0,"kind":"meta","data":{"version":"1.0",...}}
    {"t_us":0,"kind":"imu","data":[qw,qx,qy,qz,ax,ay,az,gx,gy,gz]}
    {"t_us":0,"kind":"emg","data":[c0,...,c7]}

Producers write a leading meta record carrying the format version, device
id, scale constants, and the RNG algorithm used for synthetic streams.
Timestamps are microseconds and must be non-decreasing.  Replay time comes
from the stored timestamps only, never the wall clock, so paced and
as-fast-as-possible replays feed downstream identically.

The scenario generator synthesizes ensemble performances: each performer
holds a sequence of poses (orientation target + muscle-tension profile)
with seeded Gaussian micromotion, and pose changes inject motion bursts
strong enough to trip the stillness gate.  The micromotion model is a
labeled approximation, sufficient for exercising the gate.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator, Mapping, Optional, Union

import numpy as np

from . import protocol
from .fusion import euler_to_quat
from .protocol import EmgFrame, ImuFrame, SensorScales

LOG_VERSION = "1.0"
LOG_MAJOR = 1
RNG_ALGORITHM = "numpy-pcg64"

IMU_PERIOD_US = round(1e6 / protocol.IMU_RATE_HZ)
EMG_PERIOD_US = round(1e6 / protocol.EMG_RATE_HZ)

# Micromotion / burst magnitudes per unit of the scenario's amp knobs.
EULER_JITTER_RAD = 0.005
GYRO_JITTER_DPS = 1.0
ACCEL_JITTER_G = 0.003
EMG_JITTER_RAW = 2.0
BURST_GYRO_DPS = 500.0
BURST_ACCEL_G = 0.25

_INT16_MIN, _INT16_MAX = -32768, 32767
_INT8_MIN, _INT8_MAX = -128, 127

_BUNDLED_SCENARIO = "ensemble_9min.json"


class LogError(Exception):
    pass


class LogParseError(LogError):
    """Malformed log content; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class MonotonicityError(LogParseError):
    pass


class UnsupportedVersionError(LogParseError):
    pass


class InvalidScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class SessionRecord:
    """One timestamped log entry; data holds raw integers (or meta fields)."""

    t_us: int
    kind: str  # "imu" | "emg" | "meta"
    data: Union[tuple, Mapping]


def make_meta_record(device_id: str = "unknown",
                     extra: Optional[Mapping] = None) -> SessionRecord:
    data = {
        "version": LOG_VERSION,
        "device_id": device_id,
        "rng": RNG_ALGORITHM,
        "quat_scale": protocol.DEFAULT_SCALES.quat,
        "accel_scale": protocol.DEFAULT_SCALES.accel,
        "gyro_scale": protocol.DEFAULT_SCALES.gyro,
        "imu_rate_hz": protocol.IMU_RATE_HZ,
        "emg_rate_hz": protocol.EMG_RATE_HZ,
    }
    if extra:
        data.update(extra)
    return SessionRecord(t_us=0, kind="meta", data=data)


def _serialize(rec: SessionRecord) -> str:
    data = rec.data if isinstance(rec.data, dict) else list(rec.data)
    return json.dumps({"t_us": rec.t_us, "kind": rec.kind, "data": data},
                      separators=(",", ":"))


def record(records: Iterable[SessionRecord], path) -> int:
    """Write records to a log file, one line each, in arrival order.

    Lossless: replaying the file reproduces the exact record sequence.
    Returns the number of lines written.
    """
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            fh.write(_serialize(rec))
            fh.write("\n")
            count += 1
    return count


def _check_int_list(values, n, lo, hi, line_no, what):
    if not isinstance(values, list) or len(values) != n:
        raise LogParseError(line_no, f"{what} data must be {n} integers")
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise LogParseError(line_no, f"{what} data must be integers")
        if not lo <= v <= hi:
            raise LogParseError(line_no,
                                f"{what} value {v} outside [{lo}, {hi}]")


def _parse_line(line: str, line_no: int) -> SessionRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogParseError(line_no, f"invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise LogParseError(line_no, "record must be an object")
    try:
        t_us = obj["t_us"]
        kind = obj["kind"]
        data = obj["data"]
    except KeyError as exc:
        raise LogParseError(line_no, f"missing field {exc.args[0]!r}") from exc
    if not isinstance(t_us, int) or isinstance(t_us, bool):
        raise LogParseError(line_no, "t_us must be an integer")
    if kind == "imu":
        _check_int_list(data, 10, _INT16_MIN, _INT16_MAX, line_no, "imu")
        return SessionRecord(t_us, "imu", tuple(data))
    if kind == "emg":
        _check_int_list(data, 8, _INT8_MIN, _INT8_MAX, line_no, "emg")
        return SessionRecord(t_us, "emg", tuple(data))
    if kind == "meta":
        if not isinstance(data, dict):
            raise LogParseError(line_no, "meta data must be an object")
        version = str(data.get("version", ""))
        major = version.split(".", 1)[0]
        if not major.isdigit() or int(major) != LOG_MAJOR:
            raise UnsupportedVersionError(
                line_no, f"unsupported log version {version!r}")
        return SessionRecord(t_us, "meta", data)
    raise LogParseError(line_no, f"unknown record kind {kind!r}")


def iter_log(path) -> Iterator[SessionRecord]:
    """Parse a log file; raises LogParseError/MonotonicityError with the
    offending 1-based line number."""
    last_t = None
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            rec = _parse_line(line, line_no)
            if last_t is not None and rec.t_us < last_t:
                raise MonotonicityError(
                    line_no, f"timestamp {rec.t_us} precedes {last_t}")
            last_t = rec.t_us
            yield rec


def replay(path, speed: Optional[float] = None) -> Iterator[SessionRecord]:
    """Stream a log's records in order.

    speed=None replays as fast as possible; a positive multiplier paces
    delivery by scaling the recorded times by 1/speed.  Each record is due
    at an absolute monotonic-clock deadline counted from the first record,
    so oversleeping and parse time do not add up over a long log.
    Downstream results are identical either way: consumers take time from
    t_us, never from the wall clock.
    """
    if speed is not None and speed <= 0:
        raise ValueError("speed must be positive (or None for fast mode)")
    start = first_t = None
    for rec in iter_log(path):
        if speed is not None:
            if start is None:
                start, first_t = time.monotonic(), rec.t_us
            else:
                due = start + (rec.t_us - first_t) / 1e6 / speed
                wait = due - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
        yield rec


def scales_from_meta(meta: Optional[Mapping]) -> SensorScales:
    if not meta:
        return protocol.DEFAULT_SCALES
    return SensorScales(
        quat=float(meta.get("quat_scale", protocol.QUAT_SCALE)),
        accel=float(meta.get("accel_scale", protocol.ACCEL_SCALE)),
        gyro=float(meta.get("gyro_scale", protocol.GYRO_SCALE)),
    )


def records_to_frames(records: Iterable[SessionRecord]
                      ) -> Iterator[Union[ImuFrame, EmgFrame]]:
    """Scale raw records into physical-unit frames.

    Scale constants come from the leading meta record when present, so
    archives outlive changes to the defaults.
    """
    scales = protocol.DEFAULT_SCALES
    for rec in records:
        if rec.kind == "meta":
            scales = scales_from_meta(rec.data)
        elif rec.kind == "imu":
            yield protocol.scale_imu_values(rec.data, rec.t_us, scales)
        elif rec.kind == "emg":
            yield EmgFrame(t_us=rec.t_us, channels=tuple(rec.data))


# --- scenario synthesis -------------------------------------------------------


@dataclass(frozen=True)
class Pose:
    """One held position: orientation target, muscle tension, motion knobs."""

    duration_s: float
    orientation: tuple[float, float, float]  # roll, pitch, yaw target (rad)
    tension: tuple[float, ...]               # 8 activation levels in [0, 1]
    micromotion_amp: float = 1.0
    transition_motion_amp: float = 4.0


@dataclass(frozen=True)
class PerformerScript:
    poses: tuple[Pose, ...]


@dataclass(frozen=True)
class Scenario:
    performers: tuple[PerformerScript, ...]
    transition_s: float = 2.0
    name: str = ""


def _validate_pose(pose: Pose, where: str) -> None:
    if pose.duration_s <= 0:
        raise InvalidScenarioError(f"{where}: duration must be positive")
    if len(pose.orientation) != 3:
        raise InvalidScenarioError(f"{where}: orientation needs 3 angles")
    if len(pose.tension) != 8:
        raise InvalidScenarioError(f"{where}: tension needs 8 channels")
    if any(not 0.0 <= t <= 1.0 for t in pose.tension):
        raise InvalidScenarioError(f"{where}: tension values must be in [0, 1]")
    if pose.micromotion_amp < 0 or pose.transition_motion_amp < 0:
        raise InvalidScenarioError(f"{where}: amplitudes must be >= 0")


def validate_scenario(scenario: Scenario) -> None:
    if not scenario.performers:
        raise InvalidScenarioError("scenario has no performers")
    if scenario.transition_s < 0:
        raise InvalidScenarioError("transition_s must be >= 0")
    for p, script in enumerate(scenario.performers):
        if not script.poses:
            raise InvalidScenarioError(f"performer {p} has no poses")
        for k, pose in enumerate(script.poses):
            _validate_pose(pose, f"performer {p} pose {k}")


def scenario_from_dict(obj: Mapping) -> Scenario:
    try:
        performers = []
        for script in obj["performers"]:
            poses = tuple(
                Pose(duration_s=float(p["duration_s"]),
                     orientation=tuple(float(a) for a in p["orientation"]),
                     tension=tuple(float(t) for t in p["tension"]),
                     micromotion_amp=float(p.get("micromotion_amp", 1.0)),
                     transition_motion_amp=float(
                         p.get("transition_motion_amp", 4.0)))
                for p in script["poses"])
            performers.append(PerformerScript(poses=poses))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidScenarioError(f"malformed scenario: {exc}") from exc
    scenario = Scenario(performers=tuple(performers),
                        transition_s=float(obj.get("transition_s", 2.0)),
                        name=str(obj.get("name", "")))
    validate_scenario(scenario)
    return scenario


def default_scenario() -> Scenario:
    """The bundled ensemble scenario: four performers, four poses, nine minutes."""
    text = resources.files("myobridge").joinpath(
        "scenarios", _BUNDLED_SCENARIO).read_text(encoding="utf-8")
    return scenario_from_dict(json.loads(text))


def _gravity_from_euler(roll: np.ndarray, pitch: np.ndarray) -> np.ndarray:
    """Rest accelerometer reading (unit gravity) in the sensor frame."""
    return np.stack([
        -np.sin(pitch),
        np.sin(roll) * np.cos(pitch),
        np.cos(roll) * np.cos(pitch),
    ], axis=1)


def _clip_round(values: np.ndarray, scale: float, lo: int, hi: int) -> np.ndarray:
    return np.clip(np.rint(values * scale), lo, hi).astype(np.int64)


def generate_performer_records(script: PerformerScript, transition_s: float,
                               rng: np.random.Generator,
                               performer_index: int,
                               seed: int) -> list[SessionRecord]:
    """Synthesize one performer's raw IMU (50 Hz) and EMG (200 Hz) log."""
    durations = np.array([p.duration_s for p in script.poses])
    starts_us = np.concatenate([[0.0], np.cumsum(durations)[:-1]]) * 1e6
    total_s = float(durations.sum())

    n_imu = round(total_s * protocol.IMU_RATE_HZ)
    n_emg = round(total_s * protocol.EMG_RATE_HZ)
    imu_t = np.arange(n_imu, dtype=np.int64) * IMU_PERIOD_US
    emg_t = np.arange(n_emg, dtype=np.int64) * EMG_PERIOD_US

    imu_pose = np.searchsorted(starts_us[1:], imu_t, side="right") \
        if len(script.poses) > 1 else np.zeros(n_imu, dtype=np.int64)
    emg_pose = np.searchsorted(starts_us[1:], emg_t, side="right") \
        if len(script.poses) > 1 else np.zeros(n_emg, dtype=np.int64)

    micro = np.array([p.micromotion_amp for p in script.poses])
    burst = np.array([p.transition_motion_amp for p in script.poses])
    targets = np.array([p.orientation for p in script.poses])
    tensions = np.array([p.tension for p in script.poses])

    # draw order is fixed: euler, gyro, accel, then EMG noise
    euler_noise = rng.standard_normal((n_imu, 3))
    gyro_noise = rng.standard_normal((n_imu, 3))
    accel_noise = rng.standard_normal((n_imu, 3))
    emg_noise = rng.standard_normal((n_emg, 8))

    imu_micro = micro[imu_pose][:, None]
    euler = targets[imu_pose] + euler_noise * (EULER_JITTER_RAD * imu_micro)
    gyro = gyro_noise * (GYRO_JITTER_DPS * imu_micro)

    # pose changes: lerp orientation from the previous target and inject a
    # rectangular supra-threshold burst for transition_s
    transition_us = transition_s * 1e6
    since_start = imu_t - starts_us[imu_pose]
    in_transition = (imu_pose > 0) & (since_start < transition_us)
    if transition_us > 0 and np.any(in_transition):
        u = np.clip(since_start / max(transition_us, 1.0), 0.0, 1.0)
        prev_idx = np.maximum(imu_pose - 1, 0)
        lerped = (targets[prev_idx] * (1.0 - u[:, None])
                  + targets[imu_pose] * u[:, None])
        euler[in_transition] = (lerped[in_transition]
                                + euler_noise[in_transition]
                                * (EULER_JITTER_RAD
                                   * imu_micro[in_transition]))
        amp = burst[imu_pose][:, None]
        gyro[in_transition, 0] += (BURST_GYRO_DPS * amp[in_transition, 0])

    accel = (_gravity_from_euler(euler[:, 0], euler[:, 1])
             + accel_noise * (ACCEL_JITTER_G * imu_micro))
    if transition_us > 0 and np.any(in_transition):
        accel[in_transition, 0] += (BURST_ACCEL_G
                                    * burst[imu_pose][in_transition])

    quat = euler_to_quat(euler[:, 0], euler[:, 1], euler[:, 2])
    quat_raw = _clip_round(quat, protocol.QUAT_SCALE, _INT16_MIN, _INT16_MAX)
    accel_raw = _clip_round(accel, protocol.ACCEL_SCALE, _INT16_MIN, _INT16_MAX)
    gyro_raw = _clip_round(gyro, protocol.GYRO_SCALE, _INT16_MIN, _INT16_MAX)

    amp_per_sample = tensions[emg_pose] * 127.0
    signs = np.where(np.arange(n_emg)[:, None] % 2 == 0, 1.0, -1.0)
    emg_micro = micro[emg_pose][:, None]
    emg_values = signs * amp_per_sample + emg_noise * (EMG_JITTER_RAW * emg_micro)
    emg_raw = _clip_round(emg_values, 1.0, _INT8_MIN, _INT8_MAX)

    records = [make_meta_record(
        device_id=f"synthetic-{performer_index}",
        extra={"seed": seed, "performer": performer_index})]

    imu_data = np.concatenate([quat_raw, accel_raw, gyro_raw], axis=1)
    imu_times = imu_t.tolist()
    emg_times = emg_t.tolist()
    imu_rows = imu_data.tolist()
    emg_rows = emg_raw.tolist()
    i = j = 0
    while i < n_imu or j < n_emg:
        # EMG sorts before IMU at equal timestamps so a control tick sees
        # the coincident sample
        if j < n_emg and (i >= n_imu or emg_times[j] <= imu_times[i]):
            records.append(SessionRecord(emg_times[j], "emg",
                                         tuple(emg_rows[j])))
            j += 1
        else:
            records.append(SessionRecord(imu_times[i], "imu",
                                         tuple(imu_rows[i])))
            i += 1
    return records


def generate_scenario(scenario: Scenario, seed: int
                      ) -> list[list[SessionRecord]]:
    """Synthesize one log per performer.

    Identical (scenario, seed) pairs produce identical logs; per-performer
    streams use independent child seeds so adding a performer never
    perturbs the others.
    """
    validate_scenario(scenario)
    children = np.random.SeedSequence(seed).spawn(len(scenario.performers))
    logs = []
    for idx, (script, child) in enumerate(zip(scenario.performers, children)):
        rng = np.random.Generator(np.random.PCG64(child))
        logs.append(generate_performer_records(
            script, scenario.transition_s, rng, idx, seed))
    return logs
