"""Deterministic recording, reading, and synthesis of sensor streams.

Logs are JSON lines, one flat record per line, storing the raw sensor
integers the armband sends, so a log holds exactly what the wire carried
and is read back through the same scaling (protocol.scale_imu_values):

    {"t_us":0,"kind":"meta","data":{"version":"1.0",...}}
    {"t_us":0,"kind":"imu","data":[qw,qx,qy,qz,ax,ay,az,gx,gy,gz]}
    {"t_us":0,"kind":"emg","data":[c0,...,c7]}

Every line is byte for byte the json.dumps(separators=(",", ":")) form of
its record.  The writer prints IMU and EMG lines whose values are all
plain ints from one %-format template per kind, built at import, and
every other record with json.dumps itself.

Producers write a leading meta record carrying the format version, device
id, the RNG algorithm used for synthetic streams and the device units
(_DEVICE_UNITS: scale divisors and sample rates).  The units are fixed by
the device, not options: iter_log refuses a meta record that declares
different ones, naming its line.  Timestamps are microseconds and must be
non-decreasing, and they are the only clock a reader uses.

The scenario generator synthesizes ensemble performances: each performer
holds a sequence of poses (orientation target + muscle-tension profile)
with seeded Gaussian micromotion, and pose changes inject motion bursts
strong enough to trip the stillness gate.  The micromotion model is a
labeled approximation, sufficient for exercising the gate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

from . import protocol
from .fusion import euler_to_quat
from .protocol import EMG_PERIOD_US, IMU_PERIOD_US, EmgFrame, ImuFrame

LOG_VERSION = "1.0"
LOG_MAJOR = 1
RNG_ALGORITHM = "numpy-pcg64"

# The meta record's device fields, in the order it writes them.
_DEVICE_UNITS = {
    "quat_scale": protocol.QUAT_SCALE,
    "accel_scale": protocol.ACCEL_SCALE,
    "gyro_scale": protocol.GYRO_SCALE,
    "imu_rate_hz": protocol.IMU_RATE_HZ,
    "emg_rate_hz": protocol.EMG_RATE_HZ,
}

# Micromotion / burst magnitudes per unit of the scenario's amp knobs.
EULER_JITTER_RAD = 0.005
GYRO_JITTER_DPS = 1.0
ACCEL_JITTER_G = 0.003
EMG_JITTER_RAW = 2.0
BURST_GYRO_DPS = 500.0
BURST_ACCEL_G = 0.25

_INT16_MIN, _INT16_MAX = -32768, 32767
_INT8_MIN, _INT8_MAX = -128, 127
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1

_BUNDLED_SCENARIO = "ensemble_9min.json"


class LogParseError(Exception):
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


def make_meta_record(device_id: str = "unknown") -> SessionRecord:
    return SessionRecord(t_us=0, kind="meta", data={
        "version": LOG_VERSION,
        "device_id": device_id,
        "rng": RNG_ALGORITHM,
        **_DEVICE_UNITS,
    })


def _line_template(kind: str, n: int) -> str:
    return ('{"t_us":%d,"kind":"' + kind + '","data":['
            + ",".join(["%d"] * n) + "]}")


# kind -> (value count, line template).  %d prints an exact int as json.dumps
# does, so a template line is byte for byte the json.dumps line.
_TEMPLATES = {"imu": (10, _line_template("imu", 10)),
              "emg": (8, _line_template("emg", 8))}
_INTS_ONLY = frozenset({int})


def _serialize(rec: SessionRecord) -> str:
    data = rec.data
    template = _TEMPLATES.get(rec.kind) if type(rec.kind) is str else None
    # exact types only: %d prints True as 1 where json.dumps prints true,
    # and formats numpy ints that json.dumps refuses
    if (template is not None and type(rec.t_us) is int
            and (type(data) is tuple or type(data) is list)
            and len(data) == template[0]
            and set(map(type, data)) == _INTS_ONLY):
        return template[1] % (rec.t_us, *data)
    data = data if isinstance(data, dict) else list(data)
    return json.dumps({"t_us": rec.t_us, "kind": rec.kind, "data": data},
                      separators=(",", ":"))


def record(records: Iterable[SessionRecord], path) -> int:
    """Write records to a log file, one line each, in arrival order.

    Lines are written as records arrive, so records may be a generator
    and memory does not grow with the log.  iter_log on the file yields
    back every record it accepts, equal to the one written except that
    list data reads back as a tuple; it refuses out-of-range values and
    decreasing timestamps, naming the line.  Returns the number of lines
    written.
    """
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            fh.write(_serialize(rec) + "\n")
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
    except ValueError as exc:
        # JSONDecodeError, or a plain ValueError for an integer longer than
        # Python's int/str conversion limit
        raise LogParseError(
            line_no, f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
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
    # a reader's clock arithmetic converts t_us to float
    if not _INT64_MIN <= t_us <= _INT64_MAX:
        raise LogParseError(line_no, "t_us outside the signed 64-bit range")
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
        for key, unit in _DEVICE_UNITS.items():
            if key in data and data[key] != unit:
                raise LogParseError(
                    line_no, f"meta {key} {data[key]!r} is not the device's "
                             f"{unit!r}")
        return SessionRecord(t_us, "meta", data)
    raise LogParseError(line_no, f"unknown record kind {kind!r}")


def iter_log(path) -> Iterator[SessionRecord]:
    """Parse a log file; raises LogParseError/MonotonicityError with the
    offending 1-based line number."""
    last_t = None
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                # JSON's whitespace only: str.strip would also drop form
                # feeds and other control bytes that json.loads refuses
                line = raw.decode("ascii").strip(" \t\r\n")
            except UnicodeDecodeError as exc:
                raise LogParseError(
                    line_no, f"non-ASCII byte 0x{raw[exc.start]:02x}") from exc
            if not line:
                continue
            rec = _parse_line(line, line_no)
            if last_t is not None and rec.t_us < last_t:
                raise MonotonicityError(
                    line_no, f"timestamp {rec.t_us} precedes {last_t}")
            last_t = rec.t_us
            yield rec


def records_to_frames(records: Iterable[SessionRecord]
                      ) -> Iterator[Union[ImuFrame, EmgFrame]]:
    """Scale raw records into physical-unit frames, skipping meta records."""
    for rec in records:
        if rec.kind == "imu":
            yield protocol.scale_imu_values(rec.data, rec.t_us)
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
    """The poses each performer holds; bad values are refused when built."""

    performers: tuple[PerformerScript, ...]
    transition_s: float = 2.0
    name: str = ""

    def __post_init__(self):
        if not self.performers:
            raise InvalidScenarioError("scenario has no performers")
        if not 0.0 <= self.transition_s < math.inf:
            raise InvalidScenarioError("transition_s must be finite and >= 0")
        for p, script in enumerate(self.performers):
            if not script.poses:
                raise InvalidScenarioError(f"performer {p} has no poses")
            for k, pose in enumerate(script.poses):
                for ok, problem in (
                    (0.0 < pose.duration_s < math.inf,
                     "duration must be finite and > 0"),
                    (len(pose.orientation) == 3
                     and all(-math.inf < a < math.inf
                             for a in pose.orientation),
                     "orientation needs 3 finite angles"),
                    (len(pose.tension) == 8, "tension needs 8 channels"),
                    (all(0.0 <= t <= 1.0 for t in pose.tension),
                     "tension values must be in [0, 1]"),
                    (0.0 <= pose.micromotion_amp < math.inf
                     and 0.0 <= pose.transition_motion_amp < math.inf,
                     "amplitudes must be finite and >= 0"),
                ):
                    if not ok:
                        raise InvalidScenarioError(
                            f"performer {p} pose {k}: {problem}")


def _known_keys(obj, cls) -> Mapping:
    """obj, once it is an object with no key that cls lacks a field for."""
    if not isinstance(obj, Mapping):
        raise TypeError(f"{cls.__name__} must be an object")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s) {sorted(unknown)}")
    return obj


def _pose_from_dict(obj) -> Pose:
    return Pose(**{key: tuple(map(float, value))
                   if key in ("orientation", "tension") else float(value)
                   for key, value in _known_keys(obj, Pose).items()})


def scenario_from_dict(obj: Mapping) -> Scenario:
    """A Scenario from its JSON form; absent keys take the field defaults,
    and an unknown key or a malformed value raises InvalidScenarioError."""
    try:
        kwargs = dict(_known_keys(obj, Scenario))
        kwargs["performers"] = tuple(
            PerformerScript(poses=tuple(
                _pose_from_dict(pose)
                for pose in _known_keys(script, PerformerScript)["poses"]))
            for script in kwargs["performers"])
        for key, convert in (("transition_s", float), ("name", str)):
            if key in kwargs:
                kwargs[key] = convert(kwargs[key])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidScenarioError(f"malformed scenario: {exc}") from exc
    return Scenario(**kwargs)


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

    imu_pose = np.searchsorted(starts_us[1:], imu_t, side="right")
    emg_pose = np.searchsorted(starts_us[1:], emg_t, side="right")

    micro = np.array([p.micromotion_amp for p in script.poses])
    burst = np.array([p.transition_motion_amp for p in script.poses])
    targets = np.array([p.orientation for p in script.poses])
    tensions = np.array([p.tension for p in script.poses])

    # draw order is fixed: euler, gyro, accel, then EMG noise
    euler_noise = rng.standard_normal((n_imu, 3))
    gyro_noise = rng.standard_normal((n_imu, 3))
    accel_noise = rng.standard_normal((n_imu, 3))
    emg_noise = rng.standard_normal((n_emg, 8))

    # pose changes: lerp orientation from the previous target and inject a
    # rectangular supra-threshold burst for transition_s
    transition_us = transition_s * 1e6
    since_start = imu_t - starts_us[imu_pose]
    in_transition = (imu_pose > 0) & (since_start < transition_us)
    u = np.clip(since_start / max(transition_us, 1.0), 0.0, 1.0)[:, None]
    lerped = (targets[np.maximum(imu_pose - 1, 0)] * (1.0 - u)
              + targets[imu_pose] * u)
    imu_micro = micro[imu_pose][:, None]
    imu_burst = burst[imu_pose][in_transition]
    euler = (np.where(in_transition[:, None], lerped, targets[imu_pose])
             + euler_noise * (EULER_JITTER_RAD * imu_micro))
    gyro = gyro_noise * (GYRO_JITTER_DPS * imu_micro)
    gyro[in_transition, 0] += BURST_GYRO_DPS * imu_burst
    accel = (_gravity_from_euler(euler[:, 0], euler[:, 1])
             + accel_noise * (ACCEL_JITTER_G * imu_micro))
    accel[in_transition, 0] += BURST_ACCEL_G * imu_burst

    quat = euler_to_quat(euler[:, 0], euler[:, 1], euler[:, 2])
    quat_raw = _clip_round(quat, protocol.QUAT_SCALE, _INT16_MIN, _INT16_MAX)
    accel_raw = _clip_round(accel, protocol.ACCEL_SCALE, _INT16_MIN, _INT16_MAX)
    gyro_raw = _clip_round(gyro, protocol.GYRO_SCALE, _INT16_MIN, _INT16_MAX)

    amp_per_sample = tensions[emg_pose] * 127.0
    signs = np.where(np.arange(n_emg)[:, None] % 2 == 0, 1.0, -1.0)
    emg_micro = micro[emg_pose][:, None]
    emg_values = signs * amp_per_sample + emg_noise * (EMG_JITTER_RAW * emg_micro)
    emg_raw = _clip_round(emg_values, 1.0, _INT8_MIN, _INT8_MAX)

    imu_data = np.concatenate([quat_raw, accel_raw, gyro_raw], axis=1)
    records = (
        [SessionRecord(t, "emg", tuple(row))
         for t, row in zip(emg_t.tolist(), emg_raw.tolist())]
        + [SessionRecord(t, "imu", tuple(row))
           for t, row in zip(imu_t.tolist(), imu_data.tolist())])
    # a stable sort keeps EMG before IMU at equal timestamps, so a control
    # tick sees the coincident sample
    records.sort(key=attrgetter("t_us"))
    meta = make_meta_record(device_id=f"synthetic-{performer_index}")
    meta.data.update(seed=seed, performer=performer_index)
    return [meta] + records


def generate_scenario(scenario: Scenario, seed: int
                      ) -> list[list[SessionRecord]]:
    """Synthesize one log per performer.

    Identical (scenario, seed) pairs produce identical logs; per-performer
    streams use independent child seeds so adding a performer never
    perturbs the others.
    """
    children = np.random.SeedSequence(seed).spawn(len(scenario.performers))
    logs = []
    for idx, (script, child) in enumerate(zip(scenario.performers, children)):
        rng = np.random.Generator(np.random.PCG64(child))
        logs.append(generate_performer_records(
            script, scenario.transition_s, rng, idx, seed))
    return logs
