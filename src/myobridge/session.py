"""Deterministic recording, reading, and synthesis of sensor streams.

A log stores the raw sensor integers the armband sends, so it holds exactly
what the wire carried and is read back through the same scaling
(protocol.scale_imu_values).  Log format version 2:

- Line 1 is the meta record, the ASCII bytes of its compact JSON line and a
  newline, as json.dumps(..., separators=(",", ":")) prints it:

      {"t_us":0,"kind":"meta","data":{"version":"2.0",...}}

  It carries the format version, device id, the RNG algorithm used for
  synthetic streams and the device units (_DEVICE_UNITS: scale divisors and
  sample rates).
- Each record after it is binary, little-endian: an int64 t_us, one kind
  byte, then the raw values.  _LAYOUTS is the one table of the two layouts:

      imu  kind byte 1  10 int16: qw qx qy qz ax ay az gx gy gz   29 bytes
      emg  kind byte 2   8 int8:  c0 ... c7, one sample            17 bytes

Timestamps are microseconds and must be non-decreasing, the meta record's
included, and they are the only clock a reader uses.

iter_log refuses a log with LogParseError, naming the 1-based record number
(the meta line is record 1) and the byte offset where that record starts,
for: a first line that is not a JSON meta record of major version 2, so a
version-1 JSON-lines log is refused whole; a meta line longer than
_IO_BYTES, newline included; a meta record declaring units other than the
device's, which are fixed by the device, not options; an unknown kind
byte; a decreasing timestamp; and a truncated last record.
There is no other version and no JSON-lines reader.  record refuses a record
it cannot write in this layout (see its docstring).  To read a log as text,
`myobridge cat LOG` prints it as JSON lines.

The scenario generator synthesizes ensemble performances: each performer
holds a sequence of poses.  A scenario file, read by scenario_from_dict:

    {"name": "ensemble-9min",       str, optional, default ""
     "performers": [{"poses": [     each list non-empty
       {"duration_s": 135.0,        number > 0
        "orientation": [r, p, y],   3 numbers: roll, pitch, yaw target (rad)
        "tension": [t0, ..., t7]}   8 numbers in [0, 1], one per EMG channel
     ]}]}

A number is a JSON int or float, finite as a float, never true or false.
Any other key is refused, and Scenario checks the same rules when built
directly, with tuples for the arrays.

The motion model is fixed, a labeled approximation sufficient for
exercising the gate.  Every IMU sample carries seeded Gaussian jitter
(EULER_JITTER_RAD, GYRO_JITTER_DPS, ACCEL_JITTER_G).  For TRANSITION_S
after a pose change the orientation lerps from the previous target, and
gyro x and accel x carry a rectangular burst (BURST_GYRO_DPS,
BURST_ACCEL_G) that trips the stillness gate.  EMG alternates sign
sample by sample at tension * INT8_MAX raw units, plus EMG_JITTER_RAW
jitter.

The generator packs each performer's log from its arrays: it builds no
record per sample, but writes the records' bytes, in the log layout, into
one body.  It returns a Log, a read-only sequence of SessionRecords held
as the bytes record writes for them.  The records are in stamp order, and
an EMG sample comes before the IMU sample of the same stamp, so a control
tick sees the coincident sample.
"""

from __future__ import annotations

import json
import operator
import struct
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources
from itertools import islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

import numpy as np

from . import protocol
from .fusion import euler_to_quat
from .protocol import (
    EMG_CHANNELS, EMG_PERIOD_US, IMU_PERIOD_US, IMU_VALUES, INT8_MAX, INT8_MIN,
    INT16_MAX, INT16_MIN, EmgFrame, ImuFrame)

LOG_VERSION = "2.0"
LOG_MAJOR = int(LOG_VERSION.split(".", 1)[0])
RNG_ALGORITHM = "numpy-pcg64"

# The meta record's device fields, in the order it writes them.
_DEVICE_UNITS = {
    "quat_scale": protocol.QUAT_SCALE,
    "accel_scale": protocol.ACCEL_SCALE,
    "gyro_scale": protocol.GYRO_SCALE,
    "imu_rate_hz": protocol.IMU_RATE_HZ,
    "emg_rate_hz": protocol.EMG_RATE_HZ,
}

# The generator's jitter (standard deviations) and pose transition.
EULER_JITTER_RAD = 0.005
GYRO_JITTER_DPS = 1.0
ACCEL_JITTER_G = 0.003
EMG_JITTER_RAW = 2.0
TRANSITION_S = 2.0
BURST_GYRO_DPS = 2000.0
BURST_ACCEL_G = 1.0

_BUNDLED_SCENARIO = "ensemble_9min.json"


class LogParseError(ValueError):
    """Malformed log content; carries the 1-based record number and the
    byte offset where that record starts."""

    def __init__(self, record_no: int, offset: int, message: str):
        self.record_no = record_no
        self.offset = offset
        super().__init__(f"record {record_no} at byte {offset}: {message}")


class InvalidScenarioError(ValueError):
    pass


class SessionRecord(NamedTuple):
    """One timestamped log entry; data holds raw integers (or meta fields)."""

    t_us: int
    kind: str  # "imu" | "emg" | "meta"
    data: Union[tuple, Mapping]


def make_meta_record(device_id: str = "unknown") -> SessionRecord:
    return SessionRecord(0, "meta", {
        "version": LOG_VERSION,
        "device_id": device_id,
        "rng": RNG_ALGORITHM,
        **_DEVICE_UNITS,
    })


# kind -> (kind byte, layout of t_us, kind byte and raw values).  The struct
# codes q, h and b refuse a value outside int64, int16 and int8.
_LAYOUTS = {"imu": (1, struct.Struct(f"<qB{IMU_VALUES}h")),
            "emg": (2, struct.Struct(f"<qB{EMG_CHANNELS}b"))}
_KINDS = {code: (kind, layout) for kind, (code, layout) in _LAYOUTS.items()}
_KIND_AT = 8  # the kind byte's offset in a record, past its int64 t_us
# record's write size, iter_log's read size and the longest meta line: a
# log's memory stays about this much whatever its length
_IO_BYTES = 1 << 16


def record(records: Iterable[SessionRecord], path) -> int:
    """Write records to a log file in arrival order; returns how many.

    The first record must be the meta record, written as the JSON line and
    checked as iter_log checks it, so a bad one is refused before the take,
    not when it is rendered.  Every later record is packed into a buffer
    written each time it reaches _IO_BYTES, so records may be a generator
    and memory does not grow with the log.  A record is refused with
    ValueError (LogParseError for the meta line), naming its 1-based
    number, when it cannot be written: a first record that is not meta, a
    meta record after the first, an unknown kind, a t_us or value that is
    not an int (a float) or is outside int64, int16 or int8, or the wrong
    number of values.  Values are packed by value under struct's rule, so a
    bool or a numpy int is written as its int and reads back as a plain
    int.  Whether a record is refused or records itself raises (a device
    drops out, a take is interrupted), every record before it has reached
    the file when the exception escapes.

    Timestamps are written as given: iter_log yields back every record up
    to one that precedes the last, equal to the one written except that
    data reads back as a tuple of plain ints.
    """
    records = iter(records)
    with open(path, "wb") as fh:
        first = next(records, None)
        if first is None:
            return 0
        fh.write(_meta_line(first))
        count = 1
        buf = bytearray()
        try:
            for count, (t_us, kind, data) in enumerate(records, start=2):
                try:
                    code, layout = _LAYOUTS[kind]
                except (KeyError, TypeError):
                    raise ValueError(
                        f"record {count}: past the meta record, a log holds "
                        f"imu and emg records only, not {kind!r}") from None
                try:
                    buf += layout.pack(t_us, code, *data)
                except (TypeError, struct.error) as exc:
                    raise ValueError(f"record {count}: {kind} record "
                                     f"refused ({exc})") from exc
                if len(buf) >= _IO_BYTES:
                    fh.write(buf)
                    buf.clear()
            return count
        finally:
            # the records packed so far reach the file even if the source
            # or a record raises
            fh.write(buf)


def _meta_line(meta: SessionRecord) -> bytes:
    """The meta record's line, checked as iter_log checks it, so a bad one
    is refused before the take, not when it is rendered."""
    t_us, kind, data = meta
    if kind != "meta":
        raise ValueError(f"record 1: a log starts with its meta record, "
                         f"not {kind!r}")
    line = json.dumps({"t_us": t_us, "kind": kind, "data": data},
                      separators=(",", ":")).encode("ascii") + b"\n"
    _read_meta(line)
    return line


def _read_meta(line: bytes) -> SessionRecord:
    """Record 1, the meta line, checked."""
    if len(line) > _IO_BYTES:
        raise LogParseError(1, 0, f"meta line longer than {_IO_BYTES} bytes")
    try:
        obj = json.loads(line.decode("ascii"))
    except UnicodeDecodeError as exc:
        raise LogParseError(
            1, 0, f"non-ASCII byte 0x{line[exc.start]:02x}") from exc
    except (RecursionError, ValueError) as exc:
        # JSONDecodeError, a plain ValueError for an integer longer than
        # Python's int/str conversion limit, or a RecursionError for arrays
        # nested deeper than the decoder's stack
        raise LogParseError(
            1, 0, f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
    if not (isinstance(obj, dict) and obj.get("kind") == "meta"
            and isinstance(obj.get("data"), dict)):
        raise LogParseError(1, 0, "the first line must be a meta record")
    t_us, data = obj.get("t_us"), obj["data"]
    if type(t_us) is not int:  # nor a bool
        raise LogParseError(1, 0, "t_us must be an integer")
    try:
        # a reader's clock arithmetic converts t_us to float
        struct.pack("<q", t_us)
    except struct.error:
        raise LogParseError(
            1, 0, "t_us outside the signed 64-bit range") from None
    version = str(data.get("version", ""))
    if version.split(".", 1)[0] != str(LOG_MAJOR):
        raise LogParseError(1, 0, f"unsupported log version {version!r}")
    for key, unit in _DEVICE_UNITS.items():
        if key in data and data[key] != unit:
            raise LogParseError(
                1, 0, f"meta {key} {data[key]!r} is not the device's {unit!r}")
    return SessionRecord(t_us, "meta", data)


def iter_log(path) -> Iterator[SessionRecord]:
    """Read a log file (format in the module docstring), record by record.

    Reads the meta line, at most _IO_BYTES + 1 bytes of it, so a longer
    one is refused unread, then chunks of _IO_BYTES, carrying a record cut
    by a chunk's end into the next, so memory does not grow with the log.
    Raises LogParseError naming the record and its byte offset for each
    refusal the module docstring lists, after yielding every record before
    it.
    """
    with open(path, "rb") as fh:
        line = fh.readline(_IO_BYTES + 1)
        if not line:
            return
        meta = _read_meta(line)
        yield meta
        last_t, record_no = meta.t_us, 1
        base, buf = len(line), b""  # buf[0] is at file offset base
        while chunk := fh.read(_IO_BYTES):
            buf += chunk
            pos, record_no, last_t = yield from _decode(buf, base, record_no,
                                                        last_t)
            base += pos
            buf = buf[pos:]
        if buf:
            raise LogParseError(record_no + 1, base,
                                f"truncated record: the log ends "
                                f"{len(buf)} bytes into it")


def _decode(buf, base: int, record_no: int, last_t: int):
    """Yield the whole records at the start of buf, which is at byte offset
    base of its log, past record number record_no stamped last_t.  Returns
    (bytes read, record_no, last_t) as they are after the last record.

    Raises LogParseError for an unknown kind byte or a decreasing stamp;
    a record cut by buf's end is left unread.
    """
    pos, end = 0, len(buf)
    while pos + _KIND_AT < end:
        try:
            kind, layout = _KINDS[buf[pos + _KIND_AT]]
        except KeyError:
            raise LogParseError(
                record_no + 1, base + pos,
                f"unknown kind byte {buf[pos + _KIND_AT]}") from None
        if pos + layout.size > end:
            break
        values = layout.unpack_from(buf, pos)
        t_us = values[0]
        record_no += 1
        if t_us < last_t:
            raise LogParseError(record_no, base + pos,
                                f"timestamp {t_us} precedes {last_t}")
        last_t = t_us
        pos += layout.size
        yield tuple.__new__(SessionRecord, (t_us, kind, values[2:]))
    return pos, record_no, last_t


class Log(Sequence):
    """One performer's generated log, held as the bytes of its file.

    line is the meta record's line and body the records after it, the
    bytes record writes for them; starts holds each body record's offset
    in body (int64), for random access.  A Log reads as a sequence of
    SessionRecords, the meta record first, each decoded as it is read by
    iter_log's decoder, so data reads back as a tuple of plain ints and
    every read of the meta record gets a dict of its own.  A slice is a
    list.  A Log equals a list or tuple of the same records, and a Log of
    the same bytes.
    """

    __slots__ = ("_line", "_body", "_starts")

    def __init__(self, line: bytes, body: bytes, starts: np.ndarray):
        self._line, self._body, self._starts = line, body, starts

    def __len__(self) -> int:
        return len(self._starts) + 1

    def __iter__(self) -> Iterator[SessionRecord]:
        return self._records_from(0)

    def __getitem__(self, index):
        rows = range(len(self))[index]  # an int, or a range for a slice
        if isinstance(rows, int):
            return next(self._records_from(rows))
        if not rows:
            return []
        first, last = sorted((rows[0], rows[-1]))
        return list(islice(self._records_from(first),
                           last - first + 1))[::rows.step]

    def __eq__(self, other):
        if isinstance(other, Log):
            return self._line == other._line and self._body == other._body
        if isinstance(other, (list, tuple)):
            return (len(other) == len(self)
                    and all(map(operator.eq, self, other)))
        return NotImplemented

    def _records_from(self, index: int) -> Iterator[SessionRecord]:
        if index == 0:
            meta = _read_meta(self._line)
            yield meta
            start, last_t = 0, meta.t_us
        else:  # from a record in the body, whose stamp no earlier one bounds
            start, last_t = int(self._starts[index - 1]), -1 << 63
        yield from _decode(memoryview(self._body)[start:],
                           len(self._line) + start, index, last_t)

    def write(self, path) -> int:
        """Write the log file, the bytes record writes for these records;
        returns how many."""
        with open(path, "wb") as fh:
            fh.write(self._line)
            fh.write(self._body)
        return len(self)


def records_to_frames(records: Iterable[SessionRecord]
                      ) -> Iterator[Union[ImuFrame, EmgFrame]]:
    """Scale raw records into physical-unit frames, skipping meta records."""
    for t_us, kind, data in records:
        if kind == "imu":
            yield protocol.scale_imu_values(data, t_us)
        elif kind == "emg":
            yield EmgFrame(t_us, tuple(data))


# --- scenario synthesis -------------------------------------------------------


@dataclass(frozen=True)
class Pose:
    """One held position: orientation target and muscle tension."""

    duration_s: float
    orientation: tuple[float, float, float]  # roll, pitch, yaw target (rad)
    tension: tuple[float, ...]               # a level in [0, 1] per channel


@dataclass(frozen=True)
class PerformerScript:
    poses: tuple[Pose, ...]


def _finite(value) -> bool:
    """value is an int or float, not a bool, and finite as a float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)  # an int compares exactly


@dataclass(frozen=True)
class Scenario:
    """The poses each performer holds.  A malformed value, one of the wrong
    type included, raises InvalidScenarioError when the scenario is built."""

    performers: tuple[PerformerScript, ...]
    name: str = ""

    def __post_init__(self):
        problem = _problem(self)
        if problem:
            raise InvalidScenarioError(problem)


def _problem(scenario: Scenario) -> str:
    """The first thing wrong with scenario, or "" if nothing is."""
    if not isinstance(scenario.name, str):
        return f"name must be a str, not {scenario.name!r}"
    if not (isinstance(scenario.performers, tuple) and scenario.performers):
        return "scenario has no performers (needs a non-empty tuple)"
    for p, script in enumerate(scenario.performers):
        if not (isinstance(script, PerformerScript)
                and isinstance(script.poses, tuple) and script.poses):
            return (f"performer {p} has no poses (needs a PerformerScript "
                    "with a non-empty tuple)")
        for k, pose in enumerate(script.poses):
            where = f"performer {p} pose {k}: "
            if not isinstance(pose, Pose):
                return where + "not a Pose"
            if not (_finite(pose.duration_s) and pose.duration_s > 0.0):
                return where + "duration must be a finite number > 0"
            o, t = pose.orientation, pose.tension
            if not (isinstance(o, tuple) and len(o) == 3
                    and all(map(_finite, o))):
                return where + "orientation needs a tuple of 3 finite angles"
            if not (isinstance(t, tuple) and len(t) == EMG_CHANNELS
                    and all(_finite(v) and 0.0 <= v <= 1.0 for v in t)):
                return (where + f"tension needs a tuple of {EMG_CHANNELS} "
                        "numbers in [0, 1]")
    return ""


def _tuple(value):
    """A JSON array as a tuple; any other value as it is."""
    return tuple(value) if isinstance(value, list) else value


def scenario_from_dict(obj: Mapping) -> Scenario:
    """A Scenario from its JSON form (schema in the module docstring).

    Maps JSON onto the dataclasses, arrays as tuples; Scenario checks the
    values.  An unknown or missing key and every value Scenario refuses
    raise InvalidScenarioError("malformed scenario: ...").
    """
    try:
        return Scenario(**{**obj, "performers": tuple(
            PerformerScript(**{**script, "poses": tuple(
                Pose(**{key: _tuple(value) for key, value in pose.items()})
                for pose in script["poses"])})
            for script in obj["performers"])})
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # InvalidScenarioError is a ValueError
        raise InvalidScenarioError(f"malformed scenario: {exc}") from exc


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


# the records' layouts in _LAYOUTS as numpy dtypes, unpadded: 29 and 17 bytes
_IMU_RECORD = np.dtype([("t_us", "<i8"), ("kind", "u1"),
                        ("values", "<i2", (IMU_VALUES,))])
_EMG_RECORD = np.dtype([("t_us", "<i8"), ("kind", "u1"),
                        ("values", "i1", (EMG_CHANNELS,))])


def _clip_round(values: np.ndarray, scale: float, lo: int, hi: int) -> np.ndarray:
    """values * scale rounded and clipped to [lo, hi], in one new float
    array: whole numbers that a record field's assignment casts exactly."""
    rounded = values * scale
    np.rint(rounded, out=rounded)
    return np.clip(rounded, lo, hi, out=rounded)


def generate_performer_records(script: PerformerScript,
                               rng: np.random.Generator,
                               performer_index: int,
                               seed: int) -> Log:
    """Synthesize one performer's raw IMU (50 Hz) and EMG (200 Hz) log."""
    imu, emg = _samples(script, rng)
    # each record's offset in the body is the bytes of the records before
    # it, in the order the module docstring gives
    emg_before = np.searchsorted(emg["t_us"], imu["t_us"], side="right")
    imu_before = np.searchsorted(imu["t_us"], emg["t_us"], side="left")
    imu_at = np.arange(len(imu)) * imu.itemsize + emg_before * emg.itemsize
    emg_at = np.arange(len(emg)) * emg.itemsize + imu_before * imu.itemsize
    body = np.empty(imu.nbytes + emg.nbytes, np.uint8)
    for recs, at in ((imu, imu_at), (emg, emg_at)):
        body[at[:, None] + np.arange(recs.itemsize)] = (
            recs.view(np.uint8).reshape(-1, recs.itemsize))
    meta = make_meta_record(device_id=f"synthetic-{performer_index}")
    meta.data.update(seed=seed, performer=performer_index)
    return Log(_meta_line(meta), body.tobytes(),
               np.sort(np.concatenate([imu_at, emg_at])))


def _samples(script: PerformerScript, rng: np.random.Generator
             ) -> tuple[np.ndarray, np.ndarray]:
    """One performer's IMU and EMG records, as _IMU_RECORD and _EMG_RECORD
    arrays, each in stamp order."""
    durations = np.array([p.duration_s for p in script.poses])
    starts_us = np.concatenate([[0.0], np.cumsum(durations)[:-1]]) * 1e6
    total_s = float(durations.sum())

    n_imu = round(total_s * protocol.IMU_RATE_HZ)
    n_emg = round(total_s * protocol.EMG_RATE_HZ)
    imu_t = np.arange(n_imu, dtype=np.int64) * IMU_PERIOD_US
    emg_t = np.arange(n_emg, dtype=np.int64) * EMG_PERIOD_US

    imu_pose = np.searchsorted(starts_us[1:], imu_t, side="right")
    emg_pose = np.searchsorted(starts_us[1:], emg_t, side="right")

    targets = np.array([p.orientation for p in script.poses])
    tensions = np.array([p.tension for p in script.poses])

    # draw order is fixed: euler, gyro, accel, then EMG noise
    euler_noise = rng.standard_normal((n_imu, 3))
    gyro_noise = rng.standard_normal((n_imu, 3))
    accel_noise = rng.standard_normal((n_imu, 3))
    emg_noise = rng.standard_normal((n_emg, EMG_CHANNELS))

    # pose changes: lerp orientation from the previous target and inject a
    # rectangular supra-threshold burst for TRANSITION_S
    transition_us = TRANSITION_S * 1e6
    since_start = imu_t - starts_us[imu_pose]
    in_transition = (imu_pose > 0) & (since_start < transition_us)
    u = np.clip(since_start / transition_us, 0.0, 1.0)[:, None]
    lerped = (targets[np.maximum(imu_pose - 1, 0)] * (1.0 - u)
              + targets[imu_pose] * u)
    euler = (np.where(in_transition[:, None], lerped, targets[imu_pose])
             + euler_noise * EULER_JITTER_RAD)
    gyro = gyro_noise * GYRO_JITTER_DPS
    gyro[in_transition, 0] += BURST_GYRO_DPS
    accel = (_gravity_from_euler(euler[:, 0], euler[:, 1])
             + accel_noise * ACCEL_JITTER_G)
    accel[in_transition, 0] += BURST_ACCEL_G

    quat = euler_to_quat(euler[:, 0], euler[:, 1], euler[:, 2])
    quat_raw = _clip_round(quat, protocol.QUAT_SCALE, INT16_MIN, INT16_MAX)
    accel_raw = _clip_round(accel, protocol.ACCEL_SCALE, INT16_MIN, INT16_MAX)
    gyro_raw = _clip_round(gyro, protocol.GYRO_SCALE, INT16_MIN, INT16_MAX)

    amp_per_sample = tensions[emg_pose] * INT8_MAX
    signs = np.where(np.arange(n_emg)[:, None] % 2 == 0, 1.0, -1.0)
    emg_values = signs * amp_per_sample + emg_noise * EMG_JITTER_RAW

    imu = np.empty(n_imu, _IMU_RECORD)
    imu["t_us"], imu["kind"] = imu_t, _LAYOUTS["imu"][0]
    imu["values"] = np.concatenate([quat_raw, accel_raw, gyro_raw], axis=1)
    emg = np.empty(n_emg, _EMG_RECORD)
    emg["t_us"], emg["kind"] = emg_t, _LAYOUTS["emg"][0]
    emg["values"] = _clip_round(emg_values, 1.0, INT8_MIN, INT8_MAX)
    return imu, emg


def iter_scenario(scenario: Scenario, seed: int) -> Iterator[Log]:
    """Synthesize one log per performer, in order, each as it is asked for.

    Identical (scenario, seed) pairs produce identical logs; per-performer
    streams use independent child seeds so adding a performer never
    perturbs the others.
    """
    children = np.random.SeedSequence(seed).spawn(len(scenario.performers))
    for idx, (script, child) in enumerate(zip(scenario.performers, children)):
        rng = np.random.Generator(np.random.PCG64(child))
        yield generate_performer_records(script, rng, idx, seed)


def generate_scenario(scenario: Scenario, seed: int) -> list[Log]:
    """iter_scenario's logs, all of them at once."""
    return list(iter_scenario(scenario, seed))
