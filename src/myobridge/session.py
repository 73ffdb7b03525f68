"""Deterministic recording, reading, and synthesis of sensor streams.

Logs are JSON lines, one flat record per line, storing the raw sensor
integers the armband sends, so a log holds exactly what the wire carried
and is read back through the same scaling (protocol.scale_imu_values):

    {"t_us":0,"kind":"meta","data":{"version":"1.0",...}}
    {"t_us":0,"kind":"imu","data":[qw,qx,qy,qz,ax,ay,az,gx,gy,gz]}
    {"t_us":0,"kind":"emg","data":[c0,...,c7]}

A log is ASCII bytes, and every line is byte for byte the
json.dumps(separators=(",", ":")) form of its record.  _LAYOUTS is the one
table of the IMU and EMG line layouts: each kind's value count and range.
Both block paths work from it: the reader checks a block's values against
it, and the writer prints a block whose records are all IMU and EMG
records of plain ints from _TEMPLATES, one bytes %-format line per kind
built from it and encoded once at import.  Every record of any other
block is printed with json.dumps itself, which escapes non-ASCII text, so
its line encodes as ASCII.

Producers write a leading meta record carrying the format version, device
id, the RNG algorithm used for synthetic streams and the device units
(_DEVICE_UNITS: scale divisors and sample rates).  The units are fixed by
the device, not options: iter_log refuses a meta record that declares
different ones, naming its line.  Timestamps are microseconds and must be
non-decreasing, and they are the only clock a reader uses.

iter_log reads the first line, the meta record, with the line parser and
the rest in blocks of lines, each parsed with one json.loads and checked
in passes over the whole block.  A block it cannot accept in full, for a
blank, meta or malformed line, a value out of range or a decreasing
timestamp, goes through the line parser: that yields the block's good
records and then names the first bad line.  So every error message and
line number comes from the line parser.

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
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from importlib import resources
from itertools import chain, compress, islice, repeat
from operator import attrgetter, eq, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union

import numpy as np

from . import protocol
from .fusion import euler_to_quat
from .protocol import (
    EMG_CHANNELS, EMG_PERIOD_US, IMU_PERIOD_US, IMU_VALUES, INT8_MAX, INT8_MIN,
    INT16_MAX, INT16_MIN, EmgFrame, ImuFrame)

LOG_VERSION = "1.0"
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

_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1

_BUNDLED_SCENARIO = "ensemble_9min.json"


class LogParseError(Exception):
    """Malformed log content; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


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


# kind -> (value count, lowest, highest) of a data record's raw integers
_LAYOUTS = {"imu": (IMU_VALUES, INT16_MIN, INT16_MAX),
            "emg": (EMG_CHANNELS, INT8_MIN, INT8_MAX)}
# kind -> line template, ASCII bytes, the only printer of IMU and EMG
# lines besides json.dumps itself.  bytes %d prints an exact int as
# json.dumps does, so a template line is byte for byte the json.dumps line.
_TEMPLATES = {kind: ('{"t_us":%d,"kind":"' + kind + '","data":['
                     + ",".join(["%d"] * n) + "]}").encode("ascii")
              for kind, (n, _, _) in _LAYOUTS.items()}
_COUNTS = {kind: n for kind, (n, _, _) in _LAYOUTS.items()}
_INTS_ONLY = frozenset({int})
_STRS_ONLY = frozenset({str})
_LISTS_ONLY = frozenset({list})
_DICTS_ONLY = frozenset({dict})
_SEQUENCES = frozenset({tuple, list})
# iter_log's read size: small enough that a block's parsed objects add
# nothing measurable to a render's peak memory
_BLOCK_BYTES = 8192
# record's block size, in records: a block's text is about 15 KB
_BLOCK_RECORDS = 256


def _serialize(rec: SessionRecord) -> str:
    t_us, kind, data = rec
    data = data if isinstance(data, dict) else list(data)
    return json.dumps({"t_us": t_us, "kind": kind, "data": data},
                      separators=(",", ":"))


def _block_text(block: list) -> Optional[bytes]:
    """The lines of a block of records, as ASCII bytes printed with one %
    over the block's joined templates, or None if the templates cannot
    print some record of it.  Checks each rule in one pass over the whole
    block.  % raises ValueError on an int past Python's int/str digit
    limit."""
    t_us, kinds, datas = zip(*block)
    if (set(map(type, kinds)) != _STRS_ONLY or not _COUNTS.keys() >= set(kinds)
            or set(map(type, datas)) - _SEQUENCES
            or list(map(len, datas)) != list(map(_COUNTS.__getitem__, kinds))):
        return None
    # t_us, then the data values, of each record in turn
    args = []
    for t, data in zip(t_us, datas):
        args.append(t)
        args.extend(data)
    # exact ints only: %d prints True as 1 where json.dumps prints true,
    # and formats numpy ints that json.dumps refuses
    if set(map(type, args)) != _INTS_ONLY:
        return None
    return ((b"\n".join(map(_TEMPLATES.__getitem__, kinds)) + b"\n")
            % tuple(args))


def _write_block(fh, block: list) -> None:
    try:
        text = _block_text(block)
    except ValueError:  # % refused an int: json.dumps raises at its record
        text = None
    if text is None:
        # record by record, so the lines before a refused record are
        # written before it raises.  json.dumps escapes non-ASCII text, so
        # the encode cannot fail
        for rec in block:
            fh.write((_serialize(rec) + "\n").encode("ascii"))
    else:
        fh.write(text)


def record(records: Iterable[SessionRecord], path) -> int:
    """Write records to a log file, one line each, in arrival order.

    The first record is written alone, and the rest _BLOCK_RECORDS at a
    time: a block whose records the templates all print is written with
    one write.  So records may be a generator, and memory does not grow
    with the log: it holds one block and its text.  A block holding a
    record the templates cannot print (a meta record, a bool, a numpy int,
    a float, a wrong length) is written record by record through
    json.dumps, and the next block is whole again.  Either way the file's
    bytes are those of writing each record's line in turn.  A record that
    json.dumps or %d refuses raises the same exception as its line would,
    after every line before it has reached the file.  If records itself
    raises (a device drops out, a take is interrupted), the records it
    gave before that are written first.  The file is opened in binary and
    written as ASCII bytes, with no newline translation, so its bytes are
    the same on every platform.

    iter_log on the file yields back every record it accepts, equal to the
    one written except that list data reads back as a tuple; it refuses
    out-of-range values and decreasing timestamps, naming the line.
    Returns the number of lines written.
    """
    records = iter(records)
    count = 0
    # a log starts with its meta record: written alone, it leaves the
    # first block whole
    size = 1
    with open(path, "wb") as fh:
        while True:
            block = []
            try:
                for rec in islice(records, size):
                    block.append(rec)
            finally:
                # the records drawn so far reach the file even if the
                # source raises
                if block:
                    _write_block(fh, block)
            if not block:
                return count
            count += len(block)
            size = _BLOCK_RECORDS


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
    except (RecursionError, ValueError) as exc:
        # JSONDecodeError, a plain ValueError for an integer longer than
        # Python's int/str conversion limit, or a RecursionError for arrays
        # nested deeper than the decoder's stack
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
    # a JSON kind may be an unhashable list or object
    if isinstance(kind, str) and kind in _LAYOUTS:
        _check_int_list(data, *_LAYOUTS[kind], line_no, kind)
        return SessionRecord(t_us, kind, tuple(data))
    if kind == "meta":
        if not isinstance(data, dict):
            raise LogParseError(line_no, "meta data must be an object")
        version = str(data.get("version", ""))
        major = version.split(".", 1)[0]
        if not major.isdigit() or int(major) != LOG_MAJOR:
            raise LogParseError(
                line_no, f"unsupported log version {version!r}")
        for key, unit in _DEVICE_UNITS.items():
            if key in data and data[key] != unit:
                raise LogParseError(
                    line_no, f"meta {key} {data[key]!r} is not the device's "
                             f"{unit!r}")
        return SessionRecord(t_us, "meta", data)
    raise LogParseError(line_no, f"unknown record kind {kind!r}")


def _parse_lines(lines, line_no: int, last_t):
    """The line parser: yields each line's record, numbering lines from
    line_no, and returns the last timestamp read."""
    for line_no, raw in enumerate(lines, start=line_no):
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
            raise LogParseError(
                line_no, f"timestamp {rec.t_us} precedes {last_t}")
        last_t = rec.t_us
        yield rec
    return last_t


def _ints_within(datas: list, n: int, lo: int, hi: int) -> bool:
    """Whether every item of datas is a list of n exact ints in [lo, hi]."""
    if set(map(type, datas)) - _LISTS_ONLY or set(map(len, datas)) - {n}:
        return False
    values = list(chain.from_iterable(datas))
    return not values or (set(map(type, values)) == _INTS_ONLY
                          and lo <= min(values) and max(values) <= hi)


def _read_block(block: list, last_t):
    """(t_us, kinds, datas) of a block of IMU and EMG lines, each checked
    in a few passes over the whole block, or None for a block that the
    line parser must read."""
    n = len(block)
    joined = b",".join(block)
    # one "{" per line, at its start, and as many "}": every line holds
    # one flat object, so no object can span two lines
    if (not joined.isascii() or joined.count(b"{") != n
            or joined.count(b"}") != n
            or not all(map(bytes.startswith, block, repeat(b"{")))):
        return None
    try:
        objs = json.loads(b"[" + joined + b"]")
        if len(objs) != n or set(map(type, objs)) != _DICTS_ONLY:
            return None
        t_us = list(map(itemgetter("t_us"), objs))
        kinds = list(map(itemgetter("kind"), objs))
        datas = list(map(itemgetter("data"), objs))
    except (KeyError, RecursionError, ValueError):
        return None
    if (set(map(type, t_us)) != _INTS_ONLY or t_us != sorted(t_us)
            or t_us[0] < _INT64_MIN or t_us[-1] > _INT64_MAX
            or last_t is not None and t_us[0] < last_t):
        return None
    # list.count compares by ==, so kinds of any JSON type are safe here
    if sum(map(kinds.count, _LAYOUTS)) != n:
        return None
    for kind, (count, lo, hi) in _LAYOUTS.items():
        of_kind = list(compress(datas, map(eq, kinds, repeat(kind))))
        if not _ints_within(of_kind, count, lo, hi):
            return None
    return t_us, kinds, datas


def iter_log(path) -> Iterator[SessionRecord]:
    """Parse a log file; raises LogParseError with the offending 1-based
    line number (a malformed line, an unsupported version, a timestamp
    that precedes the last).  Reads blocks of about _BLOCK_BYTES past the
    first line; see the module docstring."""
    with open(path, "rb") as fh:
        last_t = yield from _parse_lines([fh.readline()], 1, None)
        line_no = 2
        while block := fh.readlines(_BLOCK_BYTES):
            checked = _read_block(block, last_t)
            if checked is None:
                last_t = yield from _parse_lines(block, line_no, last_t)
            else:
                t_us, kinds, datas = checked
                yield from map(SessionRecord, t_us, kinds, map(tuple, datas))
                last_t = t_us[-1]
            line_no += len(block)


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


def _clip_round(values: np.ndarray, scale: float, lo: int, hi: int) -> np.ndarray:
    return np.clip(np.rint(values * scale), lo, hi).astype(np.int64)


def generate_performer_records(script: PerformerScript,
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
    emg_raw = _clip_round(emg_values, 1.0, INT8_MIN, INT8_MAX)

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
        logs.append(generate_performer_records(script, rng, idx, seed))
    return logs
