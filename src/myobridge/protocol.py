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

A frame is its wire bytes, header included; nothing decodes it into fields.
The bridge reads one event, the attribute-value notification, down one chain:
feed -> parse_attribute_value_event -> dispatch_attribute -> unpack_imu_raw
and scale_imu_values, as for a logged IMU record, or parse_emg_packet.  The
second reads the notification's payload (connection 1B, handle 2B
little-endian, attribute type 1B, value length 1B, value) at fixed offsets
of the frame; the third routes the value by handle.  An IMU value is 20
bytes: 10 little-endian int16 values ordered quaternion (w,x,y,z),
accelerometer (x,y,z), gyroscope (x,y,z).  An EMG value is 16 bytes: two
consecutive 8-channel int8 samples.  The sample layout block below is the
one home of those counts and bounds; the structs, payload lengths and EMG
split here, session's log layouts and generator bounds, and mapping's
oscillators and EMG full scale derive from it.

ImuFrame and EmgFrame are NamedTuples: immutable and hashable, and they
compare as the tuples of their fields.  A frozen dataclass would set each
field through object.__setattr__, a cost the live path pays per frame.
The decoders build them with tuple.__new__(Cls, (...)), the same value as
Cls(...) without a call of the NamedTuple's generated __new__, a Python
function that a class body cannot override; each such site passes a fixed
number of fields, so that __new__ would have nothing to check.

BgapiStream keeps the bytes it has not framed as immutable bytes and
returns each frame as a slice of them, so a notification that arrives
whole is returned as the chunk object itself, with no copy.
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Sequence, Union

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

# GATT attribute handles as reported by the dongle for stock firmware.
# Notifications on any other handle (such as the classifier's) are skipped.
IMU_DATA_HANDLE = 0x1C
EMG_DATA_HANDLES = (0x2B, 0x2E, 0x31, 0x34)

# Attribute-client class and its attribute-value (notification) event id.
ATTCLIENT_CLASS = 0x04
ATTCLIENT_ATTRIBUTE_VALUE_EVENT = 0x05
_VALUE_AT = HEADER_LEN + 5  # offset of a notification frame's value

# The sample layout: IMU_VALUES int16s, or two samples of EMG_CHANNELS int8s
IMU_VALUES = 10
EMG_CHANNELS = 8
INT16_MIN, INT16_MAX = -32768, 32767
INT8_MIN, INT8_MAX = -128, 127
_IMU_STRUCT = struct.Struct(f"<{IMU_VALUES}h")
_EMG_STRUCT = struct.Struct(f"<{2 * EMG_CHANNELS}b")
IMU_PAYLOAD_LEN = _IMU_STRUCT.size
EMG_PAYLOAD_LEN = _EMG_STRUCT.size


class ProtocolError(Exception):
    """Base class for wire-protocol failures."""


class WrongLengthError(ProtocolError):
    pass


class ImuFrame(NamedTuple):
    """One IMU sample in physical units.

    quat is (w, x, y, z); accel is in g; gyro is in deg/s.
    """

    t_us: int
    quat: tuple[float, float, float, float]
    accel: tuple[float, float, float]
    gyro: tuple[float, float, float]


class EmgFrame(NamedTuple):
    """One 8-channel EMG sample; values are signed 8-bit activations."""

    t_us: int
    channels: tuple[int, ...]


class BgapiStream:
    """Incremental frame extractor over a serial byte stream.

    Framing rule: with fewer than 4 bytes buffered, or fewer than the
    header declares, wait for more input; a type byte with reserved bits
    set is dropped, one byte at a time, and counted in bytes_dropped for
    diagnostics; otherwise the header and its payload are one frame.
    Bytes not yet framed stay buffered for the next feed().

    Single-owner: feed() must not be called concurrently.
    """

    def __init__(self):
        self._buf = b""
        self.bytes_dropped = 0

    def feed(self, chunk: bytes) -> list[bytes]:
        """Append raw bytes; return the wire bytes of every complete frame
        now available, in stream order, each of type bytes.

        chunk is any bytes-like object that bytes + chunk takes: bytes,
        bytearray or memoryview.  Anything else, a list of ints say, raises
        TypeError and leaves the stream as it was.
        """
        buf = self._buf + chunk
        frames: list[bytes] = []
        end = len(buf)
        pos = dropped = 0
        while end - pos >= HEADER_LEN:
            if buf[pos] & TYPE_RESERVED_MASK:
                pos += 1
                dropped += 1
                continue
            nxt = pos + HEADER_LEN + buf[pos + 1]
            if nxt > end:
                break
            frames.append(buf[pos:nxt])
            pos = nxt
        self.bytes_dropped += dropped
        self._buf = buf[pos:]
        return frames


def unpack_imu_raw(payload: bytes) -> tuple[int, ...]:
    """Unpack an IMU notification into its IMU_VALUES raw int16 values."""
    if len(payload) != IMU_PAYLOAD_LEN:
        raise WrongLengthError(
            f"IMU payload must be {IMU_PAYLOAD_LEN} bytes, got {len(payload)}")
    return _IMU_STRUCT.unpack(payload)


def scale_imu_values(raw: Sequence[int], t_us: int) -> ImuFrame:
    """Convert 10 raw integers (quat wxyz, accel xyz, gyro xyz) to an
    ImuFrame.  A zero-norm quaternion is not rejected here;
    fusion.MotionTracker holds the last orientation for such a frame."""
    qw, qx, qy, qz, ax, ay, az, gx, gy, gz = raw
    return tuple.__new__(ImuFrame, (
        t_us,
        (qw / QUAT_SCALE, qx / QUAT_SCALE, qy / QUAT_SCALE, qz / QUAT_SCALE),
        (ax / ACCEL_SCALE, ay / ACCEL_SCALE, az / ACCEL_SCALE),
        (gx / GYRO_SCALE, gy / GYRO_SCALE, gz / GYRO_SCALE),
    ))


def parse_emg_packet(payload: bytes, t_us: int) -> tuple[EmgFrame, EmgFrame]:
    """Decode a 16-byte EMG notification into two consecutive samples.

    The first 8 bytes are sample A at t_us; the last 8 are sample B,
    timestamped half an EMG period later.  That spacing is a known error:
    consecutive samples are a full period apart.  The benchmark's wire
    self-test pins the half period, so the fix lands with a change to the
    benchmark (ROADMAP item 3).
    """
    if len(payload) != EMG_PAYLOAD_LEN:
        raise WrongLengthError(
            f"EMG payload must be {EMG_PAYLOAD_LEN} bytes, got {len(payload)}")
    values = _EMG_STRUCT.unpack(payload)
    return (tuple.__new__(EmgFrame, (t_us, values[:EMG_CHANNELS])),
            tuple.__new__(EmgFrame, (t_us + EMG_PERIOD_US // 2,
                                     values[EMG_CHANNELS:])))


def parse_attribute_value_event(frame: bytes) -> tuple[int, int, bytes]:
    """(connection, attribute_handle, value) of a notification's wire bytes.

    Raises ProtocolError for any frame but an attribute-value event, and
    its subclass WrongLengthError when the frame's length disagrees with
    its header, its payload is under 5 bytes or its value does not end
    exactly where the payload ends.
    """
    n = len(frame)
    if (n < HEADER_LEN or frame[0] != TYPE_EVENT_BIT
            or frame[2] != ATTCLIENT_CLASS
            or frame[3] != ATTCLIENT_ATTRIBUTE_VALUE_EVENT):
        raise ProtocolError("not an attribute-value event")
    if n != HEADER_LEN + frame[1]:
        raise WrongLengthError("frame length disagrees with its header")
    if n < _VALUE_AT:
        raise WrongLengthError("attribute-value event payload too short")
    if n != _VALUE_AT + frame[_VALUE_AT - 1]:
        raise WrongLengthError("attribute value length disagrees with its "
                               "payload")
    # connection, then the little-endian uint16 handle
    return frame[4], frame[5] | frame[6] << 8, bytes(frame[_VALUE_AT:])


def dispatch_attribute(handle: int, value: bytes, t_us: int
                       ) -> list[Union[ImuFrame, EmgFrame]]:
    """Route a notification value by attribute handle to its parser.

    Values on the IMU and EMG handles are parsed; any other handle, such as
    the classifier's, is skipped.
    """
    if handle == IMU_DATA_HANDLE:
        return [scale_imu_values(unpack_imu_raw(value), t_us)]
    if handle in EMG_DATA_HANDLES:
        return [*parse_emg_packet(value, t_us)]
    return []
