"""Open Sound Control 1.0 message encoding and UDP transmission.

Messages only (no bundles or timetags; at a 50 Hz control rate single
messages suffice).  Numeric arguments are sent as big-endian float32 —
the format's native float — plus int32 and string for completeness.

Address scheme, one namespace per performer (the public contract):

    /myo/{id}/emg     8 floats   channel envelopes in [0, 1]
    /myo/{id}/euler   3 floats   roll, pitch, yaw in radians
    /myo/{id}/accmag  1 float    acceleration magnitude in g
    /myo/{id}/gyrmag  1 float    rotation magnitude in deg/s
    /myo/{id}/qom     1 float    quantity of motion
    /myo/{id}/gate    1 float    master gain in [0, 1]
    /myo/{id}/synth   18 floats  8 freqs, 8 amps, drive, master gain

Messages are emitted in exactly that order on every control tick.
"""

from __future__ import annotations

import logging
import socket
import struct
from dataclasses import dataclass
from typing import Union

from .fusion import MotionState
from .mapping import EmgEnvelopes, SynthParams

logger = logging.getLogger(__name__)

MAX_DATAGRAM = 1472  # stays within a standard ethernet MTU

OscArg = Union[float, int, str]


class OscError(Exception):
    pass


class InvalidAddressError(OscError):
    pass


class UnsupportedArgTypeError(OscError):
    pass


class MessageTooLargeError(OscError):
    pass


@dataclass(frozen=True)
class OscMessage:
    address: str
    args: tuple[OscArg, ...] = ()


def _pad4(data: bytes) -> bytes:
    """Null-terminate and zero-pad to a 4-byte boundary."""
    data += b"\x00"
    remainder = len(data) % 4
    if remainder:
        data += b"\x00" * (4 - remainder)
    return data


def _encode_string(value: str) -> bytes:
    raw = value.encode("ascii")
    if b"\x00" in raw:
        raise InvalidAddressError("embedded NUL in OSC string")
    return _pad4(raw)


def encode_message(msg: OscMessage) -> bytes:
    """Encode to the OSC 1.0 wire format; total length is a multiple of 4."""
    if not msg.address or not msg.address.startswith("/"):
        raise InvalidAddressError(f"address must start with '/': {msg.address!r}")
    if any(ord(c) >= 0x80 for c in msg.address):
        raise InvalidAddressError(f"address must be ASCII: {msg.address!r}")
    out = _encode_string(msg.address)

    tags = ","
    payload = b""
    for arg in msg.args:
        if isinstance(arg, bool):
            raise UnsupportedArgTypeError("bool arguments are ambiguous")
        if isinstance(arg, float):
            tags += "f"
            payload += struct.pack(">f", arg)
        elif isinstance(arg, int):
            if not -2**31 <= arg < 2**31:
                raise UnsupportedArgTypeError(f"int32 out of range: {arg}")
            tags += "i"
            payload += struct.pack(">i", arg)
        elif isinstance(arg, str):
            tags += "s"
            payload += _encode_string(arg)
        else:
            raise UnsupportedArgTypeError(
                f"unsupported argument type {type(arg).__name__}")
    return out + _pad4(tags.encode("ascii")) + payload


def emit_pipeline(state: MotionState, env: EmgEnvelopes, params: SynthParams,
                  performer_id: int) -> list[OscMessage]:
    """One control tick's messages, in the documented stable order."""
    prefix = f"/myo/{performer_id}"
    e = state.euler
    return [
        OscMessage(f"{prefix}/emg", tuple(float(v) for v in env.env)),
        OscMessage(f"{prefix}/euler", (float(e.roll), float(e.pitch),
                                       float(e.yaw))),
        OscMessage(f"{prefix}/accmag", (float(state.accel_mag),)),
        OscMessage(f"{prefix}/gyrmag", (float(state.gyro_mag),)),
        OscMessage(f"{prefix}/qom", (float(state.qom),)),
        OscMessage(f"{prefix}/gate", (float(state.master_gain),)),
        OscMessage(f"{prefix}/synth",
                   tuple(float(f) for f in params.freqs)
                   + tuple(float(a) for a in params.amps)
                   + (float(params.drive), float(params.master_gain))),
    ]


class UdpSender:
    """Fire-and-forget datagram sender for a live stream.

    Transport failures are logged and swallowed: a performance must not
    halt on a transient network error.  Oversized datagrams are rejected
    before any send is attempted.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.send_errors = 0

    def send(self, data: bytes) -> None:
        if len(data) > MAX_DATAGRAM:
            raise MessageTooLargeError(
                f"datagram is {len(data)} bytes, max {MAX_DATAGRAM}")
        try:
            self._sock.sendto(data, (self.host, self.port))
        except OSError as exc:
            self.send_errors += 1
            logger.warning("OSC send to %s:%d failed: %s",
                           self.host, self.port, exc)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
