"""Open Sound Control 1.0 message encoding and UDP transmission.

Messages only (no bundles or timetags; at a 50 Hz control rate single
messages suffice).  Every argument is a big-endian float32, the format's
native float: the contract below sends nothing else, so the encoder takes
floats only and a str or bytes argument raises rather than being encoded.

Address scheme, one namespace per performer (the public contract):

    /myo/{id}/emg     8 floats   channel envelopes in [0, 1]
    /myo/{id}/euler   3 floats   roll, pitch, yaw in radians
    /myo/{id}/accmag  1 float    acceleration magnitude in g
    /myo/{id}/gyrmag  1 float    rotation magnitude in deg/s
    /myo/{id}/qom     1 float    quantity of motion
    /myo/{id}/gate    1 float    master gain in [0, 1]
    /myo/{id}/synth   18 floats  8 freqs, 8 amps, drive, master gain

Messages are emitted in exactly that order on every control tick.

The encoder caches, per (address, arg count), the padded address and type
tags and a packer for the float32 arguments, in a bounded LRU cache; the
seven addresses of a performer are cached the same way.  A miss checks
the address as a first call would, and an address that fails the check
is never cached, so a bad address raises on every call.
"""

from __future__ import annotations

import functools
import logging
import operator
import socket
import struct
from dataclasses import dataclass

from .fusion import MotionState
from .mapping import EmgEnvelopes, SynthParams

logger = logging.getLogger(__name__)

# Entries per cache: every address in use repeats on every tick, so a
# bound far above an ensemble's 7 addresses per performer only guards
# memory against a caller that varies its addresses.
_CACHE_SIZE = 256


class OscError(Exception):
    pass


class InvalidAddressError(OscError):
    pass


@dataclass(frozen=True)
class OscMessage:
    address: str
    args: tuple[float, ...] = ()


def _pad4(data: bytes) -> bytes:
    """Null-terminate and zero-pad to a 4-byte boundary."""
    data += b"\x00"
    remainder = len(data) % 4
    if remainder:
        data += b"\x00" * (4 - remainder)
    return data


def _encode_address(address: str) -> bytes:
    if not address.startswith("/"):
        raise InvalidAddressError(f"address must start with '/': {address!r}")
    try:
        raw = address.encode("ascii")
    except UnicodeEncodeError:
        raise InvalidAddressError(
            f"address must be ASCII: {address!r}") from None
    if b"\x00" in raw:
        raise InvalidAddressError(f"embedded NUL in address: {address!r}")
    return _pad4(raw)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _header_and_packer(address: str, n: int):
    """(padded address + type tags, packer of n float32 args)."""
    header = _encode_address(address) + _pad4(b"," + b"f" * n)
    return header, struct.Struct(f">{n}f").pack


def encode_message(msg: OscMessage) -> bytes:
    """Encode to the OSC 1.0 wire format; total length is a multiple of 4.

    A float beyond the float32 range raises OverflowError (from struct).
    """
    header, pack = _header_and_packer(msg.address, len(msg.args))
    return header + pack(*msg.args)


# typed: True and 1 format differently but hash alike
@functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)
def _performer_addresses(performer_id: int) -> tuple[str, ...]:
    prefix = f"/myo/{performer_id}"
    return tuple(f"{prefix}/{name}" for name in
                 ("emg", "euler", "accmag", "gyrmag", "qom", "gate", "synth"))


def emit_pipeline(state: MotionState, env: EmgEnvelopes, params: SynthParams,
                  performer_id: int) -> list[OscMessage]:
    """One control tick's messages, in the documented stable order."""
    emg, euler, accmag, gyrmag, qom, gate, synth = _performer_addresses(
        performer_id)
    e = state.euler
    return [
        OscMessage(emg, tuple(env.env)),
        OscMessage(euler, (e.roll, e.pitch, e.yaw)),
        OscMessage(accmag, (state.accel_mag,)),
        OscMessage(gyrmag, (state.gyro_mag,)),
        OscMessage(qom, (state.qom,)),
        OscMessage(gate, (state.master_gain,)),
        OscMessage(synth, (*params.freqs, *params.amps,
                           params.drive, params.master_gain)),
    ]


class UdpSender:
    """Fire-and-forget datagram sender for a live stream.

    The host name is resolved by the first send that succeeds in resolving
    it, and that IPv4 address is used from then on: a name is not looked up
    again for every datagram.  Transport failures, a name that does not
    resolve and a datagram too large for the socket included, are counted
    in send_errors and swallowed: a performance must not halt on a network
    error.  An outage logs one warning when it starts and one, with its
    count of failed sends, when a send next succeeds.

    The port is any integer in 0-65535, numpy integers included, and is
    kept as a plain int; a float or a bool raises TypeError here, where
    the resolver would refuse it on every send.
    """

    def __init__(self, host: str, port: int):
        if isinstance(port, bool):
            raise TypeError(f"port must be an integer: {port!r}")
        try:
            port = int(operator.index(port))
        except TypeError:
            raise TypeError(f"port must be an integer: {port!r}") from None
        if not 0 <= port <= 0xFFFF:
            raise ValueError(f"port must be 0-65535: {port}")
        self.host = host
        self.port = port
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._address = None
        self.send_errors = 0
        self._outage_errors = 0

    def send(self, data: bytes) -> None:
        try:
            if self._address is None:
                self._address = socket.getaddrinfo(
                    self.host, self.port, socket.AF_INET,
                    socket.SOCK_DGRAM)[0][4]
            self._sock.sendto(data, self._address)
        except OSError as exc:  # socket.gaierror included
            self.send_errors += 1
            self._outage_errors += 1
            if self._outage_errors == 1:
                logger.warning("OSC send to %s:%d failed: %s; counting "
                               "failures until a send succeeds",
                               self.host, self.port, exc)
            return
        if self._outage_errors:
            logger.warning("OSC send to %s:%d recovered after %d failed sends",
                           self.host, self.port, self._outage_errors)
            self._outage_errors = 0

    def close(self) -> None:
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
