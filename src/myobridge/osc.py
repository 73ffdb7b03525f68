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

Messages are emitted in exactly that order on every control tick, each as
a plain (address, args) pair.

emit_pipeline formats a performer's seven addresses on every tick.  The
encoder's one cache, a bounded LRU, holds per (address, arg count) the
padded address and type tags and a packer for the float32 arguments.  A
miss checks the address as a first call would, and an address that fails
the check is never cached, so a bad address raises on every call.

UdpSender connects its socket once and sends each datagram with send(),
skipping sendto()'s per-datagram address handling.  A connected socket
reports an earlier datagram's ICMP port-unreachable as a refused send,
which is not retried: every tick resends the whole state.
"""

from __future__ import annotations

import functools
import logging
import operator
import socket
import struct

from .fusion import MotionState
from .mapping import SynthParams

logger = logging.getLogger(__name__)

# Entries in the encoder cache: every address in use repeats on every
# tick, so a bound far above an ensemble's 7 addresses per performer only
# guards memory against a caller that varies its addresses.
_CACHE_SIZE = 256


def _pad4(data: bytes) -> bytes:
    """Null-terminate and zero-pad to a 4-byte boundary: 1 to 4 NULs."""
    return data + bytes(4 - len(data) % 4)


def _encode_address(address: str) -> bytes:
    if not address.startswith("/"):
        raise ValueError(f"address must start with '/': {address!r}")
    try:
        raw = address.encode("ascii")
    except UnicodeEncodeError:
        raise ValueError(f"address must be ASCII: {address!r}") from None
    if b"\x00" in raw:
        raise ValueError(f"embedded NUL in address: {address!r}")
    return _pad4(raw)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _header_and_packer(address: str, n: int):
    """(padded address + type tags, packer of n float32 args)."""
    header = _encode_address(address) + _pad4(b"," + b"f" * n)
    return header, struct.Struct(f">{n}f").pack


def encode_message(msg: tuple[str, tuple[float, ...]]) -> bytes:
    """Encode an (address, args) pair to OSC 1.0; length a multiple of 4.

    A float beyond the float32 range raises OverflowError (from struct).
    """
    address, args = msg
    header, pack = _header_and_packer(address, len(args))
    return header + pack(*args)


def emit_pipeline(state: MotionState, env: tuple[float, ...],
                  params: SynthParams, performer_id: int) -> list[tuple]:
    """One control tick's (address, args) pairs, in the documented order."""
    prefix, e = f"/myo/{performer_id}/", state.euler
    return [
        (prefix + "emg", env),
        (prefix + "euler", (e.roll, e.pitch, e.yaw)),
        (prefix + "accmag", (state.accel_mag,)),
        (prefix + "gyrmag", (state.gyro_mag,)),
        (prefix + "qom", (state.qom,)),
        (prefix + "gate", (state.master_gain,)),
        (prefix + "synth", (*params.freqs, *params.amps,
                            params.drive, params.master_gain)),
    ]


class UdpSender:
    """Fire-and-forget datagram sender for a live stream.

    The first send resolves the host to an IPv4 address and connects the
    socket to it.  The address is kept only once the connect succeeds, so
    the next send tries a failed lookup or connect again, with a fresh
    lookup; once connected, no send looks the name up.  Each datagram is
    sent once.  ConnectionRefusedError is an earlier datagram's ICMP
    port-unreachable, reported late by the connected socket in place of
    this send: a receiver that is not listening is not an error, and the
    datagram lost is replaced by the next tick's.  Any other failed send
    (a datagram too large for the socket, say) and a send whose lookup or
    connect fails count in send_errors and are swallowed: a performance
    must not halt on a network error.  An outage logs one warning when it
    starts and one, with its count of failed sends, when a send next
    succeeds.

    The host is a str, a name or a numeric IPv4 address; anything else
    raises TypeError here, where the resolver would raise it out of the
    first send (an int or bytes) or quietly send to 127.0.0.1 (None).
    The port is any integer in 1-65535, numpy integers included, and is
    kept as a plain int; a float or a bool raises TypeError here, where
    the resolver would refuse it on every send.  Port 0 raises ValueError
    here: no datagram can be sent to it, yet a socket connected to it
    sends without an error.
    """

    def __init__(self, host: str, port: int):
        if not isinstance(host, str):
            raise TypeError(f"host must be a str: {host!r}")
        if isinstance(port, bool):
            raise TypeError(f"port must be an integer: {port!r}")
        try:
            port = int(operator.index(port))
        except TypeError:
            raise TypeError(f"port must be an integer: {port!r}") from None
        if not 0 < port <= 0xFFFF:
            raise ValueError(f"port must be 1-65535: {port}")
        self.host = host
        self.port = port
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._address = None
        self.send_errors = 0
        self._outage_errors = 0

    def send(self, data: bytes) -> None:
        try:
            if self._address is None:
                address = socket.getaddrinfo(
                    self.host, self.port, socket.AF_INET,
                    socket.SOCK_DGRAM)[0][4]
                self._sock.connect(address)
                self._address = address
            self._sock.send(data)
        except ConnectionRefusedError:
            return
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
