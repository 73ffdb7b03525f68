"""Dongle byte streams made from session records, as an armband sends them.

Each IMU record becomes one attribute-value event on the IMU handle, due at
the record's time.  EMG records are taken in pairs: the two 8-channel
samples are packed into one 16-byte notification, due once the second
sample is due, and the pairs cycle over the four EMG handles.

Decoded EMG timing differs from the log because of the decoder, not this
encoder: `protocol.parse_emg_packet` stamps the second sample of a pair
half an EMG period (2.5 ms) after the first, while logs space samples a
full period (5 ms) apart.  So a decoded stream matches its log in channel
values and order, not in the second sample's `t_us`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from myobridge import protocol

_EVENT_HEADER = bytes([protocol.TYPE_EVENT_BIT, 0, protocol.ATTCLIENT_CLASS,
                       protocol.ATTCLIENT_ATTRIBUTE_VALUE_EVENT])
_ATTR_HEAD = struct.Struct("<BHBB")  # connection, handle, type, value length
_IMU = struct.Struct("<10h")
_EMG = struct.Struct("<16b")
CONNECTION = 0
MATCH_WINDOW = 256  # how far past the last match a received value may land
BURST_BYTES = 2  # consecutive bytes one corruption flips


@dataclass(frozen=True)
class Notification:
    due_us: int      # when the generator makes it available
    handle: int
    value: bytes
    data: bytes      # the whole serial frame, possibly corrupted


def attribute_event(handle: int, value: bytes) -> bytes:
    payload = _ATTR_HEAD.pack(CONNECTION, handle, 0, len(value)) + value
    header = bytearray(_EVENT_HEADER)
    header[1] = len(payload)
    return bytes(header) + payload


def encode_records(records) -> list[Notification]:
    """Encode one performer's records as dongle notifications, in due order.

    A trailing unpaired EMG sample is not sent: the armband only sends pairs.
    """
    notes = []
    pending = None
    pair = 0
    for rec in records:
        if rec.kind == "imu":
            value = _IMU.pack(*rec.data)
            handle = protocol.IMU_DATA_HANDLE
        elif rec.kind == "emg":
            if pending is None:
                pending = rec
                continue
            value = _EMG.pack(*pending.data, *rec.data)
            handle = protocol.EMG_DATA_HANDLES[pair % len(
                protocol.EMG_DATA_HANDLES)]
            pair += 1
            pending = None
        else:
            continue
        notes.append(Notification(rec.t_us, handle, value,
                                  attribute_event(handle, value)))
    return notes


def corrupt(notes: list[Notification], rng: np.random.Generator,
            every: int) -> tuple[list[Notification], int]:
    """Flip BURST_BYTES consecutive bytes in one notification out of `every`.

    At least one notification is hit when `every` is non-zero, so a short
    stream is corrupt too.  The notifications hit, the offset and the bit
    pattern (never zero, so every hit byte changes) all come from rng.
    Returns the new list and the number of corrupt bytes.
    """
    n_hits = max(1, len(notes) // every) if every and notes else 0
    if n_hits == 0:
        return list(notes), 0
    hit = rng.choice(len(notes), size=n_hits, replace=False)
    offsets = rng.integers(0, 1 << 30, size=n_hits)
    masks = rng.integers(1, 256, size=(n_hits, BURST_BYTES))
    out = list(notes)
    for k, i in enumerate(hit.tolist()):
        data = bytearray(out[i].data)
        start = int(offsets[k]) % (len(data) - BURST_BYTES + 1)
        for b in range(BURST_BYTES):
            data[start + b] ^= int(masks[k, b])
        out[i] = Notification(out[i].due_us, out[i].handle, out[i].value,
                              bytes(data))
    return out, n_hits * BURST_BYTES


def decode_values(notes: list[Notification]) -> list[tuple[int, bytes]]:
    """(handle, value) of every attribute-value event a stream decodes to."""
    stream = protocol.BgapiStream()
    out = []
    for note in notes:
        for frame in stream.feed(note.data):
            try:
                _, handle, value = protocol.parse_attribute_value_event(frame)
            except protocol.ProtocolError:
                continue
            out.append((handle, value))
    return out


def match(sent: list[Notification], got: list[tuple[int, bytes]]
          ) -> list[int]:
    """Index into `sent` of each received (handle, value), or -1 if spurious.

    Received values are matched in order, each to the first equal
    notification at most MATCH_WINDOW places past the previous match, so a
    notification counts as decoded intact at most once.
    """
    keys = [(n.handle, n.value) for n in sent]
    out = []
    j = 0
    for item in got:
        found = -1
        for k in range(j, min(j + MATCH_WINDOW, len(keys))):
            if keys[k] == item:
                found = k
                break
        if found >= 0:
            j = found + 1
        out.append(found)
    return out


def roundtrip_ok(records, notes: list[Notification]) -> bool:
    """A clean stream decodes to the log's raw values, in the log's order.

    IMU values compare whole; EMG compares channels only (see module
    docstring for the second sample's timestamp).
    """
    want = []
    for rec in records:
        if rec.kind in ("imu", "emg"):
            want.append((rec.kind, tuple(rec.data)))
    if sum(1 for k, _ in want if k == "emg") % 2:
        last_emg = max(i for i, (k, _) in enumerate(want) if k == "emg")
        del want[last_emg]
    if decode_values(notes) != [(n.handle, n.value) for n in notes]:
        return False
    got = []
    for note in notes:
        for frame in protocol.dispatch_attribute(note.handle, note.value,
                                                 note.due_us):
            if isinstance(frame, protocol.ImuFrame):
                got.append(("imu", protocol.unpack_imu_raw(note.value)))
            else:
                got.append(("emg", tuple(frame.channels)))
    # the encoder sends an EMG pair when its second sample is due, so an IMU
    # record between the two samples comes out ahead of the pair: compare
    # each kind's sequence on its own
    return _by_kind(got) == _by_kind(want)


def _by_kind(items):
    return ([v for k, v in items if k == "imu"],
            [v for k, v in items if k == "emg"])
