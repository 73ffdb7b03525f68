"""Wire-protocol tests: framing, notification decoding, sensor scaling,
stream resilience.

Frames are built from byte literals, as the dongle sends them, and a frame
that feed returns is compared with the input bytes it came from."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myobridge import mapping, protocol, session
from myobridge.protocol import (
    BgapiStream,
    ProtocolError,
    WrongLengthError,
    dispatch_attribute,
    parse_attribute_value_event,
    parse_emg_packet,
)


def frame_bytes(type_byte, class_id, command_id, payload=b""):
    """Header bytes (type, length, class, command) followed by the payload."""
    return bytes([type_byte, len(payload), class_id, command_id]) + payload


# --- framing ---------------------------------------------------------------

def feed_once(data):
    """(frames, bytes dropped, bytes left buffered) of one feed on a new
    stream."""
    stream = BgapiStream()
    frames = stream.feed(data)
    return frames, stream.bytes_dropped, bytes(stream._buf)


def test_decode_event_frame_golden():
    data = bytes.fromhex("80 01 04 05 07".replace(" ", ""))
    assert feed_once(data) == ([data], 0, b"")


def test_decode_command_frame_zero_payload():
    # a command's wire form; read from the dongle it is a response
    data = bytes.fromhex("00000001")
    assert feed_once(data) == ([data], 0, b"")


def test_decode_event_with_20_byte_payload():
    wire = bytes.fromhex("80140405") + bytes(range(20))
    assert feed_once(wire) == ([wire], 0, b"")


def test_decode_response_classification():
    # the event bit alone tells a notification from a response to a command
    payload = bytes.fromhex("011c001b01aa")
    response, event = (frame_bytes(t, 4, 5, payload) for t in (0x00, 0x80))
    assert feed_once(response + event) == ([response, event], 0, b"")
    with pytest.raises(ProtocolError, match="not an attribute-value event"):
        parse_attribute_value_event(response)
    assert parse_attribute_value_event(event) == (1, 0x1C, b"\xaa")


def test_round_trip_random_frames():
    rng = random.Random(0xB6A9)
    for _ in range(1000):
        type_byte = rng.choice([0x00, 0x80])
        class_id, command_id = rng.randrange(256), rng.randrange(256)
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(256)))
        wire = frame_bytes(type_byte, class_id, command_id, payload)
        assert feed_once(wire) == ([wire], 0, b"")


def test_truncated_header_and_payload():
    for wire in (bytes.fromhex("80010405aa"),
                 bytes.fromhex("80050405") + bytes(range(5))):
        for cut in (2, len(wire) - 1):
            stream = BgapiStream()
            assert stream.feed(wire[:cut]) == []
            assert bytes(stream._buf) == wire[:cut]
            assert stream.feed(wire[cut:]) == [wire]
            assert stream.bytes_dropped == 0 and not stream._buf


def test_invalid_header_reserved_bits():
    for type_byte in (0x01, 0x7F, 0x81, 0xFF):
        assert feed_once(bytes([type_byte, 0, 0, 0])) == ([], 1, bytes(3))


def test_stream_concatenation_yields_all_frames():
    rng = random.Random(7)
    frames = [
        frame_bytes(rng.choice([0x80, 0x00]),
                    rng.randrange(256), rng.randrange(256),
                    bytes(rng.randrange(256) for _ in range(rng.randrange(40))))
        for _ in range(50)
    ]
    wire = b"".join(frames)
    assert BgapiStream().feed(wire) == frames

    # incremental decode, fed in awkward chunk sizes
    stream = BgapiStream()
    got = []
    for i in range(0, len(wire), 3):
        got.extend(stream.feed(wire[i:i + 3]))
    assert got == frames
    assert stream.bytes_dropped == 0


def test_stream_resynchronizes_after_garbage():
    good = bytes.fromhex("80010405aa")
    stream = BgapiStream()
    assert stream.feed(b"\x13\x37" + good) == [good]
    assert stream.bytes_dropped == 2


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3, framing: feed takes any 0x00/0x80 type byte as a "
    "header, so a corrupt 80 ff swallows the next 255 bytes unseen "
    "(16 frames out, 14 valid, bytes_dropped 0); the framing fix removes "
    "this marker"))
def test_corrupt_header_loses_no_valid_frame_unseen():
    value = _imu_payload(16384, 0, 0, 0, 0, 0, 2048, 0, 0, 0)
    payload = (struct.pack("<BHB", 0, protocol.IMU_DATA_HANDLE, 0x1B)
               + bytes([len(value)]) + value)
    event = frame_bytes(0x80, protocol.ATTCLIENT_CLASS,
                        protocol.ATTCLIENT_ATTRIBUTE_VALUE_EVENT, payload)
    assert len(event) == 29
    stream = BgapiStream()
    frames = stream.feed(b"\x80\xff" + event * 23)
    assert frames == [event] * 23
    assert stream.bytes_dropped == 2


def test_fuzz_random_bytes_never_overread_or_hang():
    rng = random.Random(0xF00D)
    for _ in range(200):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(512)))
        frames, dropped, left = feed_once(blob)  # terminates, never raises
        # every byte is framed once, dropped or still buffered
        framed = sum(map(len, frames))
        assert framed + dropped + len(left) == len(blob)
        assert left == blob[len(blob) - len(left):]


class _Truncated(Exception):
    pass


class _ReservedBits(Exception):
    pass


def _decode_frame(data, offset):
    """The framing rule as first written, one frame at offset: returns
    (frame, next offset); raises _Truncated when fewer bytes are
    available than the header declares and _ReservedBits when reserved
    type bits are set."""
    available = len(data) - offset
    if available < 4:
        raise _Truncated
    type_byte = data[offset]
    if type_byte & 0x7F:
        raise _ReservedBits
    total = 4 + data[offset + 1]
    if available < total:
        raise _Truncated
    return bytes(data[offset:offset + total]), offset + total


def reference_feed(buf, chunk):
    """BgapiStream.feed as first written: a loop over _decode_frame that
    ends on _Truncated and drops a byte on each _ReservedBits.  Works on
    the bytearray buf in place and returns (frames, bytes dropped)."""
    buf.extend(chunk)
    frames = []
    pos = dropped = 0
    while True:
        try:
            frame, pos = _decode_frame(buf, pos)
        except _Truncated:
            break
        except _ReservedBits:
            pos += 1
            dropped += 1
            continue
        frames.append(frame)
    del buf[:pos]
    return frames, dropped


# type bytes that pass the header check, and lengths of real notifications
# (attribute-value events with an EMG or an IMU value), among any others
_TYPE_BYTE = st.one_of(st.sampled_from([0x00, 0x80]), st.integers(0, 255))
_LEN_BYTE = st.one_of(st.sampled_from([0, 1, 5 + 16, 5 + 20]),
                      st.integers(0, 255))
_WIRE_PIECE = st.one_of(
    # a well-formed frame of a valid or corrupt type
    st.tuples(_TYPE_BYTE, st.binary(max_size=30)).map(
        lambda t: bytes([t[0], len(t[1]), 4, 5]) + t[1]),
    # a header whose declared length need not match what follows
    st.tuples(_TYPE_BYTE, _LEN_BYTE, st.binary(max_size=40)).map(
        lambda t: bytes([t[0], t[1]]) + t[2]),
    st.binary(max_size=6),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_WIRE_PIECE, max_size=25).map(b"".join),
       st.lists(st.integers(0, 1200), max_size=12))
def test_feed_matches_reference_after_every_chunk(wire, cuts):
    bounds = [0] + sorted(c for c in cuts if c <= len(wire)) + [len(wire)]
    stream = BgapiStream()
    ref_buf = bytearray()
    ref_dropped = 0
    for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
        # every bytes-like kind of chunk feed takes, in turn
        chunk = (bytes, bytearray, memoryview)[k % 3](wire[a:b])
        frames = stream.feed(chunk)
        want, dropped = reference_feed(ref_buf, wire[a:b])
        ref_dropped += dropped
        # a bytearray frame would compare equal to its bytes
        assert all(type(frame) is bytes for frame in frames)
        assert frames == want
        assert stream.bytes_dropped == ref_dropped
        assert bytes(stream._buf) == bytes(ref_buf)


def test_feed_returns_a_whole_notification_as_its_chunk():
    event = frame_bytes(0x80, 4, 5, bytes.fromhex("011c001b01aa"))
    stream = BgapiStream()
    (frame,) = stream.feed(event)
    assert frame is event


def test_feed_refuses_a_chunk_that_is_not_bytes_like():
    stream = BgapiStream()
    event = frame_bytes(0x80, 4, 5, bytes.fromhex("011c001b01aa"))
    assert stream.feed(event[:3]) == []
    with pytest.raises(TypeError):
        stream.feed(list(event[3:]))
    # the refused chunk left the stream as it was
    assert stream.feed(event[3:]) == [event]


# --- IMU packets -----------------------------------------------------------

def _imu_payload(*values):
    return struct.pack("<10h", *values)


def parse_imu(payload, t_us):
    """The ImuFrame of an IMU notification's value, as the bridge reads
    it."""
    (frame,) = dispatch_attribute(protocol.IMU_DATA_HANDLE, payload, t_us)
    return frame


def test_imu_scaling_golden():
    payload = _imu_payload(16384, 0, 0, 0, 2048, 0, 0, 0, 0, 0)
    frame = parse_imu(payload, t_us=42)
    assert frame.t_us == 42
    assert frame.quat == (1.0, 0.0, 0.0, 0.0)
    assert frame.accel == (1.0, 0.0, 0.0)
    assert frame.gyro == (0.0, 0.0, 0.0)


def test_imu_zero_payload_not_rejected():
    frame = parse_imu(bytes(20), t_us=0)
    assert frame.quat == (0.0, 0.0, 0.0, 0.0)
    assert frame.accel == (0.0, 0.0, 0.0)
    assert frame.gyro == (0.0, 0.0, 0.0)


def test_imu_gyro_scaling_golden():
    payload = _imu_payload(16384, 0, 0, 0, 0, 0, 0, 16, -16, 32)
    frame = parse_imu(payload, t_us=0)
    assert frame.gyro == (1.0, -1.0, 2.0)


def test_imu_scaling_is_linear():
    rng = random.Random(99)
    for _ in range(200):
        v = rng.randrange(-16384, 16384)
        single = _imu_payload(v, v, v, v, v, v, v, v, v, v)
        double = _imu_payload(*(2 * v,) * 10)
        f1 = parse_imu(single, 0)
        f2 = parse_imu(double, 0)
        for a, b in zip(f1.quat + f1.accel + f1.gyro,
                        f2.quat + f2.accel + f2.gyro):
            assert b == pytest.approx(2 * a, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(raw=st.tuples(*[st.integers(-2**15, 2**15 - 1)] * 10),
       t_us=st.integers(-2**63, 2**63 - 1))
def test_wire_and_log_scale_an_imu_sample_alike(raw, t_us):
    # one scaling for both routes: a notification's value and a log record
    logged = session.SessionRecord(t_us, "imu", raw)
    assert (parse_imu(struct.pack("<10h", *raw), t_us)
            == next(session.records_to_frames([logged])))


def test_imu_wrong_length():
    with pytest.raises(WrongLengthError):
        parse_imu(bytes(19), 0)
    with pytest.raises(WrongLengthError):
        parse_imu(bytes(21), 0)


# --- EMG packets -----------------------------------------------------------

def test_emg_all_zero():
    a, b = parse_emg_packet(bytes(16), t_us=0)
    assert a.channels == (0,) * 8
    assert b.channels == (0,) * 8


def test_emg_twos_complement_extremes():
    payload = b"\x7f" * 8 + b"\x80" * 8
    a, b = parse_emg_packet(payload, t_us=0)
    assert a.channels == (127,) * 8
    assert b.channels == (-128,) * 8


def test_emg_second_sample_half_period_later():
    a, b = parse_emg_packet(bytes(16), t_us=1_000_000)  # 200 Hz EMG
    assert a.t_us == 1_000_000
    assert b.t_us == 1_002_500


def test_emg_wrong_length():
    with pytest.raises(WrongLengthError):
        parse_emg_packet(bytes(15), 0)


# --- the sample layout -----------------------------------------------------

def test_sample_layout_agrees_with_itself():
    """Every module reads the raw sample layout from protocol's one block:
    the structs and payload lengths, session's log layouts and mapping's
    oscillators per EMG channel agree with its counts and bounds, and each
    bound is the widest value its struct packs."""
    imu, emg = protocol._IMU_STRUCT, protocol._EMG_STRUCT
    assert (protocol.IMU_VALUES, protocol.EMG_CHANNELS) == (10, 8)
    assert imu.size == protocol.IMU_PAYLOAD_LEN == 20
    assert emg.size == protocol.EMG_PAYLOAD_LEN == 16
    # a log record is t_us, its kind byte and the values of one IMU frame
    # or one EMG sample; an EMG notification holds two samples
    layouts = session._LAYOUTS
    assert {kind: (code, layout.format, layout.size)
            for kind, (code, layout) in layouts.items()} == {
        "imu": (1, f"<qB{protocol.IMU_VALUES}h", 29),
        "emg": (2, f"<qB{protocol.EMG_CHANNELS}b", 17)}
    int16, int8 = (protocol.INT16_MIN, protocol.INT16_MAX), (
        protocol.INT8_MIN, protocol.INT8_MAX)
    for packer, head, values, (lo, hi) in (
            (imu, [], protocol.IMU_VALUES, int16),
            (emg, [], 2 * protocol.EMG_CHANNELS, int8),
            (layouts["imu"][1], [0, 1], protocol.IMU_VALUES, int16),
            (layouts["emg"][1], [0, 2], protocol.EMG_CHANNELS, int8)):
        assert len(packer.unpack(packer.pack(*head, *[lo] * values))) == (
            len(head) + values)
        packer.pack(*head, *[hi] * values)
        for past in (lo - 1, hi + 1):
            with pytest.raises(struct.error):
                packer.pack(*head, *[past] * values)
    assert mapping.N_OSCILLATORS == protocol.EMG_CHANNELS
    assert mapping.EMG_FULL_SCALE == -protocol.INT8_MIN


# --- attribute dispatch ----------------------------------------------------

def test_dispatch_routes_by_handle():
    imu_payload = _imu_payload(16384, 0, 0, 0, 0, 0, 2048, 0, 0, 0)
    frames = dispatch_attribute(protocol.IMU_DATA_HANDLE, imu_payload, 10)
    assert len(frames) == 1
    assert frames[0].accel == (0.0, 0.0, 1.0)

    frames = dispatch_attribute(protocol.EMG_DATA_HANDLES[2], bytes(16), 10)
    assert len(frames) == 2

    assert dispatch_attribute(0x23, b"\x03\x01", 0) == []  # classifier
    assert dispatch_attribute(0x7777, bytes(20), 0) == []


def test_attribute_value_event_round_trip():
    value = _imu_payload(16384, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    payload = (struct.pack("<BHB", 1, protocol.IMU_DATA_HANDLE, 0x1B)
               + bytes([len(value)]) + value)
    frame = frame_bytes(0x80, protocol.ATTCLIENT_CLASS,
                        protocol.ATTCLIENT_ATTRIBUTE_VALUE_EVENT, payload)
    conn, handle, got = parse_attribute_value_event(frame)
    assert conn == 1
    assert handle == protocol.IMU_DATA_HANDLE
    assert got == value



_VALUE = _imu_payload(16384, 0, 0, 0, 0, 0, 0, 0, 0, 0)
_NOTE = (struct.pack("<BHB", 0, protocol.IMU_DATA_HANDLE, 0x1B)
         + bytes([len(_VALUE)]) + _VALUE)


@pytest.mark.parametrize("frame, error", [
    (frame_bytes(0x00, 4, 5, _NOTE), ProtocolError),  # a response
    (frame_bytes(0x80, 3, 5, _NOTE), ProtocolError),  # another class
    (frame_bytes(0x80, 4, 6, _NOTE), ProtocolError),  # another command
    (b"", ProtocolError),
    (b"\x80\x00\x04", ProtocolError),
    (frame_bytes(0x81, 4, 5, _NOTE), ProtocolError),  # reserved type bits
    (frame_bytes(0x80, 4, 5, _NOTE[:4]), WrongLengthError),
    (frame_bytes(0x80, 4, 5, _NOTE[:-1]), WrongLengthError),  # short value
    (frame_bytes(0x80, 4, 5, _NOTE)[:-1], WrongLengthError),  # length byte
    (frame_bytes(0x80, 4, 5, _NOTE) + b"\x00", WrongLengthError),
    # a 2-byte value, then 3 payload bytes past it
    (bytes.fromhex("800a0405001c001b020102eeeeee"), WrongLengthError),
], ids=["response", "class", "command", "empty", "3-bytes", "reserved-bits",
        "4-byte-payload", "short-value", "truncated", "overlong",
        "past-the-value"])
def test_attribute_value_event_refusals(frame, error):
    assert parse_attribute_value_event(frame_bytes(0x80, 4, 5, _NOTE)) == (
        0, protocol.IMU_DATA_HANDLE, _VALUE)
    with pytest.raises(ProtocolError) as caught:
        parse_attribute_value_event(frame)
    assert caught.type is error


# a notification header of a valid or corrupt type, class or command, or
# any bytes at all
_ANY_FRAME = st.one_of(
    st.tuples(st.sampled_from([0x80, 0x00, 0x81]), st.integers(0, 255),
              st.sampled_from([3, 4]), st.sampled_from([5, 6]),
              st.binary(max_size=30)).map(lambda t: bytes(t[:4]) + t[4]),
    st.binary(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(_ANY_FRAME)
def test_attribute_value_event_refuses_any_bytes_with_a_protocol_error(frame):
    try:
        _, _, value = parse_attribute_value_event(frame)
    except ProtocolError:
        return
    # accepted: a notification event whose length matches its header, with
    # a value of the declared length that ends the payload
    assert frame[:4] == bytes([0x80, len(frame) - 4, 4, 5])
    assert len(value) == frame[8] and value == frame[9:]
