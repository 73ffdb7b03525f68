"""Wire-protocol tests: frame decoding, sensor scaling, stream resilience.

Frames are built from byte literals, as the dongle sends them."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myobridge import protocol
from myobridge.protocol import (
    BgapiFrame,
    BgapiStream,
    InvalidHeaderError,
    MsgType,
    TruncatedFrameError,
    WrongLengthError,
    decode_bgapi_frame,
    dispatch_attribute,
    parse_emg_packet,
    parse_imu_packet,
)


def frame_bytes(type_byte, class_id, command_id, payload=b""):
    """Header bytes (type, length, class, command) followed by the payload."""
    return bytes([type_byte, len(payload), class_id, command_id]) + payload


# --- framing ---------------------------------------------------------------

def test_decode_event_frame_golden():
    data = bytes.fromhex("80 01 04 05 07".replace(" ", ""))
    frame, consumed = decode_bgapi_frame(data)
    assert frame == BgapiFrame(MsgType.EVENT, 4, 5, b"\x07")
    assert consumed == 5


def test_decode_command_frame_zero_payload():
    # a command's wire form; read from the dongle it is a response
    frame, consumed = decode_bgapi_frame(bytes.fromhex("00000001"))
    assert frame == BgapiFrame(MsgType.RESPONSE, 0, 1, b"")
    assert consumed == 4


def test_decode_event_with_20_byte_payload():
    payload = bytes(range(20))
    data = bytes.fromhex("80140405") + payload
    frame, consumed = decode_bgapi_frame(data)
    assert frame.msg_type is MsgType.EVENT
    assert frame.payload == payload
    assert consumed == 24


def test_decode_response_classification():
    frame, _ = decode_bgapi_frame(bytes.fromhex("00020405aabb"))
    assert frame.msg_type is MsgType.RESPONSE
    frame, _ = decode_bgapi_frame(bytes.fromhex("80020405aabb"))
    assert frame.msg_type is MsgType.EVENT


def test_round_trip_random_frames():
    rng = random.Random(0xB6A9)
    for _ in range(1000):
        type_byte = rng.choice([0x00, 0x80])
        class_id, command_id = rng.randrange(256), rng.randrange(256)
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(256)))
        wire = frame_bytes(type_byte, class_id, command_id, payload)
        decoded, consumed = decode_bgapi_frame(wire)
        msg_type = MsgType.EVENT if type_byte else MsgType.RESPONSE
        assert decoded == BgapiFrame(msg_type, class_id, command_id, payload)
        assert consumed == len(wire)


def test_truncated_header_and_payload():
    with pytest.raises(TruncatedFrameError):
        decode_bgapi_frame(b"\x80\x01")
    with pytest.raises(TruncatedFrameError):
        decode_bgapi_frame(bytes.fromhex("80050405") + b"\x01\x02")


def test_invalid_header_reserved_bits():
    for type_byte in (0x01, 0x7F, 0x81, 0xFF):
        with pytest.raises(InvalidHeaderError):
            decode_bgapi_frame(bytes([type_byte, 0, 0, 0]))


def test_stream_concatenation_yields_all_frames():
    rng = random.Random(7)
    frames = [
        BgapiFrame(rng.choice([MsgType.EVENT, MsgType.RESPONSE]),
                   rng.randrange(256), rng.randrange(256),
                   bytes(rng.randrange(256) for _ in range(rng.randrange(40))))
        for _ in range(50)
    ]
    wire = b"".join(
        frame_bytes(0x80 if f.msg_type is MsgType.EVENT else 0x00,
                    f.class_id, f.command_id, f.payload)
        for f in frames)
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
    frames = stream.feed(b"\x13\x37" + good)
    assert frames == [BgapiFrame(MsgType.EVENT, 4, 5, b"\xAA")]
    assert stream.bytes_dropped == 2


def test_fuzz_random_bytes_never_overread_or_hang():
    rng = random.Random(0xF00D)
    for _ in range(200):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(512)))
        stream = BgapiStream()
        stream.feed(blob)  # must terminate without raising
        offset = 0
        while offset < len(blob):
            try:
                frame, nxt = decode_bgapi_frame(blob, offset)
            except (TruncatedFrameError, InvalidHeaderError):
                break
            assert nxt == offset + 4 + len(frame.payload)
            assert nxt <= len(blob)
            offset = nxt


def reference_feed(buf, chunk):
    """BgapiStream.feed as first written: a loop over decode_bgapi_frame
    that ends on TruncatedFrameError and drops a byte on each
    InvalidHeaderError.  Works on the bytearray buf in place and returns
    (frames, bytes dropped)."""
    buf.extend(chunk)
    frames = []
    pos = dropped = 0
    while True:
        try:
            frame, pos = decode_bgapi_frame(buf, pos)
        except TruncatedFrameError:
            break
        except InvalidHeaderError:
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
    for a, b in zip(bounds, bounds[1:]):
        frames = stream.feed(wire[a:b])
        want, dropped = reference_feed(ref_buf, wire[a:b])
        ref_dropped += dropped
        assert frames == want
        assert stream.bytes_dropped == ref_dropped
        assert bytes(stream._buf) == bytes(ref_buf)


# --- IMU packets -----------------------------------------------------------

def _imu_payload(*values):
    return struct.pack("<10h", *values)


def test_imu_scaling_golden():
    payload = _imu_payload(16384, 0, 0, 0, 2048, 0, 0, 0, 0, 0)
    frame = parse_imu_packet(payload, t_us=42)
    assert frame.t_us == 42
    assert frame.quat == (1.0, 0.0, 0.0, 0.0)
    assert frame.accel == (1.0, 0.0, 0.0)
    assert frame.gyro == (0.0, 0.0, 0.0)


def test_imu_zero_payload_not_rejected():
    frame = parse_imu_packet(bytes(20), t_us=0)
    assert frame.quat == (0.0, 0.0, 0.0, 0.0)
    assert frame.accel == (0.0, 0.0, 0.0)
    assert frame.gyro == (0.0, 0.0, 0.0)


def test_imu_gyro_scaling_golden():
    payload = _imu_payload(16384, 0, 0, 0, 0, 0, 0, 16, -16, 32)
    frame = parse_imu_packet(payload, t_us=0)
    assert frame.gyro == (1.0, -1.0, 2.0)


def test_imu_scaling_is_linear():
    rng = random.Random(99)
    for _ in range(200):
        v = rng.randrange(-16384, 16384)
        single = _imu_payload(v, v, v, v, v, v, v, v, v, v)
        double = _imu_payload(*(2 * v,) * 10)
        f1 = parse_imu_packet(single, 0)
        f2 = parse_imu_packet(double, 0)
        for a, b in zip(f1.quat + f1.accel + f1.gyro,
                        f2.quat + f2.accel + f2.gyro):
            assert b == pytest.approx(2 * a, abs=1e-12)


def test_imu_wrong_length():
    with pytest.raises(WrongLengthError):
        parse_imu_packet(bytes(19), 0)
    with pytest.raises(WrongLengthError):
        parse_imu_packet(bytes(21), 0)


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
    frame = BgapiFrame(MsgType.EVENT, protocol.ATTCLIENT_CLASS,
                       protocol.ATTCLIENT_ATTRIBUTE_VALUE_EVENT, payload)
    conn, handle, got = protocol.parse_attribute_value_event(frame)
    assert conn == 1
    assert handle == protocol.IMU_DATA_HANDLE
    assert got == value

