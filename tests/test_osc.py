"""OSC wire-format tests against an independently written reference decoder."""

import logging
import math
import socket
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myobridge.fusion import EulerAngles, MotionState
from myobridge.mapping import SynthParams
from myobridge import osc
from myobridge.osc import (
    UdpSender,
    emit_pipeline,
    encode_message,
)


def decode_message_oracle(data):
    """Reference OSC 1.0 decoder, written from the format rules only."""
    assert len(data) % 4 == 0, "OSC messages are 4-byte aligned"

    def read_padded_string(buf, pos):
        end = buf.index(b"\x00", pos)
        value = buf[pos:end].decode("ascii")
        consumed = end - pos + 1
        consumed += (4 - consumed % 4) % 4
        return value, pos + consumed

    address, pos = read_padded_string(data, 0)
    tags, pos = read_padded_string(data, pos)
    assert tags.startswith(",")
    args = []
    for tag in tags[1:]:
        if tag == "f":
            args.append(struct.unpack(">f", data[pos:pos + 4])[0])
            pos += 4
        elif tag == "i":
            args.append(struct.unpack(">i", data[pos:pos + 4])[0])
            pos += 4
        elif tag == "s":
            value, pos = read_padded_string(data, pos)
            args.append(value)
        else:
            raise AssertionError(f"unexpected tag {tag}")
    assert pos == len(data)
    return address, tags, args


def f32(x):
    """The float32 the wire must carry, bit-exact."""
    return struct.unpack(">f", struct.pack(">f", x))[0]


# --- encoding -------------------------------------------------------------------

def test_golden_bare_address():
    assert encode_message(("/a", ())) == bytes.fromhex("2f6100002c000000")


def test_golden_qom_float():
    expected = bytes.fromhex("2f716f6d000000002c6600003f800000")
    assert encode_message(("/qom", (1.0,))) == expected


def test_emg_message_is_56_bytes_and_round_trips():
    values = (0.0, 0.125, 0.25, 0.5, 0.625, 0.75, 0.875, 1.0)
    data = encode_message(("/myo/1/emg", values))
    assert len(data) == 56
    address, tags, args = decode_message_oracle(data)
    assert address == "/myo/1/emg"
    assert tags == ",ffffffff"
    assert args == [f32(v) for v in values]


_FLOAT_ARGS = st.one_of(
    st.floats(width=32),  # float32 values: NaN, +-inf, -0.0, subnormals
    st.floats(min_value=-3.4e38, max_value=3.4e38),  # values that round
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-45, 1 / 3]),
)


def _bits(x):
    return struct.pack(">d", x)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FLOAT_ARGS, max_size=18))
def test_float_args_round_trip_bitwise(args):
    data = encode_message(("/myo/0/synth", tuple(args)))
    assert len(data) % 4 == 0
    address, tags, decoded = decode_message_oracle(data)
    assert address == "/myo/0/synth"
    assert tags == "," + "f" * len(args)
    assert [_bits(v) for v in decoded] == [_bits(f32(v)) for v in args]


def test_invalid_addresses():
    # the second call must check again: a refused address is never cached
    for bad in ("", "noslash", "/café", "/a\x00b"):
        for args in ((), (1.0,), (), (1.0,)):
            with pytest.raises(ValueError, match="address"):
                encode_message((bad, args))


def reference_encode(msg):
    """encode_message as first written, with no cache."""
    address, args = msg
    n = len(args)
    return (osc._encode_address(address) + osc._pad4(b"," + b"f" * n)
            + struct.pack(f">{n}f", *args))


def test_cache_eviction_changes_no_bytes():
    # more performers than either cache holds, visited twice, so the second
    # pass misses on every address; True and 1.0 format unlike 1
    ids = list(range(osc._CACHE_SIZE + 44)) + [True, 1.0, 1]
    env = (0.0, 0.1, 0.2, 1 / 3, 0.5, 2 / 3, 0.9, 1.0)
    for _ in range(2):
        for pid in ids:
            msgs = emit_pipeline(_state(0.7), env, _params(0.7), pid)
            assert [address for address, _ in msgs] == [
                f"/myo/{pid}/{name}" for name in
                ("emg", "euler", "accmag", "gyrmag", "qom", "gate", "synth")]
            for m in msgs:
                assert encode_message(m) == reference_encode(m)


def test_unsupported_arg_types():
    # nothing but floats goes on the wire
    for bad in ("hello", b"blob"):
        with pytest.raises(struct.error):
            encode_message(("/x", (1.0, bad)))
    for big in (1e39, -1e300):
        with pytest.raises(OverflowError):
            encode_message(("/x", (big,)))


# --- pipeline emission -------------------------------------------------------------

def _state(gain=1.0):
    return MotionState(euler=EulerAngles(0.0, 0.0, 0.0), accel_mag=1.0,
                       gyro_mag=0.0, qom=0.0, stillness_s=30.0,
                       master_gain=gain)


def _params(gain=1.0):
    return SynthParams(freqs=(220.0,) * 8, amps=(0.5,) * 8, drive=1.0,
                       master_gain=gain)


def test_emit_pipeline_message_count_and_order():
    msgs = emit_pipeline(_state(), (0.0,) * 8, _params(), 3)
    assert len(msgs) == 7
    assert [address for address, _ in msgs] == [
        "/myo/3/emg", "/myo/3/euler", "/myo/3/accmag", "/myo/3/gyrmag",
        "/myo/3/qom", "/myo/3/gate", "/myo/3/synth",
    ]


def test_emit_pipeline_identity_orientation():
    msgs = emit_pipeline(_state(), (0.0,) * 8, _params(), 0)
    assert dict(msgs)["/myo/0/euler"] == (0.0, 0.0, 0.0)


def test_emit_pipeline_muted_gate():
    msgs = emit_pipeline(_state(gain=0.0), (0.0,) * 8,
                         _params(gain=0.0), 0)
    assert dict(msgs)["/myo/0/gate"] == (0.0,)


def test_emit_pipeline_synth_args():
    msgs = emit_pipeline(_state(), (0.25,) * 8, _params(), 0)
    address, args = msgs[-1]
    assert address == "/myo/0/synth"
    assert len(args) == 18
    assert args[:8] == (220.0,) * 8
    assert args[8:16] == (0.5,) * 8
    assert args[16:] == (1.0, 1.0)


def test_emit_pipeline_all_encodable_and_aligned():
    msgs = emit_pipeline(_state(), (0.5,) * 8, _params(), 12)
    for m in msgs:
        data = encode_message(m)
        assert len(data) % 4 == 0
        address, _, _ = decode_message_oracle(data)
        assert address == m[0]


# one tick with values that round in float32 and a -0.0 roll
_GOLDEN_TICK = (
    "2f6d796f2f322f656d6700002c6666666666666666000000000000003dcccccd"
    "3e4ccccd3eaaaaab3f0000003f2aaaab3f6666663f800000",
    "2f6d796f2f322f65756c6572000000002c66666600000000800000003dcccccd"
    "c0200000",
    "2f6d796f2f322f6163636d61670000002c6600003f8147ae",
    "2f6d796f2f322f6779726d61670000002c66000042f6cccd",
    "2f6d796f2f322f716f6d00002c6600003e99999a",
    "2f6d796f2f322f67617465002c6600003f333333",
    "2f6d796f2f322f73796e7468000000002c666666666666666666666666666666"
    "66666600435c199a438f10a443b0147b43d1185243f21c2944099000441a11ec"
    "442a93d7000000003dcccccd3e4ccccd3eaaaaab3f0000003f2aaaab3f666666"
    "3f8000003fa666663f333333",
)


def test_emit_and_encode_one_tick_golden():
    env = (0.0, 0.1, 0.2, 1 / 3, 0.5, 2 / 3, 0.9, 1.0)
    state = MotionState(euler=EulerAngles(-0.0, 0.1, -2.5), accel_mag=1.01,
                        gyro_mag=123.4, qom=0.3, stillness_s=12.5,
                        master_gain=0.7)
    params = SynthParams(freqs=tuple(220.1 * (1 + k * 0.3) for k in range(8)),
                         amps=env, drive=1.3, master_gain=0.7)
    grams = [encode_message(m).hex()
             for m in emit_pipeline(state, env, params, 2)]
    assert grams == list(_GOLDEN_TICK)


# --- UDP transport ------------------------------------------------------------------

def test_loopback_round_trip():
    receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    receiver.bind(("127.0.0.1", 0))
    receiver.settimeout(2.0)
    port = receiver.getsockname()[1]
    payload = encode_message(("/qom", (1.0,)))
    with UdpSender("127.0.0.1", port) as sender:
        sender.send(payload)
    got, _ = receiver.recvfrom(4096)
    receiver.close()
    assert got == payload


def test_unresolvable_host_logged_not_raised(caplog):
    with caplog.at_level(logging.WARNING, logger="myobridge.osc"):
        with UdpSender("host.invalid.", 9000) as sender:
            sender.send(b"abcd")
            sender.send(b"abcd")
            assert sender.send_errors == 2
    assert "failed" in caplog.text


def _datagram(n):
    """Datagram number n, as FlakySocket reads it back."""
    return n.to_bytes(4, "big")


class FlakySocket:
    """Stands in for a UDP socket that UdpSender connects.

    A datagram is named by its number (_datagram): a send of one numbered
    in `fail` raises OSError, in `refused` ConnectionRefusedError (an
    earlier datagram's ICMP port-unreachable).  The first `refuse`
    connects raise."""

    def __init__(self, fail=(), refused=(), refuse=0):
        self.fail = set(fail)
        self.refused = set(refused)
        self.refuse = refuse
        self.peer = None
        self.connects = []
        self.tries = 0
        self.sent = []
        self.addresses = []

    def connect(self, address):
        self.connects.append(address)
        if len(self.connects) <= self.refuse:
            raise OSError("network is unreachable")
        self.peer = address

    def send(self, data):
        self.tries += 1
        n = int.from_bytes(data, "big")
        if n in self.fail:
            raise OSError("network is unreachable")
        if n in self.refused:
            raise ConnectionRefusedError("connection refused")
        self.sent.append(data)
        self.addresses.append(self.peer)

    def close(self):
        pass


def _flaky_sender(host, **flaky):
    sender = UdpSender(host, 9)
    sender._sock.close()
    sender._sock = FlakySocket(**flaky)
    return sender


def test_host_name_resolved_once_and_numeric_address_sent(monkeypatch):
    lookups = []
    real_getaddrinfo = socket.getaddrinfo

    def counting_getaddrinfo(*args, **kwargs):
        lookups.append(args[0])
        return real_getaddrinfo(*args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", counting_getaddrinfo)
    with _flaky_sender("localhost") as sender:
        for n in range(1, 101):
            sender.send(_datagram(n))
        assert sender._sock.addresses == [("127.0.0.1", 9)] * 100
    assert lookups == ["localhost"]


def test_unresolved_name_is_looked_up_again_on_each_send(monkeypatch):
    real_getaddrinfo = socket.getaddrinfo
    calls = []

    def resolves_on_third_try(host, *args, **kwargs):
        calls.append(host)
        if len(calls) < 3:
            raise socket.gaierror(socket.EAI_NONAME, "not known")
        return real_getaddrinfo("127.0.0.1", *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", resolves_on_third_try)
    with _flaky_sender("performer-hub.local") as sender:
        for n in range(1, 6):
            sender.send(_datagram(n))
        assert sender.send_errors == 2
        assert sender._sock.addresses == [("127.0.0.1", 9)] * 3
    assert len(calls) == 3


def test_failed_connect_is_tried_again_with_a_fresh_lookup(monkeypatch):
    real_getaddrinfo = socket.getaddrinfo
    lookups = []

    def counting_getaddrinfo(*args, **kwargs):
        lookups.append(args[0])
        return real_getaddrinfo(*args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", counting_getaddrinfo)
    with _flaky_sender("localhost", refuse=1) as sender:
        for n in range(1, 4):
            sender.send(_datagram(n))
        assert sender.send_errors == 1
        assert sender._sock.connects == [("127.0.0.1", 9)] * 2
        assert sender._sock.sent == [_datagram(2), _datagram(3)]
    assert lookups == ["localhost"] * 2


def test_refused_datagram_costs_one_send_and_is_not_an_error(caplog):
    with caplog.at_level(logging.WARNING, logger="myobridge.osc"):
        with _flaky_sender("127.0.0.1", refused={2, 3}) as sender:
            for n in range(1, 5):
                sender.send(_datagram(n))
            assert sender.send_errors == 0
            assert sender._sock.tries == 4
            assert sender._sock.sent == [_datagram(1), _datagram(4)]
    assert caplog.records == []


class _CountingSocket:
    """A real socket whose send calls are counted."""

    def __init__(self, sock):
        self.sock, self.sends = sock, 0

    def send(self, data):
        self.sends += 1
        return self.sock.send(data)

    def __getattr__(self, name):
        return getattr(self.sock, name)


def test_port_nobody_listens_on_is_not_an_error(caplog):
    # each datagram's ICMP port-unreachable reaches the connected socket
    # as an error on the next send
    closed = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    closed.bind(("127.0.0.1", 0))
    port = closed.getsockname()[1]
    closed.close()
    with caplog.at_level(logging.WARNING, logger="myobridge.osc"):
        with UdpSender("127.0.0.1", port) as sender:
            sender._sock = _CountingSocket(sender._sock)
            for _ in range(10):
                sender.send(b"abcd")
            assert sender.send_errors == 0
            # a refused send is not tried again
            assert sender._sock.sends <= 10
    assert caplog.records == []


@pytest.mark.parametrize("port", [-1, 0, 65536, 70000])
def test_port_out_of_range_rejected_at_construction(port):
    # the resolver would wrap 70000 to 4464 without a word; a socket
    # connected to port 0 sends to it without an error
    with pytest.raises(ValueError, match="port"):
        UdpSender("127.0.0.1", port)


@pytest.mark.parametrize("port", [9000.0, 9000.5, True])
def test_port_that_is_not_an_integer_rejected_at_construction(port):
    # each send failed in getaddrinfo and was counted as an outage
    with pytest.raises(TypeError, match="port"):
        UdpSender("127.0.0.1", port)


@pytest.mark.parametrize("host", [123, None, b"127.0.0.1"])
def test_host_that_is_not_a_str_rejected_at_construction(host):
    # 123 raised TypeError out of the first send, past its OSError
    # handler; None sent to 127.0.0.1 without a word
    with pytest.raises(TypeError, match="host"):
        UdpSender(host, 9)


def test_numpy_integer_port_sends():
    receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    receiver.bind(("127.0.0.1", 0))
    receiver.settimeout(2.0)
    port = np.int64(receiver.getsockname()[1])
    with UdpSender("127.0.0.1", port) as sender:
        assert type(sender.port) is int
        sender.send(b"abcd")
        assert sender.send_errors == 0
    got, _ = receiver.recvfrom(4096)
    receiver.close()
    assert got == b"abcd"


def test_send_outage_logs_its_start_and_its_end_only(caplog):
    # 350 failed sends are one second of a dropped network for one performer
    fail = set(range(2, 352)) | {400, 401, 402}
    with caplog.at_level(logging.WARNING, logger="myobridge.osc"):
        with _flaky_sender("127.0.0.1", fail=fail) as sender:
            for n in range(1, 411):
                sender.send(_datagram(n))
            assert sender.send_errors == 353
            assert len(sender._sock.sent) == 410 - 353
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 4
    assert "failed" in lines[0] and "failed" in lines[2]
    assert "after 350 failed sends" in lines[1]
    assert "after 3 failed sends" in lines[3]
