"""Mapping tests: RMS envelope oracle, orientation map arithmetic, rate check,
separability."""

import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from myobridge.fusion import (
    EulerAngles, MotionState, MotionTracker, quat_to_euler)
from myobridge.mapping import (
    DRIVE_MAX,
    F_HI,
    F_LO,
    F_TOP,
    SPREAD_MAX,
    WINDOW_SAMPLES,
    EMG_FULL_SCALE,
    N_OSCILLATORS,
    NYQUIST_FRACTION,
    EnvelopeTracker,
    SynthParams,
    assemble_params,
    map_orientation,
)
from myobridge.protocol import (
    EMG_DATA_HANDLES, IMU_DATA_HANDLE, EmgFrame, ImuFrame, dispatch_attribute)
from myobridge.session import SessionRecord


def brute_force_env(samples, window):
    """Independent RMS oracle: zero-padded window, normalized by 128."""
    padded = [0] * max(0, window - len(samples)) + list(samples[-window:])
    rms = math.sqrt(sum(v * v for v in padded) / window)
    return min(1.0, rms / 128.0)


def envelopes_of(frames):
    """The envelopes a fresh EnvelopeTracker reads after these frames."""
    tracker = EnvelopeTracker()
    for frame in frames:
        tracker.push(frame)
    return tracker.envelopes()


def frames_from_channel(values, channel=0):
    out = []
    for i, v in enumerate(values):
        ch = [0] * 8
        ch[channel] = v
        out.append(EmgFrame(t_us=i * 5000, channels=tuple(ch)))
    return out


# --- EMG envelopes -----------------------------------------------------------

def test_envelope_all_zero():
    frames = frames_from_channel([0] * 16)
    assert envelopes_of(frames) == (0.0,) * 8


def test_envelope_alternating_full_scale():
    values = [127 if i % 2 == 0 else -127 for i in range(16)]
    env = envelopes_of(frames_from_channel(values, channel=3))
    assert env[3] == 0.9921875
    assert env[3] == brute_force_env(values, WINDOW_SAMPLES)
    assert env[0] == 0.0


def test_envelope_constant_64():
    env = envelopes_of(frames_from_channel([64] * 8, channel=1))
    assert env[1] == 0.5


def test_envelope_zero_pads_short_history():
    values = [127, 127, 127]
    env = envelopes_of(frames_from_channel(values, channel=0))
    assert env[0] == brute_force_env(values, WINDOW_SAMPLES)
    assert env[0] < 0.99


def test_envelope_matches_oracle_on_random_windows():
    import random
    rng = random.Random(21)
    for _ in range(100):
        values = [rng.randint(-128, 127) for _ in range(rng.randint(1, 30))]
        env = envelopes_of(frames_from_channel(values, channel=5))
        assert env[5] == brute_force_env(values, WINDOW_SAMPLES)


def reference_emg_envelope(history):
    """EnvelopeTracker.envelopes as first written, a function of the history
    that went channel by channel, accumulating the squares in a float."""
    n = WINDOW_SAMPLES
    recent = history[-n:]
    env = []
    for ch in range(N_OSCILLATORS):
        acc = 0.0
        for frame in recent:
            v = frame.channels[ch]
            acc += v * v
        rms = math.sqrt(acc / n)
        env.append(min(1.0, rms / EMG_FULL_SCALE))
    return tuple(env)


_INT8 = st.integers(-128, 127)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_INT8, min_size=8, max_size=8), max_size=20))
def test_envelope_matches_float_reference_on_8_channel_windows(rows):
    frames = [EmgFrame(t_us=i * 5000, channels=tuple(r))
              for i, r in enumerate(rows)]
    got = envelopes_of(frames)
    assert [struct.pack("<d", e) for e in got] == [
        struct.pack("<d", e) for e in reference_emg_envelope(frames)]


@pytest.mark.parametrize("channels, pushes", [
    # outside int8: the window's sums pass full scale
    ((200,) * 8, WINDOW_SAMPLES),
    ((200, -200, 129, -129, 300, 0, 1, -1), 1),
    # exactly full scale: sqrt(131072 / 8) / 128 is 1.0
    ((-128,) * 8, WINDOW_SAMPLES),
    ((127,) * 8, WINDOW_SAMPLES),
    # floats: min(1.0, nan) is 1.0
    ((math.nan, math.inf, -math.inf, 128.0, 127.5, 181.1, -1e300, 0.0),
     WINDOW_SAMPLES),
    ((math.nan, 0.5, 2.5, 1e-300, -0.0, 90.5, 181.0, 182.0), 3),
])
def test_envelope_clamp_returns_what_min_returned(channels, pushes):
    """The reference tests draw only int8 channels; the clamp must also
    return min(1.0, ...)'s float on channels outside them."""
    frames = [EmgFrame(t_us=i * 5000, channels=channels)
              for i in range(pushes)]
    got = envelopes_of(frames)
    assert [struct.pack("<d", e) for e in got] == [
        struct.pack("<d", e) for e in reference_emg_envelope(frames)]


def test_envelope_of_a_window_past_full_scale_is_exactly_one():
    frames = [EmgFrame(t_us=i * 5000, channels=(200,) * 8)
              for i in range(WINDOW_SAMPLES)]
    assert envelopes_of(frames) == (1.0,) * 8


def test_envelope_tracker_empty_is_silent():
    assert EnvelopeTracker().envelopes() == (0.0,) * 8


# --- orientation map ---------------------------------------------------------

def test_base_freq_geometric_mean_at_level_pitch():
    base, _, _ = map_orientation(EulerAngles(0.0, 0.0, 0.0))
    assert base == pytest.approx(F_LO * 2.0 ** 1.5, abs=1e-9)
    assert base == pytest.approx(math.sqrt(F_LO * F_HI), abs=1e-9)


def test_base_freq_endpoints():
    lo, _, _ = map_orientation(EulerAngles(0.0, -math.pi / 2, 0.0))
    hi, _, _ = map_orientation(EulerAngles(0.0, math.pi / 2, 0.0))
    assert lo == pytest.approx(F_LO, rel=1e-12)
    assert hi == pytest.approx(F_HI, rel=1e-12)


def test_base_freq_strictly_increasing_in_pitch():
    pitches = [(-math.pi / 2) + i * math.pi / 200 for i in range(201)]
    freqs = [map_orientation(EulerAngles(0, p, 0))[0] for p in pitches]
    assert all(b > a for a, b in zip(freqs, freqs[1:]))


def test_drive_clean_at_zero_roll():
    _, _, drive = map_orientation(EulerAngles(0.0, 0.0, 0.0))
    assert drive == 1.0


def test_drive_maximum_at_half_turn():
    _, _, drive = map_orientation(EulerAngles(math.pi, 0.0, 0.0))
    assert drive == pytest.approx(DRIVE_MAX)
    _, _, drive_neg = map_orientation(EulerAngles(-math.pi + 1e-9, 0.0, 0.0))
    assert drive_neg == pytest.approx(DRIVE_MAX, abs=1e-6)


def test_spread_endpoints():
    _, spread_lo, _ = map_orientation(EulerAngles(0.0, 0.0, -math.pi))
    _, spread_hi, _ = map_orientation(EulerAngles(0.0, 0.0, math.pi))
    assert spread_lo == 0.0
    assert spread_hi == pytest.approx(SPREAD_MAX)


# --- parameter assembly --------------------------------------------------------

def test_spread_zero_collapses_to_unison():
    env = (0.5,) * 8
    params = assemble_params(env, 220.0, 0.0, 1.0, 1.0)
    assert params.freqs == (220.0,) * 8


def test_harmonic_fan_golden():
    env = (1.0,) * 8
    params = assemble_params(env, 100.0, 0.5, 1.0, 1.0)
    assert params.freqs == (100.0, 150.0, 200.0, 250.0, 300.0, 350.0,
                            400.0, 450.0)


def test_freqs_nondecreasing_for_nonnegative_spread():
    env = (0.0,) * 8
    for spread in (0.0, 0.1, 0.5, 1.0):
        params = assemble_params(env, 150.0, spread, 1.0, 1.0)
        assert all(b >= a for a, b in zip(params.freqs, params.freqs[1:]))


def test_zero_envelopes_silence_amps():
    params = assemble_params((0.0,) * 8, 440.0, 0.2, 2.0, 1.0)
    assert params.amps == (0.0,) * 8


@pytest.mark.parametrize("base, spread, rate", [
    (220.0, 0.3, 44100.0),
    (100.0, math.inf, 44100.0),     # NaN first partial, inf above it
    (math.nan, 0.5, 44100.0),
    (220.0, math.nan, 44100.0),
    (-math.inf, 0.5, 44100.0),
    (22049.999999999996, 0.0, 44100.0),
])
def test_assemble_params_matches_reference_loop(base, spread, rate):
    """Bit for bit, non-finite partials included: none is rewritten."""
    env = (0.5,) * 8
    params = assemble_params(env, base, spread, 2.0, 0.5, rate)
    freqs = [base * (1.0 + k * spread) for k in range(N_OSCILLATORS)]
    assert [struct.pack("<d", f) for f in params.freqs] == [
        struct.pack("<d", f) for f in freqs]


@pytest.mark.parametrize("rate", [
    8000.0, 8800.0, 0.0, -44100.0, math.nan, math.inf])
def test_rate_that_cannot_hold_f_top_refused(rate):
    env = (0.5,) * 8
    with pytest.raises(ValueError, match="sample_rate.*8800 Hz"):
        assemble_params(env, 220.0, 0.3, 2.0, 0.5, rate)


@pytest.mark.parametrize("rate", [8800.000001, 44100, 48000.0])
def test_rate_above_the_minimum_accepted(rate):
    env = (0.5,) * 8
    params = assemble_params(env, 220.0, 0.3, 2.0, 0.5, rate)
    assert params.freqs[0] == 220.0


def test_f_top_is_the_extreme_corner():
    assert F_TOP == 3960.0
    assert F_TOP < NYQUIST_FRACTION * 44100
    base, spread, drive = map_orientation(
        EulerAngles(0.0, math.pi / 2, math.pi))
    params = assemble_params((0.0,) * 8, base, spread,
                             drive, 1.0)
    assert max(params.freqs) == 3960.0


_EXTREME_INT16 = st.sampled_from([0, 32767, -32767, -32768])


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(min_size=20, max_size=20),
    st.lists(_EXTREME_INT16, min_size=10, max_size=10).map(
        lambda v: struct.pack("<10h", *v))))
@example(bytes(20))
@example(struct.pack("<10h", *[32767] * 10))
@example(struct.pack("<10h", *[-32767] * 10))
def test_any_imu_payload_keeps_partials_in_range(payload):
    (frame,) = dispatch_attribute(IMU_DATA_HANDLE, payload, 0)
    state = MotionTracker().update(frame)
    base, spread, drive = map_orientation(state.euler)
    params = assemble_params((0.0,) * 8, base, spread,
                             drive, state.master_gain, 44100)
    assert all(F_LO <= f <= F_TOP for f in params.freqs)


# --- separability ---------------------------------------------------------------

def test_amps_respond_only_to_emg():
    euler = EulerAngles(0.3, 0.2, -1.0)
    base, spread, drive = map_orientation(euler)
    p1 = assemble_params((0.1,) * 8, base, spread, drive, 0.7)
    p2 = assemble_params((0.9,) * 8, base, spread, drive, 0.7)
    assert p1.amps != p2.amps
    assert p1.freqs == p2.freqs
    assert p1.drive == p2.drive
    assert p1.master_gain == p2.master_gain


def test_freqs_respond_only_to_orientation():
    env = (0.4,) * 8
    b1, s1, d1 = map_orientation(EulerAngles(0.0, -0.5, 0.5))
    b2, s2, d2 = map_orientation(EulerAngles(0.0, 0.8, -2.0))
    p1 = assemble_params(env, b1, s1, d1, 0.5)
    p2 = assemble_params(env, b2, s2, d2, 0.5)
    assert p1.freqs != p2.freqs
    assert p1.amps == p2.amps
    assert p1.master_gain == p2.master_gain


def test_drive_responds_only_to_roll():
    b1, s1, d1 = map_orientation(EulerAngles(0.0, 0.1, 0.2))
    b2, s2, d2 = map_orientation(EulerAngles(2.0, 0.1, 0.2))
    assert d1 != d2
    assert b1 == b2
    assert s1 == s2


def test_gate_reaches_only_master_gain():
    env = (0.4,) * 8
    p1 = assemble_params(env, 200.0, 0.3, 1.5, 0.0)
    p2 = assemble_params(env, 200.0, 0.3, 1.5, 1.0)
    assert p1.master_gain == 0.0 and p2.master_gain == 1.0
    assert p1.freqs == p2.freqs and p1.amps == p2.amps and p1.drive == p2.drive


# --- per-frame value types -----------------------------------------------------

_VALUE_TYPES = [
    (ImuFrame, (20_000, (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                (0.5, 0.0, -0.5))),
    (EmgFrame, (20_000, (1, -2, 3, -4, 5, -6, 7, -128))),
    (EulerAngles, (0.1, -0.2, 0.3)),
    (MotionState, (EulerAngles(0.1, -0.2, 0.3), 1.0, 2.0, 0.1, 3.5, 0.25)),
    (SynthParams, ((110.0,) * N_OSCILLATORS, (0.5,) * N_OSCILLATORS, 1.5,
                   0.25)),
    (SessionRecord, (20_000, "emg", (1, -2, 3, -4, 5, -6, 7, -128))),
]


@pytest.mark.parametrize("cls, fields", _VALUE_TYPES,
                         ids=[cls.__name__ for cls, _ in _VALUE_TYPES])
def test_value_types_are_immutable_values(cls, fields):
    """A tracker's state or a bank's previous parameters cannot be changed
    through a reference a caller kept."""
    value = cls(*fields)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    twin = cls(*fields)
    assert twin == value and hash(twin) == hash(value)
    last = cls._fields[-1]
    changed = value._replace(**{last: None})
    assert getattr(changed, last) is None
    assert changed != value and value == twin


def _live_tick_values():
    """(class, value) of each value a live tick builds, from the function
    that builds it."""
    imu_payload = struct.pack("<10h", 16384, 0, 0, 0, 2048, 0, 0,
                              160, 0, -160)
    (imu,) = dispatch_attribute(IMU_DATA_HANDLE, imu_payload, 20_000)
    emg_a, emg_b = dispatch_attribute(EMG_DATA_HANDLES[0],
                                      bytes(range(0, 256, 16)), 20_000)
    state = MotionTracker().update(imu)
    params = assemble_params((0.5,) * N_OSCILLATORS, 220.0, 0.3, 2.0,
                             state.master_gain)
    return [(ImuFrame, imu), (EmgFrame, emg_a), (EmgFrame, emg_b),
            (EulerAngles, quat_to_euler(imu.quat)),
            (MotionState, state), (EulerAngles, state.euler),
            (SynthParams, params)]


@pytest.mark.parametrize(
    "cls, value", _live_tick_values(),
    ids=["ImuFrame", "EmgFrame-a", "EmgFrame-b", "EulerAngles",
         "MotionState", "MotionState.euler", "SynthParams"])
def test_live_tick_values_are_exactly_their_types(cls, value):
    """The pipeline routes frames by isinstance, and a value built with
    tuple.__new__ and the wrong class would still be a tuple."""
    assert type(value) is cls
    twin = cls(*value)
    assert value == twin and hash(value) == hash(twin)
