"""Mapping tests: RMS envelope oracle, orientation map arithmetic, separability."""

import logging
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myobridge.fusion import EulerAngles
from myobridge.mapping import (
    DRIVE_MAX,
    F_HI,
    F_LO,
    SPREAD_MAX,
    WINDOW_SAMPLES,
    EMG_FULL_SCALE,
    N_OSCILLATORS,
    NYQUIST_FRACTION,
    EmgEnvelopes,
    EnvelopeTracker,
    assemble_params,
    emg_envelope,
    map_orientation,
)
from myobridge.protocol import EmgFrame


def brute_force_env(samples, window):
    """Independent RMS oracle: zero-padded window, normalized by 128."""
    padded = [0] * max(0, window - len(samples)) + list(samples[-window:])
    rms = math.sqrt(sum(v * v for v in padded) / window)
    return min(1.0, rms / 128.0)


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
    assert emg_envelope(frames).env == (0.0,) * 8


def test_envelope_alternating_full_scale():
    values = [127 if i % 2 == 0 else -127 for i in range(16)]
    env = emg_envelope(frames_from_channel(values, channel=3))
    assert env.env[3] == 0.9921875
    assert env.env[3] == brute_force_env(values, WINDOW_SAMPLES)
    assert env.env[0] == 0.0


def test_envelope_constant_64():
    env = emg_envelope(frames_from_channel([64] * 8, channel=1))
    assert env.env[1] == 0.5


def test_envelope_zero_pads_short_history():
    values = [127, 127, 127]
    env = emg_envelope(frames_from_channel(values, channel=0))
    assert env.env[0] == brute_force_env(values, WINDOW_SAMPLES)
    assert env.env[0] < 0.99


def test_envelope_matches_oracle_on_random_windows():
    import random
    rng = random.Random(21)
    for _ in range(100):
        values = [rng.randint(-128, 127) for _ in range(rng.randint(1, 30))]
        env = emg_envelope(frames_from_channel(values, channel=5))
        assert env.env[5] == brute_force_env(values, WINDOW_SAMPLES)


def reference_emg_envelope(history):
    """emg_envelope as first written: channel by channel, accumulating the
    squares in a float."""
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
    got = emg_envelope(frames).env
    assert [struct.pack("<d", e) for e in got] == [
        struct.pack("<d", e) for e in reference_emg_envelope(frames)]


def test_envelope_tracker_matches_function():
    tracker = EnvelopeTracker()
    values = [10, -50, 127, 3, -90, 64, 64, -64, 12, -128]
    frames = frames_from_channel(values, channel=2)
    for f in frames:
        tracker.push(f)
    assert tracker.envelopes() == emg_envelope(frames)


def test_envelope_tracker_empty_is_silent():
    assert EnvelopeTracker().envelopes().env == (0.0,) * 8


def test_envelopes_validate():
    with pytest.raises(ValueError):
        EmgEnvelopes(env=(0.5,) * 7)
    with pytest.raises(ValueError):
        EmgEnvelopes(env=(1.5,) + (0.0,) * 7)


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
    env = EmgEnvelopes(env=(0.5,) * 8)
    params = assemble_params(env, 220.0, 0.0, 1.0, 1.0)
    assert params.freqs == (220.0,) * 8


def test_harmonic_fan_golden():
    env = EmgEnvelopes(env=(1.0,) * 8)
    params = assemble_params(env, 100.0, 0.5, 1.0, 1.0)
    assert params.freqs == (100.0, 150.0, 200.0, 250.0, 300.0, 350.0,
                            400.0, 450.0)


def test_freqs_nondecreasing_for_nonnegative_spread():
    env = EmgEnvelopes(env=(0.0,) * 8)
    for spread in (0.0, 0.1, 0.5, 1.0):
        params = assemble_params(env, 150.0, spread, 1.0, 1.0)
        assert all(b >= a for a, b in zip(params.freqs, params.freqs[1:]))


def test_zero_envelopes_silence_amps():
    params = assemble_params(EmgEnvelopes(env=(0.0,) * 8), 440.0, 0.2, 2.0, 1.0)
    assert params.amps == (0.0,) * 8


def test_nyquist_clamp_warns(caplog):
    env = EmgEnvelopes(env=(1.0,) * 8)
    with caplog.at_level("WARNING", logger="myobridge.mapping"):
        params = assemble_params(env, 8000.0, 0.5, 1.0, 1.0,
                                 sample_rate=44100.0)
    assert all(f < 22050.0 for f in params.freqs)
    # partials 24000..36000 land on the clamp value; 8000..20000 pass through
    assert params.freqs[4:] == (0.45 * 44100.0,) * 4
    assert params.freqs[:4] == (8000.0, 12000.0, 16000.0, 20000.0)
    assert "Nyquist" in caplog.text


def reference_assemble_params(env, base_freq, spread, drive, master_gain,
                              sample_rate):
    """assemble_params' partials as first written: one loop that clamps
    each partial as it goes.  Returns (freqs, number clamped)."""
    limit = NYQUIST_FRACTION * sample_rate
    freqs = []
    clamped = 0
    for k in range(N_OSCILLATORS):
        f = base_freq * (1.0 + k * spread)
        if f >= sample_rate / 2.0:
            clamped += 1
            f = limit
        freqs.append(f)
    return tuple(freqs), clamped


@pytest.mark.parametrize("base, spread, rate", [
    (220.0, 0.3, 44100.0),
    (3000.0, 0.5, 8000.0),          # only the upper partials clamp
    (100.0, math.inf, 44100.0),     # NaN first partial, inf above it
    (math.nan, 0.5, 44100.0),
    (220.0, math.nan, 44100.0),
    (220.0, 0.5, math.nan),
    (-math.inf, 0.5, 44100.0),
    (22050.0, 0.0, 44100.0),        # exactly Nyquist clamps
    (22049.999999999996, 0.0, 44100.0),
])
def test_assemble_params_matches_reference_loop(caplog, base, spread, rate):
    env = EmgEnvelopes(env=(0.5,) * 8)
    with caplog.at_level(logging.WARNING, logger="myobridge.mapping"):
        params = assemble_params(env, base, spread, 2.0, 0.5, rate)
    freqs, clamped = reference_assemble_params(env, base, spread, 2.0, 0.5,
                                               rate)
    assert [struct.pack("<d", f) for f in params.freqs] == [
        struct.pack("<d", f) for f in freqs]
    assert len(caplog.records) == (1 if clamped else 0)
    if clamped:
        assert f"clamped {clamped} partial(s)" in caplog.text


# --- separability ---------------------------------------------------------------

def test_amps_respond_only_to_emg():
    euler = EulerAngles(0.3, 0.2, -1.0)
    base, spread, drive = map_orientation(euler)
    p1 = assemble_params(EmgEnvelopes(env=(0.1,) * 8), base, spread, drive, 0.7)
    p2 = assemble_params(EmgEnvelopes(env=(0.9,) * 8), base, spread, drive, 0.7)
    assert p1.amps != p2.amps
    assert p1.freqs == p2.freqs
    assert p1.drive == p2.drive
    assert p1.master_gain == p2.master_gain


def test_freqs_respond_only_to_orientation():
    env = EmgEnvelopes(env=(0.4,) * 8)
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
    env = EmgEnvelopes(env=(0.4,) * 8)
    p1 = assemble_params(env, 200.0, 0.3, 1.5, 0.0)
    p2 = assemble_params(env, 200.0, 0.3, 1.5, 1.0)
    assert p1.master_gain == 0.0 and p2.master_gain == 1.0
    assert p1.freqs == p2.freqs and p1.amps == p2.amps and p1.drive == p2.drive
