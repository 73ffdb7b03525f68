"""Renderer tests: FFT spectral oracle, output bound, phase continuity,
and an independent struct-level WAV reader oracle."""

import struct

import numpy as np
import pytest

from myobridge.mapping import SynthParams
from myobridge.synth import (
    AudioBlock,
    LengthMismatchError,
    OscillatorBank,
    RateMismatchError,
    mix_performers,
    render_block,
    write_wav,
)


def make_params(freqs=None, amps=None, drive=1.0, master_gain=1.0):
    return SynthParams(
        freqs=tuple(freqs if freqs is not None else [440.0] * 8),
        amps=tuple(amps if amps is not None else [1.0] * 8),
        drive=drive,
        master_gain=master_gain,
    )


def read_wav_oracle(path):
    """Independent RIFF/WAVE reader built from the container spec."""
    raw = open(path, "rb").read()
    assert raw[0:4] == b"RIFF"
    riff_size = struct.unpack("<I", raw[4:8])[0]
    assert riff_size == len(raw) - 8
    assert raw[8:12] == b"WAVE"
    assert raw[12:16] == b"fmt "
    fmt_size, audio_fmt, channels, rate = struct.unpack("<IHHI", raw[16:28])
    assert fmt_size == 16
    assert audio_fmt == 1  # PCM
    byte_rate, block_align, bits = struct.unpack("<IHH", raw[28:36])
    assert byte_rate == rate * channels * bits // 8
    assert block_align == channels * bits // 8
    assert raw[36:40] == b"data"
    data_size = struct.unpack("<I", raw[40:44])[0]
    data = raw[44:44 + data_size]
    samples = struct.unpack(f"<{data_size // 2}h", data)
    return {
        "channels": channels,
        "rate": rate,
        "bits": bits,
        "data_size": data_size,
        "samples": samples,
        "header_len": 44,
        "file_len": len(raw),
    }


# --- rendering ----------------------------------------------------------------

def test_zero_amps_render_exact_silence():
    bank = OscillatorBank(44100.0)
    block = render_block(bank, make_params(amps=[0.0] * 8), 512)
    assert np.all(block.samples == 0.0)


def test_zero_master_gain_mutes_regardless_of_amps():
    bank = OscillatorBank(44100.0)
    block = render_block(bank, make_params(master_gain=0.0), 512)
    assert np.all(block.samples == 0.0)


def test_single_oscillator_spectrum():
    bank = OscillatorBank(44100.0)
    params = make_params(freqs=[440.0] * 8, amps=[1.0] + [0.0] * 7)
    block = render_block(bank, params, 44100)
    spectrum = np.abs(np.fft.rfft(block.samples))
    peak_bin = int(np.argmax(spectrum))
    assert peak_bin == 440
    peak_db = 20 * np.log10(spectrum[peak_bin])
    median_db = 20 * np.log10(np.median(spectrum) + 1e-30)
    assert peak_db - median_db >= 40.0


def test_all_partials_within_one_bin():
    bank = OscillatorBank(44100.0)
    freqs = [220.0 * (1 + 0.5 * k) for k in range(8)]
    block = render_block(bank, make_params(freqs=freqs), 44100)
    spectrum = np.abs(np.fft.rfft(block.samples))
    for f in freqs:
        lo, hi = int(f) - 5, int(f) + 6
        local_peak = lo + int(np.argmax(spectrum[lo:hi]))
        assert abs(local_peak - f) <= 1.0


def test_output_bounded_for_adversarial_params():
    bank = OscillatorBank(8000.0)
    params = make_params(freqs=[100.0 * (k + 1) for k in range(8)],
                         amps=[1.0] * 8, drive=50.0, master_gain=1.0)
    block = render_block(bank, params, 8000)
    assert np.max(np.abs(block.samples)) <= 1.0


def test_phase_continuity_exact():
    freqs = [217.3, 301.11, 440.0, 512.5, 613.7, 777.0, 901.3, 1024.0]
    params = make_params(freqs=freqs, amps=[0.7] * 8, drive=2.5,
                         master_gain=0.8)
    bank_a = OscillatorBank(44100.0)
    whole = render_block(bank_a, params, 1000)
    bank_b = OscillatorBank(44100.0)
    first = render_block(bank_b, params, 400)
    second = render_block(bank_b, params, 600)
    joined = np.concatenate([first.samples, second.samples])
    assert np.array_equal(whole.samples, joined)
    assert np.array_equal(bank_a.phases, bank_b.phases)


def test_determinism_across_fresh_banks():
    rng = np.random.default_rng(11)
    seq = []
    for _ in range(20):
        seq.append(make_params(freqs=list(rng.uniform(100, 2000, 8)),
                               amps=list(rng.uniform(0, 1, 8)),
                               drive=float(rng.uniform(1, 4)),
                               master_gain=float(rng.uniform(0, 1))))
    bank1 = OscillatorBank(44100.0)
    out1 = np.concatenate([render_block(bank1, p, 256).samples for p in seq])
    bank2 = OscillatorBank(44100.0)
    out2 = np.concatenate([render_block(bank2, p, 256).samples for p in seq])
    assert out1.tobytes() == out2.tobytes()


def test_params_ramp_linearly_across_block():
    bank = OscillatorBank(44100.0)
    silent = make_params(amps=[0.0] * 8, master_gain=0.0)
    render_block(bank, silent, 8)
    loud = make_params(freqs=[441.0] * 8, amps=[1.0] + [0.0] * 7,
                       master_gain=1.0)
    block = render_block(bank, loud, 1000)
    # envelope grows from (almost) zero; no full-scale jump at the seam
    assert np.max(np.abs(block.samples[:10])) < 0.05
    assert np.max(np.abs(block.samples[-200:])) > 0.05


def test_render_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        render_block(OscillatorBank(), make_params(), 0)


# --- mixing ---------------------------------------------------------------------

def test_mix_single_block_identity():
    block = AudioBlock(np.array([0.1, -0.2, 0.3]), 44100.0)
    out = mix_performers([block])
    assert np.array_equal(out.samples, block.samples)


def test_mix_identical_blocks_is_identity():
    x = np.array([0.5, -0.5, 0.25, 0.0])
    out = mix_performers([AudioBlock(x, 44100.0), AudioBlock(x.copy(), 44100.0)])
    assert np.array_equal(out.samples, x)


def test_mix_cancellation():
    x = np.array([0.9, -0.7, 0.2])
    out = mix_performers([AudioBlock(x, 44100.0), AudioBlock(-x, 44100.0)])
    assert np.all(out.samples == 0.0)


def test_mix_mismatches():
    a = AudioBlock(np.zeros(4), 44100.0)
    with pytest.raises(LengthMismatchError):
        mix_performers([a, AudioBlock(np.zeros(5), 44100.0)])
    with pytest.raises(RateMismatchError):
        mix_performers([a, AudioBlock(np.zeros(4), 48000.0)])
    with pytest.raises(ValueError):
        mix_performers([])


# --- WAV output -------------------------------------------------------------------

def test_wav_golden_four_zero_samples(tmp_path):
    path = tmp_path / "zeros.wav"
    write_wav(AudioBlock(np.zeros(4), 44100.0), path)
    info = read_wav_oracle(path)
    assert info["file_len"] == 44 + 8
    assert info["data_size"] == 8
    assert info["channels"] == 1
    assert info["bits"] == 16
    assert info["rate"] == 44100
    assert info["samples"] == (0, 0, 0, 0)


def test_wav_full_scale_sample_encoding(tmp_path):
    path = tmp_path / "one.wav"
    write_wav(AudioBlock(np.array([1.0]), 44100.0), path)
    raw = open(path, "rb").read()
    assert raw[44:46] == b"\xff\x7f"
    assert read_wav_oracle(path)["samples"] == (32767,)


def test_wav_empty_block(tmp_path):
    path = tmp_path / "empty.wav"
    write_wav(AudioBlock(np.zeros(0), 44100.0), path)
    info = read_wav_oracle(path)
    assert info["data_size"] == 0
    assert info["file_len"] == 44


def test_wav_values_match_rint(tmp_path):
    rng = np.random.default_rng(4)
    samples = rng.uniform(-1, 1, 256)
    path = tmp_path / "r.wav"
    write_wav(AudioBlock(samples, 44100.0), path)
    got = np.array(read_wav_oracle(path)["samples"])
    assert np.array_equal(got, np.rint(samples * 32767.0).astype(np.int64))


def test_wav_byte_exact_across_runs(tmp_path):
    rng = np.random.default_rng(9)
    samples = rng.uniform(-1, 1, 1024)
    p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(AudioBlock(samples, 44100.0), p1)
    write_wav(AudioBlock(samples.copy(), 44100.0), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_wav_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError):
        write_wav(AudioBlock(np.array([1.5]), 44100.0), tmp_path / "x.wav")
    with pytest.raises(ValueError):
        write_wav(AudioBlock(np.array([np.nan]), 44100.0), tmp_path / "y.wav")
