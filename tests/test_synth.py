"""Renderer tests: FFT spectral oracle, output bound, phase continuity,
a sample-major reference renderer, whole-array reference mix and WAV
writers, an independent struct-level WAV reader oracle, and traced memory
bounds for muted blocks, the mix and the WAV writer."""

import math
import struct
import tempfile
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from myobridge.mapping import SynthParams
from myobridge.synth import (
    _PCM_CHUNK,
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
    raw = Path(path).read_bytes()
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


def reference_render_block(bank, params, n):
    """render_block as first written: sample-major (n, 8) paths and no
    muted-block skip.  render_block must equal it bit for bit, NaNs
    included."""
    prev = bank._prev_params or params

    def lerp(a, b, t):
        return a + (b - a) * t

    t = (np.arange(1, n + 1, dtype=np.float64) / n)[:, None]
    freqs = lerp(np.asarray(prev.freqs), np.asarray(params.freqs), t)
    amps = lerp(np.asarray(prev.amps), np.asarray(params.amps), t)
    drive = lerp(np.float64(prev.drive), np.float64(params.drive), t[:, 0])
    gain = lerp(np.float64(prev.master_gain),
                np.float64(params.master_gain), t[:, 0])

    increments = np.round(freqs * (2.0 ** 64 / bank.sample_rate)).astype(
        np.uint64)
    acc_path = np.cumsum(increments, axis=0, dtype=np.uint64) + bank._acc
    bank._acc = acc_path[-1].copy()
    bank._prev_params = params

    phases = acc_path.astype(np.float64) * (2.0 * math.pi / 2.0 ** 64)
    s = (np.sin(phases) * amps).sum(axis=1) / 8
    shaped = np.tanh(drive * s) / np.tanh(drive)
    return AudioBlock(samples=gain * shaped, sample_rate=bank.sample_rate)


def reference_mix(blocks):
    """mix_performers as first written: a stacked copy of every track,
    summed down the rows and divided.  mix_performers must equal it bit
    for bit."""
    return np.stack([b.samples for b in blocks]).sum(axis=0) / len(blocks)


def reference_write_wav(block, path):
    """write_wav as first written: the whole track converted at once and
    written in one call.  write_wav must write the same bytes."""
    pcm = np.rint(np.asarray(block.samples, dtype=np.float64)
                  * 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(int(block.sample_rate))
        w.writeframes(pcm.tobytes())


def traced_peak_bytes(fn, *args):
    """Peak bytes allocated while fn runs; numpy reports its buffers to
    tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    # splits on both sides of muted/unmuted boundaries: phases run on
    # while muted, so the ramps in and out of a muted span and the spans
    # themselves come out the same however the constant spans are split
    muted = make_params(freqs=freqs, amps=[0.7] * 8, drive=2.5,
                        master_gain=0.0)
    plan_whole = [(muted, 1000), (params, 700), (params, 1000),
                  (muted, 500), (muted, 1000)]
    plan_split = [(muted, 400), (muted, 600), (params, 700), (params, 300),
                  (params, 700), (muted, 500), (muted, 200), (muted, 800)]
    bank_c, bank_d = OscillatorBank(44100.0), OscillatorBank(44100.0)
    whole = np.concatenate([render_block(bank_c, p, n).samples
                            for p, n in plan_whole])
    parts = np.concatenate([render_block(bank_d, p, n).samples
                            for p, n in plan_split])
    assert np.array_equal(whole, parts)
    assert np.all(whole[:1000] == 0.0) and np.all(whole[-1000:] == 0.0)
    assert np.any(whole[1000:2700] != 0.0)
    assert np.array_equal(bank_c.phases, bank_d.phases)
    # muted 1000 leaves the phases where a live 1000 does
    bank_e = OscillatorBank(44100.0)
    render_block(bank_e, muted, 1000)
    assert np.array_equal(bank_e.phases, bank_a.phases)


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


_ODD = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-20, 1e300,
        1.7976931348623157e308]
_AMP = st.one_of(st.floats(0.0, 1.0), st.sampled_from(_ODD))
_DRIVE = st.one_of(st.floats(1.0, 4.0), st.sampled_from(_ODD))
_GAIN = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
_PARAMS = st.builds(
    SynthParams,
    freqs=st.tuples(*[st.floats(0.0, 22050.0)] * 8),
    amps=st.tuples(*[_AMP] * 8),
    drive=_DRIVE,
    master_gain=_GAIN,
)


def _p(gain, amp=0.5, drive=2.0):
    return make_params(freqs=[110.0 * (k + 1) for k in range(8)],
                       amps=[amp] * 8, drive=drive, master_gain=gain)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_PARAMS, st.integers(1, 4000)),
                min_size=1, max_size=8))
# muted at both ends, then unmuting, live, muting, and muted again
@example([(_p(0.0), 882), (_p(0.0), 1), (_p(0.6), 4000), (_p(0.3), 7),
          (_p(0.0), 882), (_p(0.0), 3000)])
# non-finite amps or drive and drive 0 in muted blocks stay NaN
@example([(_p(0.0), 100), (_p(0.0, amp=math.nan), 50), (_p(0.0), 50),
          (_p(0.0, drive=math.inf), 50), (_p(0.0, drive=0.0), 50),
          (_p(0.0, amp=1e300), 882)])
def test_render_block_equals_reference(blocks):
    bank, ref = OscillatorBank(44100.0), OscillatorBank(44100.0)
    with np.errstate(all="ignore"):
        for params, n in blocks:
            got = render_block(bank, params, n).samples
            want = reference_render_block(ref, params, n).samples
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(bank.phases, ref.phases)
            assert np.array_equal(bank._acc, ref._acc)


@pytest.mark.parametrize("rate", [0.0, -44100.0, math.nan, math.inf])
def test_bank_rejects_rate_that_is_not_finite_and_positive(rate):
    # NaN rendered ~1e-16 noise and inf rendered silence
    with pytest.raises(ValueError, match="sample_rate"):
        OscillatorBank(rate)


def test_render_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        render_block(OscillatorBank(), make_params(), 0)


def test_muted_block_is_read_only_float64_positive_zero():
    block = render_block(OscillatorBank(44100.0), _p(0.0), 882)
    samples = block.samples
    assert samples.dtype == np.float64 and samples.shape == (882,)
    assert np.all(samples == 0.0) and not np.any(np.signbit(samples))
    assert not samples.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        samples[0] = 1.0


def test_kept_muted_blocks_hold_no_sample_memory():
    bank = OscillatorBank(44100.0)
    render_block(bank, _p(0.0), 882)
    tracemalloc.start()
    try:
        kept = [render_block(bank, _p(0.0), 882) for _ in range(1000)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kept) == 1000
    # np.zeros per block held the nominal 1000 * 882 * 8 bytes
    assert held < 1000 * 882 * 8 / 16


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


_MAX = 1.7976931348623157e308
_MIX_VALUE = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(),  # NaN, +-inf, subnormals and the whole range
    st.sampled_from([-0.0, 0.0, 1.0, -1.0, 5e-324, -5e-324,
                     2.2250738585072014e-308, -1e-310, _MAX, -_MAX,
                     _MAX / 2, _MAX / 3, math.nextafter(_MAX / 2, 0.0)]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.lists(
    st.lists(_MIX_VALUE, min_size=n, max_size=n), min_size=1, max_size=6)))
# -0.0 alone and in every row: the stacked sum starts from +0.0
@example([[-0.0, 1.0]])
@example([[-0.0, -0.0]] * 3)
# rounding that depends on the order of the rows
@example([[1.0], [1e16], [-1e16]])
@example([[_MAX], [_MAX], [-_MAX]])
def test_mix_equals_stacked_reference_bitwise(rows):
    arrays = [np.array(r, dtype=np.float64) for r in rows]
    before = [a.tobytes() for a in arrays]
    blocks = [AudioBlock(a, 44100.0) for a in arrays]
    with np.errstate(all="ignore"):
        got = mix_performers(blocks)
        got.samples  # the mean is computed, once, when first read
        want = reference_mix(blocks)
    assert got.samples.dtype == np.float64
    assert got.sample_rate == 44100.0
    assert got.samples.tobytes() == want.tobytes()
    assert [a.tobytes() for a in arrays] == before
    assert all(got.samples is not a for a in arrays)


def test_mix_peak_memory_is_one_track():
    rng = np.random.default_rng(3)
    blocks = [AudioBlock(rng.uniform(-1, 1, 1 << 20), 44100.0)
              for _ in range(4)]
    track_bytes = blocks[0].samples.nbytes
    # the stacked mix peaked at 5 tracks: the stack of 4 and its sum
    peak = traced_peak_bytes(lambda: mix_performers(blocks).samples)
    assert peak <= 1.25 * track_bytes


def test_writing_a_mix_never_builds_it(tmp_path):
    rng = np.random.default_rng(6)
    blocks = [AudioBlock(rng.uniform(-1, 1, 1 << 20), 44100.0)
              for _ in range(4)]
    path = tmp_path / "mix.wav"
    peak = traced_peak_bytes(
        lambda: write_wav(mix_performers(blocks), path))
    # a mix built whole before writing peaked at one track
    assert peak < blocks[0].samples.nbytes / 8
    want = tmp_path / "want.wav"
    reference_write_wav(AudioBlock(reference_mix(blocks), 44100.0), want)
    assert path.read_bytes() == want.read_bytes()


# ends of the range, signed zeros and values whose scaled mean lands on
# or next to a rint tie
_SPECIAL = [1.0, -1.0, -0.0, 0.0, 0.5 / 32767, -1.5 / 32767, 2.5 / 32767,
            math.nextafter(0.5 / 32767, 1.0)]
_SEAMS = [0, 1, _PCM_CHUNK - 1, _PCM_CHUNK, _PCM_CHUNK + 1,
          2 * _PCM_CHUNK + 3]


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from(_SEAMS), tracks=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1),
       marks=st.lists(st.tuples(st.sampled_from(_SEAMS), st.integers(-2, 2),
                                st.sampled_from(_SPECIAL),
                                st.booleans()), max_size=8))
def test_written_mix_equals_reference_mix_written_whole(n, tracks, seed,
                                                        marks):
    rng = np.random.default_rng(seed)
    arrays = [rng.uniform(-1, 1, n) for _ in range(tracks)]
    # each mark puts a special value near a seam in one track or in all
    for k, (seam, offset, value, everywhere) in enumerate(marks):
        at = seam + offset
        if 0 <= at < n:
            for a in (arrays if everywhere else [arrays[k % tracks]]):
                a[at] = value
    blocks = [AudioBlock(a, 44100.0) for a in arrays]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.wav", Path(tmp) / "want.wav"
        write_wav(mix_performers(blocks), got)
        reference_write_wav(AudioBlock(reference_mix(blocks), 44100.0), want)
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("last, message", [
    # inf + -inf makes the mean NaN only when the mix is computed
    ([math.inf, -math.inf], "finite"),
    ([1.5, 1.5], r"\[-1, 1\]"),
    ([1.5, -0.5], None),  # out-of-range tracks, mean 0.5: written
])
def test_mix_is_checked_when_written(tmp_path, last, message):
    arrays = [np.zeros(3 * _PCM_CHUNK + 7) for _ in last]
    for a, value in zip(arrays, last):
        a[-1] = value
    blocks = [AudioBlock(a, 44100.0) for a in arrays]
    path = tmp_path / "mix.wav"
    if message is None:
        write_wav(mix_performers(blocks), path)
        assert read_wav_oracle(path)["samples"][-1] == 16384  # rint(16383.5)
        return
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
        write_wav(mix_performers(blocks), path)
    assert not path.exists()


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
    raw = Path(path).read_bytes()
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
    assert p1.read_bytes() == p2.read_bytes()


def test_wav_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError):
        write_wav(AudioBlock(np.array([1.5]), 44100.0), tmp_path / "x.wav")
    with pytest.raises(ValueError):
        write_wav(AudioBlock(np.array([np.nan]), 44100.0), tmp_path / "y.wav")


@pytest.mark.parametrize("n", [0, 1, _PCM_CHUNK - 1, _PCM_CHUNK,
                               _PCM_CHUNK + 1, 3 * _PCM_CHUNK + 7])
def test_wav_chunked_bytes_equal_whole_array_reference(tmp_path, n):
    rng = np.random.default_rng(n)
    samples = rng.uniform(-1, 1, n)
    # ends of the range, signed zeros and rint ties at chunk seams
    special = [1.0, -1.0, -0.0, 0.0, 0.5 / 32767, -1.5 / 32767]
    for k, at in enumerate([0, _PCM_CHUNK - 1, _PCM_CHUNK, n - 1]):
        if 0 <= at < n:
            samples[at] = special[k]
    block = AudioBlock(samples, 44100.0)
    got, want = tmp_path / "got.wav", tmp_path / "want.wav"
    write_wav(block, got)
    reference_write_wav(block, want)
    assert got.read_bytes() == want.read_bytes()
    assert read_wav_oracle(got)["data_size"] == 2 * n


@pytest.mark.parametrize("bad, message", [
    ({-1: math.nan}, "finite"),
    ({-1: math.inf}, "finite"),
    ({-1: 1.5}, r"\[-1, 1\]"),
    ({-1: -1.0000000000000002}, r"\[-1, 1\]"),
    # out of range early and NaN late: reported as not finite
    ({0: 1.5, -1: math.nan}, "finite"),
])
def test_wav_refuses_bad_last_chunk_and_writes_no_file(tmp_path, bad,
                                                       message):
    samples = np.zeros(3 * _PCM_CHUNK + 7)
    for at, value in bad.items():
        samples[at] = value
    path = tmp_path / "refused.wav"
    with pytest.raises(ValueError, match=message):
        write_wav(AudioBlock(samples, 44100.0), path)
    assert not path.exists()


@pytest.mark.parametrize("rate", [0.0, -44100.0, math.nan, math.inf,
                                  44100.7, 2.0 ** 31])
def test_wav_refuses_bad_rate_and_writes_no_file(tmp_path, rate):
    # 44100.7 was cut to 44100; 2**31 Hz overflows the header's byte rate
    path = tmp_path / "refused.wav"
    with pytest.raises(ValueError, match="sample_rate"):
        write_wav(AudioBlock(np.zeros(4), rate), path)
    assert not path.exists()


def test_wav_whole_float_rate_is_written(tmp_path):
    path = tmp_path / "float_rate.wav"
    write_wav(AudioBlock(np.zeros(4), 48000.0), path)
    with wave.open(str(path), "rb") as r:
        assert r.getframerate() == 48000


def test_wav_peak_memory_is_bounded(tmp_path):
    samples = np.random.default_rng(5).uniform(-1, 1, 1 << 21)
    block = AudioBlock(samples, 44100.0)
    # the whole-array writer peaked near twice the samples' bytes
    peak = traced_peak_bytes(write_wav, block, tmp_path / "long.wav")
    assert peak <= samples.nbytes / 8
