"""Renderer tests: FFT spectral oracle, output bound, phase continuity,
a sample-major reference renderer, whole-array reference mix and WAV
writers, an independent struct-level WAV reader oracle, and traced memory
bounds for muted blocks and for writing a mix."""

import math
import os
import stat
import struct
import tempfile
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from myobridge import protocol
from myobridge.mapping import SynthParams
from myobridge.synth import (
    _PCM_CHUNK,
    _WIDTH,
    AudioBlock,
    OscillatorBank,
    _mean_of,
    _render_next,
    _start_block,
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


class ReferenceBank:
    """reference_render_block's state: the phase accumulators and the
    previous block's parameters, as given."""

    def __init__(self, sample_rate):
        self.sample_rate = sample_rate
        self.acc = np.zeros(8, dtype=np.uint64)
        self.prev = None


def reference_render_block(bank, params, n):
    """render_block as first written: sample-major (n, 8) paths and no
    muted-block skip, on a ReferenceBank.  render_block must equal it bit
    for bit, NaNs included."""
    prev = bank.prev or params

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
    acc_path = np.cumsum(increments, axis=0, dtype=np.uint64) + bank.acc
    bank.acc = acc_path[-1].copy()
    bank.prev = params

    phases = acc_path.astype(np.float64) * (2.0 * math.pi / 2.0 ** 64)
    s = (np.sin(phases) * amps).sum(axis=1) / 8
    shaped = np.tanh(drive * s) / np.tanh(drive)
    return AudioBlock(samples=gain * shaped, sample_rate=bank.sample_rate)


def mix_mean(mix):
    """The whole mean of a mix, by the one path write_wav takes."""
    n = len(mix.tracks[0])
    return _mean_of(mix.tracks, 0, n, np.empty(n))


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


def assert_same_continuation(bank_a, bank_b):
    """The banks' phases are equal: one more live block renders the same
    samples from each.  Its ramp starts where the last block ended on
    both sides, so only the phases can tell the two apart."""
    probe = make_params(freqs=[97.0 * (k + 1) for k in range(8)],
                        amps=[0.9] * 8, drive=1.5, master_gain=1.0)
    a = render_block(bank_a, probe, 300).samples
    b = render_block(bank_b, probe, 300).samples
    assert a.tobytes() == b.tobytes()


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
    assert_same_continuation(bank_a, bank_b)

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
    assert_same_continuation(bank_c, bank_d)
    # muted 1000 leaves the phases where a live 1000 does
    bank_e, bank_f = OscillatorBank(44100.0), OscillatorBank(44100.0)
    render_block(bank_e, muted, 1000)
    render_block(bank_f, params, 1000)
    # end both on the same parameters, so the probe ramps alike
    render_block(bank_e, params, 1)
    render_block(bank_f, params, 1)
    assert_same_continuation(bank_e, bank_f)


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


# short blocks, and blocks around the scratch width and several widths
# long, which render in pieces
_LENGTHS = st.integers(1, 4000) | st.sampled_from(
    [_WIDTH - 1, _WIDTH, _WIDTH + 1, 3 * _WIDTH + 5])


def _p(gain, amp=0.5, drive=2.0):
    return make_params(freqs=[110.0 * (k + 1) for k in range(8)],
                       amps=[amp] * 8, drive=drive, master_gain=gain)


def renders_silent(p):
    """The documented mute rule at one end of a block: master gain 0,
    amps in [0, 1] and a finite drive >= 1."""
    return (p.master_gain == 0.0 and 1.0 <= p.drive < math.inf
            and all(0.0 <= a <= 1.0 for a in p.amps))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_PARAMS, _LENGTHS), min_size=1, max_size=8))
# muted at both ends, then unmuting, live, muting, and muted again
@example([(_p(0.0), 882), (_p(0.0), 1), (_p(0.6), 4000), (_p(0.3), 7),
          (_p(0.0), 882), (_p(0.0), 3000)])
# under, at and over the scratch width and four widths' pieces: open,
# muted, unmuting, and a NaN amp in a block of pieces
@example([(_p(0.3), _WIDTH - 1), (_p(0.6), _WIDTH), (_p(0.2), _WIDTH + 1),
          (_p(0.5), 3 * _WIDTH + 5), (_p(0.0), 882), (_p(0.0), 3 * _WIDTH + 5),
          (_p(0.0), _WIDTH), (_p(0.4), 3 * _WIDTH + 5),
          (_p(0.0, amp=math.nan), _WIDTH + 1)])
# non-finite amps or drive and drive 0 in muted blocks stay NaN
@example([(_p(0.0), 100), (_p(0.0, amp=math.nan), 50), (_p(0.0), 50),
          (_p(0.0, drive=math.inf), 50), (_p(0.0, drive=0.0), 50),
          (_p(0.0, amp=1e300), 882)])
# the first block ramps from its own parameters: gain 0 with a NaN amp
# at both ends is rendered, NaN
@example([(_p(0.0, amp=math.nan), 50)])
# a silent block next to a gain-0 block with an infinite drive, in both
# orders: the block from one to the other is rendered
@example([(_p(0.0), 50), (_p(0.0, drive=math.inf), 50)])
@example([(_p(0.0, drive=math.inf), 50), (_p(0.0), 50)])
def test_render_block_equals_reference(blocks):
    bank, ref = OscillatorBank(44100.0), ReferenceBank(44100.0)
    prev = blocks[0][0]
    with np.errstate(all="ignore"):
        for params, n in blocks:
            got = render_block(bank, params, n).samples
            want = reference_render_block(ref, params, n).samples
            assert got.dtype == np.float64 and got.shape == (n,)
            assert np.array_equal(bank._acc, ref.acc)
            # muted, and so a stride-0 view, exactly when silent at both
            # ends
            muted = renders_silent(prev) and renders_silent(params)
            prev = params
            assert (got.strides == (0,)) == muted
            if muted:
                # a skipped muted block is +0.0 where the full formula
                # can give -0.0 (gain 0 times a negative sample)
                assert np.array_equal(got, want)
                continue
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            # bit patterns, so that -0.0 and +0.0 differ
            assert np.array_equal(got[~nan].view(np.uint64),
                                  want[~nan].view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(first=_PARAMS, params=_PARAMS, n=st.integers(1, 3 * _WIDTH),
       cuts=st.lists(st.integers(1, 3 * _WIDTH), max_size=6))
# a tick's block cut once, open and muted, and a long block cut off the
# scratch width's multiples
@example(first=_p(0.3), params=_p(0.6), n=882, cuts=[5])
@example(first=_p(0.0), params=_p(0.0), n=882, cuts=[300, 600])
@example(first=_p(0.4), params=_p(0.0), n=3 * _WIDTH, cuts=[_WIDTH + 7, 7])
def test_a_started_block_in_any_pieces_equals_render_block(first, params,
                                                            n, cuts):
    # each bank first renders a block of the same n, so positions cached
    # for a piece from sample 0 are there to be wrongly reused
    whole, pieces = OscillatorBank(44100.0), OscillatorBank(44100.0)
    got = np.zeros(n)
    bounds = sorted({0, n, *(c % n for c in cuts)})
    with np.errstate(all="ignore"):
        render_block(whole, first, n)
        render_block(pieces, first, n)
        want = render_block(whole, params, n).samples
        muted = _start_block(pieces, params, n)
        for a, b in zip(bounds, bounds[1:]):
            _render_next(pieces, got[a:b])
    assert muted == (want.strides == (0,))
    assert np.array_equal(pieces._acc, whole._acc)
    # bit patterns, so that -0.0 and +0.0 differ
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_block_is_not_changed_by_later_renders():
    # the kernel works in per-bank scratch of a fixed width; a returned
    # block, one rendered in pieces included, must not share it
    bank = OscillatorBank(44100.0)
    kept = []
    for k, n in enumerate([882, 1, 2 * _WIDTH + 3, 4000, 882, 882]):
        block = render_block(bank, _p(0.2 + 0.1 * k), n).samples
        kept.append((block, block.tobytes()))
    for block, bits in kept:
        assert block.tobytes() == bits


def test_scratch_holds_a_control_block_and_does_not_grow():
    # a tick's block renders in one piece
    assert _WIDTH >= round(44100 / protocol.IMU_RATE_HZ)
    bank = OscillatorBank(44100.0)
    # a lost tick's block (5292 samples on the benchmark's corrupt wire),
    # a tick's, and a dropout's many widths: the bank's own arrays stay
    # the 2 * 18 + 1 rows of scratch and a few parameters
    for n in (5292, 882, 20 * _WIDTH + 7):
        render_block(bank, _p(0.5), n)
        held = sum(v.nbytes for v in vars(bank).values()
                   if isinstance(v, np.ndarray))
        assert held <= 40 * _WIDTH * 8, n


def test_interleaved_banks_equal_banks_rendered_alone():
    rng = np.random.default_rng(21)

    def plan():
        return [(make_params(freqs=list(rng.uniform(50, 4000, 8)),
                             amps=list(rng.uniform(0, 1, 8)),
                             drive=float(rng.uniform(1, 4)),
                             master_gain=float(rng.choice(
                                 [0.0, rng.uniform(0, 1)]))),
                 int(rng.choice([882, 881, 1764, 1])))
                for _ in range(30)]

    plans = [plan(), plan()]
    alone = []
    for p in plans:
        bank = OscillatorBank(44100.0)
        alone.append([render_block(bank, params, n).samples.tobytes()
                      for params, n in p])
    banks = [OscillatorBank(44100.0), OscillatorBank(44100.0)]
    together = [[], []]
    for step in zip(*plans):
        for who, (params, n) in enumerate(step):
            together[who].append(
                render_block(banks[who], params, n).samples.tobytes())
    assert together == alone


@pytest.mark.parametrize("rate", [0.0, -44100.0, math.nan, math.inf,
                                  44100.5, 2.0 ** 31])
def test_bank_rejects_rate_that_write_wav_refuses(rate):
    # NaN rendered ~1e-16 noise and inf rendered silence; 44100.5 and
    # 2**31 rendered in full and only then were refused by write_wav
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
    assert np.array_equal(mix_mean(out), block.samples)


def test_mix_identical_blocks_is_identity():
    x = np.array([0.5, -0.5, 0.25, 0.0])
    out = mix_performers([AudioBlock(x, 44100.0), AudioBlock(x.copy(), 44100.0)])
    assert np.array_equal(mix_mean(out), x)


def test_mix_cancellation():
    x = np.array([0.9, -0.7, 0.2])
    out = mix_performers([AudioBlock(x, 44100.0), AudioBlock(-x, 44100.0)])
    assert np.all(mix_mean(out) == 0.0)


def test_block_and_mix_fields_cannot_be_rebound():
    block = AudioBlock(np.zeros(4), 44100.0)
    mix = mix_performers([block, block])
    for value, fields in ((block, ("samples", "sample_rate")),
                          (mix, ("tracks", "sample_rate"))):
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(value, field, None)


def test_mix_mismatches():
    a = AudioBlock(np.zeros(4), 44100.0)
    with pytest.raises(ValueError, match="lengths differ"):
        mix_performers([a, AudioBlock(np.zeros(5), 44100.0)])
    with pytest.raises(ValueError, match="rates differ"):
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
        mean = mix_mean(got)
        want = reference_mix(blocks)
    assert mean.dtype == np.float64
    assert got.sample_rate == 44100.0
    assert mean.tobytes() == want.tobytes()
    assert [a.tobytes() for a in arrays] == before
    # the mix is the tracks as given, not copies
    assert all(t is a for t, a in zip(got.tracks, arrays, strict=True))


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
    write_wav(mix_performers([AudioBlock(np.zeros(4), 44100.0)]), path)
    info = read_wav_oracle(path)
    assert info["file_len"] == 44 + 8
    assert info["data_size"] == 8
    assert info["channels"] == 1
    assert info["bits"] == 16
    assert info["rate"] == 44100
    assert info["samples"] == (0, 0, 0, 0)


def test_wav_full_scale_sample_encoding(tmp_path):
    path = tmp_path / "one.wav"
    write_wav(mix_performers([AudioBlock(np.array([1.0]), 44100.0)]), path)
    raw = Path(path).read_bytes()
    assert raw[44:46] == b"\xff\x7f"
    assert read_wav_oracle(path)["samples"] == (32767,)


def test_wav_empty_block(tmp_path):
    path = tmp_path / "empty.wav"
    write_wav(mix_performers([AudioBlock(np.zeros(0), 44100.0)]), path)
    info = read_wav_oracle(path)
    assert info["data_size"] == 0
    assert info["file_len"] == 44


def test_wav_values_match_rint(tmp_path):
    rng = np.random.default_rng(4)
    samples = rng.uniform(-1, 1, 256)
    path = tmp_path / "r.wav"
    write_wav(mix_performers([AudioBlock(samples, 44100.0)]), path)
    got = np.array(read_wav_oracle(path)["samples"])
    assert np.array_equal(got, np.rint(samples * 32767.0).astype(np.int64))


def test_wav_byte_exact_across_runs(tmp_path):
    rng = np.random.default_rng(9)
    samples = rng.uniform(-1, 1, 1024)
    p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(mix_performers([AudioBlock(samples, 44100.0)]), p1)
    write_wav(mix_performers([AudioBlock(samples.copy(), 44100.0)]), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_wav_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError):
        write_wav(mix_performers([AudioBlock(np.array([1.5]), 44100.0)]),
                  tmp_path / "x.wav")
    with pytest.raises(ValueError):
        write_wav(mix_performers([AudioBlock(np.array([np.nan]), 44100.0)]),
                  tmp_path / "y.wav")


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
    write_wav(mix_performers([block]), got)
    reference_write_wav(block, want)
    assert got.read_bytes() == want.read_bytes()
    assert read_wav_oracle(got)["data_size"] == 2 * n


@pytest.mark.parametrize("bad, message", [
    ({-1: math.nan}, "finite"),
    ({-1: math.inf}, "finite"),
    ({-1: 1.5}, r"\[-1, 1\]"),
    ({-1: -1.0000000000000002}, r"\[-1, 1\]"),
    # out of range early and NaN late: refused at the first bad chunk
    ({0: 1.5, -1: math.nan}, r"\[-1, 1\]"),
])
def test_wav_refuses_bad_last_chunk_and_writes_no_file(tmp_path, bad,
                                                       message):
    samples = np.zeros(3 * _PCM_CHUNK + 7)
    for at, value in bad.items():
        samples[at] = value
    path = tmp_path / "refused.wav"
    with pytest.raises(ValueError, match=message):
        write_wav(mix_performers([AudioBlock(samples, 44100.0)]), path)
    assert not path.exists()


class CountedTrack:
    """A track that counts the slices read from it."""

    def __init__(self, samples):
        self.samples, self.reads = samples, 0

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, s):
        self.reads += 1
        return self.samples[s]


@pytest.mark.parametrize("value, message", [(1.5, r"\[-1, 1\]"),
                                            (math.nan, "finite")])
@pytest.mark.parametrize("k", [0, 2])
def test_wav_refusal_reads_no_chunk_past_the_bad_one(tmp_path, k, value,
                                                     message):
    # for pipeline.render, every chunk read is a chunk rendered
    samples = np.zeros(4 * _PCM_CHUNK)
    samples[k * _PCM_CHUNK + 5] = value
    track = CountedTrack(samples)
    with pytest.raises(ValueError, match=message):
        write_wav(mix_performers([AudioBlock(track, 44100.0)]),
                  tmp_path / "refused.wav")
    assert track.reads == k + 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n, message, reads", [(2_147_483_630, "at most", 0),
                                                (2_147_483_629, "finite", 1)])
def test_wav_longer_than_its_header_holds_is_refused_unread(tmp_path, n,
                                                            message, reads):
    # the RIFF size, 36 header bytes plus 2 per sample, is a uint32: one
    # frame more raised struct.error writing the header, after a chunk.
    # The NaN track holds no memory and refuses its first chunk
    track = CountedTrack(np.broadcast_to(math.nan, n))
    with pytest.raises(ValueError, match=message):
        write_wav(mix_performers([AudioBlock(track, 44100.0)]),
                  tmp_path / "long.wav")
    assert track.reads == reads
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rate", [0.0, -44100.0, math.nan, math.inf,
                                  44100.7, 2.0 ** 31])
def test_wav_refuses_bad_rate_and_writes_no_file(tmp_path, rate):
    # 44100.7 was cut to 44100; 2**31 Hz overflows the header's byte rate
    path = tmp_path / "refused.wav"
    with pytest.raises(ValueError, match="sample_rate"):
        write_wav(mix_performers([AudioBlock(np.zeros(4), rate)]), path)
    assert not path.exists()


@pytest.mark.parametrize("earlier", [None, b"an earlier take"])
def test_wav_failing_mid_write_leaves_path_as_it_was(tmp_path, monkeypatch,
                                                     earlier):
    # a full disk on the second chunk: the file at path must not become a
    # truncated WAV whose patched header makes it look whole
    write_raw = wave.Wave_write.writeframesraw
    calls = []

    def fail_second_call(self, data):
        calls.append(len(data))
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        write_raw(self, data)

    monkeypatch.setattr(wave.Wave_write, "writeframesraw", fail_second_call)
    path = tmp_path / "take.wav"
    if earlier is not None:
        path.write_bytes(earlier)
    with pytest.raises(OSError, match="No space"):
        write_wav(mix_performers([AudioBlock(np.zeros(2 * _PCM_CHUNK + 1),
                                             44100.0)]), path)
    assert len(calls) == 2
    if earlier is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == earlier
    assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None
                                                    else ["take.wav"])


def test_wav_is_written_past_a_stale_temporary_file(tmp_path):
    # a write killed mid-way left the temporary name once used, the path
    # plus the pid; a container's entrypoint has the same pid every start
    path = tmp_path / "take.wav"
    stale = tmp_path / f"take.wav.{os.getpid()}.tmp"
    stale.write_bytes(b"a killed write")
    write_wav(mix_performers([AudioBlock(np.zeros(4), 44100.0)]), path)
    assert read_wav_oracle(path)["samples"] == (0, 0, 0, 0)
    assert stale.read_bytes() == b"a killed write"
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name,
                                                          stale.name]


def test_wav_has_the_mode_of_any_new_file(tmp_path):
    # the temporary file that becomes the WAV is created as open creates
    # any file, under the umask; tempfile.mkstemp's would be 0600
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    path = tmp_path / "take.wav"
    write_wav(mix_performers([AudioBlock(np.zeros(4), 44100.0)]), path)
    assert (stat.S_IMODE(path.stat().st_mode)
            == stat.S_IMODE(plain.stat().st_mode))


def test_wav_whole_float_rate_is_written(tmp_path):
    path = tmp_path / "float_rate.wav"
    write_wav(mix_performers([AudioBlock(np.zeros(4), 48000.0)]), path)
    with wave.open(str(path), "rb") as r:
        assert r.getframerate() == 48000


def test_wav_peak_memory_is_bounded(tmp_path):
    samples = np.random.default_rng(5).uniform(-1, 1, 1 << 21)
    mix = mix_performers([AudioBlock(samples, 44100.0)])
    # the whole-array writer peaked near twice the samples' bytes
    peak = traced_peak_bytes(write_wav, mix, tmp_path / "long.wav")
    assert peak <= samples.nbytes / 8
