"""Offline additive synthesis: eight-oscillator bank, waveshaping, mixdown,
and 16-bit WAV output.

The renderer is a desk-scale stand-in for an embedded audio engine, built
for reproducibility: phases accumulate in 64-bit integers (wrap-exact, so
rendering is bit-identical regardless of how a span is split into blocks),
and identical parameter sequences always produce identical samples.

Per sample: s = sum_k amps[k] * sin(phase_k) / 8, then the normalized
waveshaper tanh(drive * s) / tanh(drive), then the master gain.  Parameters
changing between blocks are linearly interpolated across the block.

A block is computed oscillator-major, one contiguous row per path: the
four parameter ramps are one (18, m) array (8 freqs, 8 amps, drive,
gain), the integer phase increments and their running sum one uint64
(8, m) array, and the freq rows then hold the phases and their sines.
The bank allocates this scratch once, _WIDTH samples wide, as Bela renders
into buffers allocated once and one audio block long: a control block
renders in one piece, and a longer one, such as the block after lost IMU
ticks, renders through it in pieces.  Rendering takes two steps:
_start_block starts a block (its ramps' ends, and whether it is muted),
and _render_next renders its next samples into a caller's buffer.
render_block takes both for a whole block; pipeline's tracks render a
block a read at a time, into each read's own buffer.  The bank keeps the
working views of the last piece length, so a run of equal blocks slices
nothing anew.  Piece [a, b) of an n-sample block ramps at (k + a) / n,
k = 1 .. b - a, each the float arange(1, n + 1) / n gives, and carries
the phases on, so the bytes do not depend on the pieces, nor on where the
reads cut the block.  render_block's samples are always a fresh array,
never a view of the scratch, so a caller may keep every block.

A muted block, silent parameters at both ends (master gain exactly 0,
amps in [0, 1] and a finite drive >= 1, as the mapping produces them),
renders exact zeros without computing sin, mix or waveshaper; its phases
still advance by the same integer increments, so whatever follows is
unchanged.  A block with gain 0 outside that range is rendered in full,
so a NaN it makes still reaches write_wav's finite check.  A muted
block's samples from render_block are a read-only, stride-0 view of one
immutable +0.0: silence held for a whole piece takes no sample memory.
_render_next writes nothing for a muted block, so a caller's buffer
keeps the zeros it holds.

Mixdown and PCM output take one path in bounded memory: mix_performers
checks its blocks and returns a mix that is just their tracks, and
write_wav, whose one input is that mix, reads it as the mean of its
tracks, a chunk at a time, refuses it at the first chunk that fails its
check, and only replaces its path once every chunk has passed; the mean
is computed nowhere else.  OscillatorBank applies write_wav's rate rule,
so a render at a rate it refuses fails at once.
"""

from __future__ import annotations

import math
import os
import wave
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .mapping import N_OSCILLATORS, SynthParams

# Phase lives in uint64 turns: 2**64 == one full cycle.
_PHASE_MODULUS = 2.0 ** 64
_PHASE_TO_RADIANS = 2.0 * math.pi / _PHASE_MODULUS
# render_block's ramp rows: the 8 freqs, the 8 amps, drive and gain
_RAMP_ROWS = 2 * N_OSCILLATORS + 2
_DRIVE, _GAIN = 2 * N_OSCILLATORS, 2 * N_OSCILLATORS + 1
# render_block's scratch width, the smallest power of two over a control
# block (882 samples at 44.1 kHz): a tick's block, and up to 3.2 ms of
# stamp jitter, renders in one piece; the longer block after lost ticks
# renders in pieces
_WIDTH = 1 << 10

PCM_FULL_SCALE = 32767.0
# samples per write_wav chunk: 512 KiB of float64 working memory
_PCM_CHUNK = 1 << 16
# the WAV header holds, as uint32s, the byte rate, 2 bytes per mono
# sample, and the RIFF size, 36 header bytes plus 2 per sample
_WAV_MAX_RATE = 0xFFFFFFFF // 2
_WAV_MAX_FRAMES = (0xFFFFFFFF - 36) // 2
# the one +0.0 every muted block's stride-0 view reads; bytes are
# immutable, so the views are read-only
_SILENCE = bytes(8)


class AudioBlock(NamedTuple):
    """Mono float samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: float


def _mean_of(tracks: Sequence, lo: int, hi: int,
             out: np.ndarray) -> np.ndarray:
    """The samplewise mean of tracks over [lo, hi), into out: from +0.0,
    in track order, then one division, so bit for bit
    np.stack(...).sum(axis=0) / n (-0.0 comes out +0.0)."""
    out.fill(0.0)
    for t in tracks:
        out += t[lo:hi]
    out /= len(tracks)
    return out


class _Mix(NamedTuple):
    """The samplewise mean of equal-length tracks, which write_wav
    computes a chunk at a time and never builds whole."""

    tracks: tuple
    sample_rate: float


def _whole_hz(rate) -> int:
    """rate as a whole number of Hz that a WAV header can hold; refuses
    anything else, NaN and inf included, with ValueError."""
    if not (0 < rate <= _WAV_MAX_RATE and float(rate).is_integer()):
        raise ValueError(
            f"sample_rate must be a whole number of Hz in 1..{_WAV_MAX_RATE}:"
            f" {rate}")
    return int(rate)


class OscillatorBank:
    """Eight phase accumulators plus the previous block's parameters: the
    float64 vector the next block ramps from, and whether they are
    silent (_silent).

    Single-owner: one bank per performer, rendered in stream order; it
    also owns render_block's scratch.  sample_rate must pass write_wav's
    rule (_whole_hz), or ValueError is raised.
    """

    def __init__(self, sample_rate: float = 44100.0):
        self.sample_rate = float(_whole_hz(sample_rate))
        self._acc = np.zeros(N_OSCILLATORS, dtype=np.uint64)
        self._prev_vector: Optional[np.ndarray] = None
        self._prev_silent = False
        # the started block (_start_block) and its samples rendered so far
        self._block, self._a = None, 0
        # the ramps and the grid (their operands, then the increments),
        # each prefix a contiguous (rows, m); _t: the positions of the
        # piece _t_at names, (a, m, n): m samples from a of an n-sample block
        self._ramps = np.empty(_RAMP_ROWS * _WIDTH)
        self._grid = np.empty(_RAMP_ROWS * _WIDTH)
        self._t, self._t_at = np.empty(_WIDTH), None
        # _views(self, _m), the working views of the last piece length
        self._m, self._views = 0, ()


def _silent(p: SynthParams) -> bool:
    """True when p is master gain 0 with amps in [0, 1] (as
    EnvelopeTracker.envelopes makes them) and a finite drive >= 1 (as
    map_orientation gives it).  A block silent at both ends renders exact
    zeros under the full formula: every waveshaper output is finite, so
    gain 0 times it is 0.  Outside that range a gain-0 block can still be
    NaN (a NaN or inf amp or drive, drive 0 as 0/0, amps large enough
    that the mix overflows), and must be rendered so that write_wav's
    finite check sees it.
    """
    return (p.master_gain == 0.0 and 1.0 <= p.drive < math.inf
            and all(0.0 <= a <= 1.0 for a in p.amps))


def _vector(p: SynthParams) -> np.ndarray:
    """The parameters in ramp-row order, as float64."""
    return np.array((*p.freqs, *p.amps, p.drive, p.master_gain),
                    dtype=np.float64)


def _views(bank: OscillatorBank, m: int) -> tuple:
    """The working views of an m-sample piece of bank's scratch, in the
    order _render_next unpacks them."""
    ramps = bank._ramps[:_RAMP_ROWS * m].reshape(_RAMP_ROWS, m)
    grid = bank._grid[:_RAMP_ROWS * m].reshape(_RAMP_ROWS, m)
    x, x_grid = ramps[:N_OSCILLATORS], grid[:N_OSCILLATORS]
    inc = x_grid.view(np.uint64)
    return (ramps, grid, bank._t[:m], x, x_grid, inc, inc[:, 0], inc[:, -1],
            x[0::2], x[1::2], ramps[N_OSCILLATORS:2 * N_OSCILLATORS],
            ramps[_DRIVE], ramps[_GAIN])


def render_block(bank: OscillatorBank, params: SynthParams,
                 n: int) -> AudioBlock:
    """Render n samples, ramping from the bank's previous parameters.

    Phase persists across calls; with constant parameters, rendering
    n1 + n2 samples equals rendering n1 then n2 (sample-exact), muted
    blocks included.  A muted block's samples are a read-only view of
    shared zeros (+0.0, float64): writing into them raises ValueError.
    Any other block's samples are a fresh array that later renders do
    not touch.
    """
    muted = _start_block(bank, params, n)
    out = (np.ndarray(n, np.float64, _SILENCE, strides=(0,)) if muted
           else np.empty(n))
    _render_next(bank, out)
    return AudioBlock(samples=out, sample_rate=bank.sample_rate)


def _start_block(bank: OscillatorBank, params: SynthParams, n: int) -> bool:
    """Start an n-sample block that ramps from the bank's previous
    parameters to params, for _render_next to render; True if it is
    muted.  The block's samples are rendered by later calls, in order."""
    if n <= 0:
        raise ValueError("sample count must be positive")
    end, silent = _vector(params), _silent(params)
    if bank._prev_vector is None:  # the first block starts where it ends
        bank._prev_vector, bank._prev_silent = end, silent
    start, muted = bank._prev_vector, silent and bank._prev_silent
    # this block's end is the next block's start
    bank._prev_vector, bank._prev_silent = end, silent
    # a muted block needs the freq rows only
    rows = N_OSCILLATORS if muted else _RAMP_ROWS
    bank._block = ((end - start)[:rows, None], start[:rows, None], n, muted)
    bank._a = 0
    return muted


def _render_next(bank: OscillatorBank, out: np.ndarray) -> None:
    """Render the started block's next len(out) samples, [a, a + len(out))
    where a is 0 or where the last call for the block ended, into out, a
    float64 array, in pieces of at most _WIDTH.  A muted block writes nothing:
    out must hold +0.0 there already.  The bytes do not depend on where
    the calls, or the pieces, cut the block."""
    delta, start, n, muted = bank._block
    a0, bank._a = bank._a, bank._a + len(out)
    for a in range(a0, bank._a, _WIDTH):
        m = min(bank._a - a, _WIDTH)
        if bank._m != m:
            bank._m, bank._views = m, _views(bank, m)
        (ramps, grid, t, x, x_grid, inc, first, last, even, odd, amps, drive,
         gain) = bank._views
        if bank._t_at != (a, m, n):  # an exact float64 arange, divided
            np.divide(np.arange(a + 1.0, a + m + 1), n, out=t)
            bank._t_at = (a, m, n)
        if muted:  # the freq rows only
            ramps, grid = x, x_grid
        # every ramp is start + (end - start) * t, rounded twice as
        # written.  Each operand is spread to the full (rows, m) by
        # assignment first: numpy buffers a ufunc that broadcasts over
        # rows this short, which costs more than the copy
        grid[...] = t
        ramps[...] = delta
        ramps *= grid
        grid[...] = start
        ramps += grid
        # x: the freqs, then phases, then sines
        x *= _PHASE_MODULUS / bank.sample_rate
        np.rint(x, out=x)
        inc[...] = x
        if muted:
            bank._acc = bank._acc + inc.sum(axis=1, dtype=np.uint64)
            continue
        # uint64 sums wrap mod 2**64, so the accumulator added to the
        # first increment is added to every running sum
        first += bank._acc
        np.cumsum(inc, axis=1, out=inc)
        bank._acc = last.copy()
        x[...] = inc
        x *= _PHASE_TO_RADIANS
        np.sin(x, out=x)
        x *= amps
        # numpy's sum over a contiguous axis of 8 adds pairwise in exactly
        # this order, ((x0+x1)+(x2+x3))+((x4+x5)+(x6+x7)), so the mix
        # equals the row-major (n, 8).sum(axis=1) bit for bit
        pairs = even + odd
        pairs = pairs[0::2] + pairs[1::2]
        s = np.add(pairs[0], pairs[1], out=out[a - a0:a - a0 + m])
        s /= N_OSCILLATORS
        s *= drive
        np.tanh(s, out=s)
        s /= np.tanh(drive, out=drive)
        s *= gain


def mix_performers(blocks: Sequence[AudioBlock]) -> _Mix:
    """Samplewise mean across performers; never clips for inputs in [-1, 1].

    The checks run now; the mean does not.  The mix returned is the
    blocks' tracks and their rate, and write_wav computes its mean a
    chunk at a time with _mean_of: from +0.0, in track order, then
    divided, bit for bit np.stack(...).sum(axis=0) / n.  So the
    arithmetic, and any numpy floating-point warning it gives, happens
    when the mix is written, and the tracks must not be changed before
    then.
    """
    if not blocks:
        raise ValueError("nothing to mix")
    length = len(blocks[0].samples)
    rate = blocks[0].sample_rate
    for b in blocks[1:]:
        if len(b.samples) != length:
            raise ValueError(
                f"block lengths differ: {len(b.samples)} vs {length}")
        if b.sample_rate != rate:
            raise ValueError(
                f"sample rates differ: {b.sample_rate} vs {rate}")
    return _Mix(tuple(b.samples for b in blocks), rate)


def write_wav(mix: _Mix, path) -> None:
    """Write a mix_performers mix as mono 16-bit PCM, little-endian;
    byte-exact across runs.

    Sample s maps to rint(s * 32767).  Samples must be finite and within
    [-1, 1], as the renderer gives them.  A rate that is not a whole number
    of Hz the header can hold (_whole_hz, OscillatorBank's rule too), or
    more than _WAV_MAX_FRAMES samples (13.5 h at 44.1 kHz), is refused
    before any chunk is read.  The mix is read as the mean of its tracks,
    computed chunk by chunk into one _PCM_CHUNK-sample buffer, so memory
    does not grow with the length; the first chunk with a sample that is
    not finite or not in [-1, 1] raises ValueError, and no later chunk is
    read.  The PCM goes to a temporary file beside path, named afresh per
    call, that replaces path once every chunk is written, so a refused mix
    or a failed write (a full disk) leaves path as it was.  A track is
    asked for len(), and t[lo:hi] as a float array, each slice read once,
    front to back, in chunks, so it may render its samples as they are
    read (pipeline.render).
    """
    rate = _whole_hz(mix.sample_rate)
    n = len(mix.tracks[0])
    if n > _WAV_MAX_FRAMES:
        raise ValueError(f"a WAV holds at most {_WAV_MAX_FRAMES} samples: {n}")
    buf = np.empty(min(n, _PCM_CHUNK))
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh, wave.open(fh, "wb") as w:
            # mono, 2-byte samples; the header is written once, with the
            # final length, so the raw writes need no header patch per chunk
            w.setparams((1, 2, rate, n, "NONE", "not compressed"))
            for lo in range(0, n, _PCM_CHUNK):
                hi = min(lo + _PCM_CHUNK, n)
                c = _mean_of(mix.tracks, lo, hi, buf[:hi - lo])
                peak = max(c.max(), -c.min())  # both propagate NaN
                if not math.isfinite(peak):
                    raise ValueError("samples must be finite")
                if peak > 1.0:
                    raise ValueError("samples must lie in [-1, 1]")
                c *= PCM_FULL_SCALE
                np.rint(c, out=c)
                w.writeframesraw(c.astype("<i2"))
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
