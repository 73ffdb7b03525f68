"""Offline additive synthesis: eight-oscillator bank, waveshaping, mixdown,
and 16-bit WAV output.

The renderer is a desk-scale stand-in for an embedded audio engine, built
for reproducibility: phases accumulate in 64-bit integers (wrap-exact, so
rendering is bit-identical regardless of how a span is split into blocks),
and identical parameter sequences always produce identical samples.

Per sample: s = sum_k amps[k] * sin(phase_k) / 8, then the normalized
waveshaper tanh(drive * s) / tanh(drive), then the master gain.  Parameters
changing between blocks are linearly interpolated across the block.

A block is computed oscillator-major: each per-sample path (the four
parameter ramps, the integer phase increments and their running sum, the
phases and their sines) is an (8, n) array, one contiguous row per
oscillator.

A muted block, master gain exactly 0 at both ends, renders exact zeros
without computing sin, mix or waveshaper; its phases still advance by the
same integer increments, so whatever follows is unchanged.  This holds for
the parameters the mapping produces (amps in [0, 1], finite drive >= 1);
a muted block outside that range is rendered in full, so a NaN it makes
still reaches write_wav's finite check.  Its samples are a read-only,
stride-0 view of one immutable +0.0: silence held for a whole piece
takes no sample memory.

Mixdown and PCM output work in bounded memory.  mix_performers checks
its tracks and returns a block that holds them; the mean is computed a
chunk at a time when it is read.  write_wav pulls fixed-size chunks
through one buffer, so writing a mix never builds it whole.  write_wav
checks every chunk before it opens the file, so a refused input writes
no file.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .mapping import N_OSCILLATORS, SynthParams

# Phase lives in uint64 turns: 2**64 == one full cycle.
_PHASE_MODULUS = 2.0 ** 64
_PHASE_TO_RADIANS = 2.0 * math.pi / _PHASE_MODULUS

PCM_FULL_SCALE = 32767.0
# samples per write_wav chunk: 512 KiB of float64 working memory
_PCM_CHUNK = 1 << 16
# the WAV header holds the byte rate, 2 bytes per mono sample, as a uint32
_WAV_MAX_RATE = 0xFFFFFFFF // 2
# the one +0.0 every muted block's stride-0 view reads; bytes are
# immutable, so the views are read-only
_SILENCE = bytes(8)


class LengthMismatchError(ValueError):
    pass


class RateMismatchError(ValueError):
    pass


@dataclass
class AudioBlock:
    """Mono float samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: float

    def _size(self) -> int:
        return len(self.samples)

    def _chunk(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Samples [lo, hi) as float64 in out, hi - lo scratch samples."""
        out[...] = self.samples[lo:hi]
        return out


class _Mix(AudioBlock):
    """The samplewise mean of equal-length tracks, computed when read.

    samples builds the whole mean once and keeps it; _chunk computes a
    part of it without building the rest.
    """

    def __init__(self, tracks: list, sample_rate: float):
        self._tracks = tracks
        self.sample_rate = sample_rate
        self._mean: Optional[np.ndarray] = None

    @property
    def samples(self) -> np.ndarray:
        if self._mean is None:
            n = self._size()
            self._mean = self._chunk(0, n, np.empty(n))
        return self._mean

    def _size(self) -> int:
        return len(self._tracks[0])

    def _chunk(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        # from +0.0, in track order, then one division: bit for bit
        # np.stack(...).sum(axis=0) / n, whose sum also starts from +0.0
        # (so -0.0 comes out +0.0)
        out.fill(0.0)
        for t in self._tracks:
            out += t[lo:hi]
        out /= len(self._tracks)
        return out


class OscillatorBank:
    """Eight phase accumulators plus the previous block's parameters.

    Single-owner: one bank per performer, rendered in stream order.
    """

    def __init__(self, sample_rate: float = 44100.0):
        if not 0 < sample_rate < math.inf:  # NaN fails too
            raise ValueError(
                f"sample_rate must be finite and positive: {sample_rate}")
        self.sample_rate = float(sample_rate)
        self._acc = np.zeros(N_OSCILLATORS, dtype=np.uint64)
        self._prev_params: Optional[SynthParams] = None

    @property
    def phases(self) -> np.ndarray:
        """Current phases in radians, wrapped to [0, 2*pi)."""
        return self._acc.astype(np.float64) * _PHASE_TO_RADIANS


def _skip_is_exact(prev: SynthParams, params: SynthParams) -> bool:
    """True when a muted block renders exact zeros under the full formula.

    With amps in [0, 1] (as EmgEnvelopes holds them) and a finite drive
    >= 1 (as map_orientation gives it) at both ends, every waveshaper
    output is finite, so gain 0 times it is 0.  Outside that range a
    muted block can still be NaN (a NaN or inf amp or drive, drive 0 as
    0/0, amps large enough that the mix overflows), and must be rendered
    so that write_wav's finite check sees it.
    """
    return (all(0.0 <= a <= 1.0 for a in prev.amps + params.amps)
            and 1.0 <= prev.drive < math.inf
            and 1.0 <= params.drive < math.inf)


def render_block(bank: OscillatorBank, params: SynthParams,
                 n: int) -> AudioBlock:
    """Render n samples, ramping from the bank's previous parameters.

    Phase persists across calls; with constant parameters, rendering
    n1 + n2 samples equals rendering n1 then n2 (sample-exact), muted
    blocks included.  A muted block's samples are a read-only view of
    shared zeros (+0.0, float64): writing into them raises ValueError.
    """
    if n <= 0:
        raise ValueError("sample count must be positive")
    prev = bank._prev_params or params
    bank._prev_params = params

    t = np.arange(1, n + 1, dtype=np.float64) / n
    f0 = np.asarray(prev.freqs)[:, None]
    freqs = f0 + (np.asarray(params.freqs)[:, None] - f0) * t
    increments = np.round(
        freqs * (_PHASE_MODULUS / bank.sample_rate)).astype(np.uint64)

    if (params.master_gain == 0.0 and prev.master_gain == 0.0
            and _skip_is_exact(prev, params)):
        bank._acc = bank._acc + increments.sum(axis=1, dtype=np.uint64)
        silence = np.ndarray(n, np.float64, _SILENCE, strides=(0,))
        return AudioBlock(samples=silence, sample_rate=bank.sample_rate)

    acc_path = np.cumsum(increments, axis=1, dtype=np.uint64)
    acc_path += bank._acc[:, None]
    bank._acc = acc_path[:, -1].copy()

    a0 = np.asarray(prev.amps)[:, None]
    amps = a0 + (np.asarray(params.amps)[:, None] - a0) * t
    d0, g0 = np.float64(prev.drive), np.float64(prev.master_gain)
    drive = d0 + (np.float64(params.drive) - d0) * t
    gain = g0 + (np.float64(params.master_gain) - g0) * t

    x = acc_path.astype(np.float64)
    x *= _PHASE_TO_RADIANS
    np.sin(x, out=x)
    x *= amps
    # numpy's sum over a contiguous axis of 8 adds pairwise in exactly this
    # order, so the mix equals the row-major (n, 8).sum(axis=1) bit for bit.
    s = ((x[0] + x[1]) + (x[2] + x[3])) + ((x[4] + x[5]) + (x[6] + x[7]))
    s /= N_OSCILLATORS
    shaped = np.tanh(drive * s) / np.tanh(drive)
    return AudioBlock(samples=gain * shaped, sample_rate=bank.sample_rate)


def mix_performers(blocks: Sequence[AudioBlock]) -> AudioBlock:
    """Samplewise mean across performers; never clips for inputs in [-1, 1].

    The checks run now; the mean does not.  The block returned holds the
    tracks, and its mean is computed from +0.0, in track order, then
    divided: bit for bit np.stack(...).sum(axis=0) / n.  write_wav
    computes it a chunk at a time; reading .samples builds it whole, once.
    So the arithmetic, and any numpy floating-point warning it gives,
    happens when the mix is read or written, and the tracks must not be
    changed before then.
    """
    if not blocks:
        raise ValueError("nothing to mix")
    length = len(blocks[0].samples)
    rate = blocks[0].sample_rate
    for b in blocks[1:]:
        if len(b.samples) != length:
            raise LengthMismatchError(
                f"block lengths differ: {len(b.samples)} vs {length}")
        if b.sample_rate != rate:
            raise RateMismatchError(
                f"sample rates differ: {b.sample_rate} vs {rate}")
    return _Mix([b.samples for b in blocks], rate)


def write_wav(block: AudioBlock, path) -> None:
    """Write mono 16-bit PCM, little-endian; byte-exact across runs.

    Sample s maps to rint(s * 32767).  Samples must be finite and within
    [-1, 1]; the renderer guarantees that bound.  The sample rate must be
    a whole number of Hz that the header can hold.  The rate and every
    chunk are checked before the file is opened, so a refused input
    (ValueError) writes no file.  The conversion then runs chunk by chunk
    through one _PCM_CHUNK-sample buffer, so its working memory does not
    grow with the length.  A block from mix_performers is mixed chunk by
    chunk into that buffer in both passes and is never built whole.
    """
    rate = block.sample_rate
    if not (0 < rate <= _WAV_MAX_RATE and float(rate).is_integer()):
        raise ValueError(
            f"sample_rate must be a whole number of Hz in 1..{_WAV_MAX_RATE}:"
            f" {rate}")
    n = block._size()
    buf = np.empty(min(n, _PCM_CHUNK))
    spans = [(lo, min(lo + _PCM_CHUNK, n)) for lo in range(0, n, _PCM_CHUNK)]
    out_of_range = False
    for lo, hi in spans:
        chunk = block._chunk(lo, hi, buf[:hi - lo])
        peak = np.max(np.abs(chunk, out=chunk))
        if not math.isfinite(peak):  # max propagates NaN
            raise ValueError("samples must be finite")
        # keep looking: a NaN further on is reported as such
        out_of_range = out_of_range or peak > 1.0
    if out_of_range:
        raise ValueError("samples must lie in [-1, 1]")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(int(rate))
        # the header is written once, with the final length, so the raw
        # writes need no header patch per chunk
        w.setnframes(n)
        for lo, hi in spans:
            c = block._chunk(lo, hi, buf[:hi - lo])
            c *= PCM_FULL_SCALE
            np.rint(c, out=c)
            w.writeframesraw(c.astype("<i2"))
