"""Gesture-to-sound parameter mapping.

Eight EMG envelopes pick the oscillator mix; orientation shapes the sound:
pitch angle sets the base frequency (exponentially, so equal angle steps
sound like equal intervals), yaw fans the remaining oscillators out from
unison into a stretched harmonic series, and roll raises distortion drive.
The stillness gate's master gain passes through untouched, so amplitude,
timbre, and gating stay independently testable.

The mapping's ranges are module constants, not options: the base frequency
spans F_LO..F_HI (110-880 Hz, three octaves), yaw fans the partials out by
up to SPREAD_MAX, roll drives the waveshaper up to DRIVE_MAX, and the EMG
RMS window is WINDOW_SAMPLES (40 ms at 200 Hz).  The piece plays one
mapping and no caller sets another; a CLI or score file that needs a
different one brings the option back with it.  Only assemble_params'
sample_rate varies, with the renderer's output rate.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .fusion import EulerAngles
from .protocol import EMG_RATE_HZ, EmgFrame

logger = logging.getLogger(__name__)

N_OSCILLATORS = 8
EMG_FULL_SCALE = 128.0
NYQUIST_FRACTION = 0.45
F_LO = 110.0
F_HI = 880.0
SPREAD_MAX = 0.5
DRIVE_MAX = 4.0
WINDOW_SAMPLES = round(0.04 * EMG_RATE_HZ)  # 8


@dataclass(frozen=True)
class EmgEnvelopes:
    """Eight per-channel activation envelopes in [0, 1]."""

    env: tuple[float, ...]

    def __post_init__(self):
        if len(self.env) != N_OSCILLATORS:
            raise ValueError(f"need {N_OSCILLATORS} envelopes, got {len(self.env)}")
        if any(not 0.0 <= e <= 1.0 for e in self.env):
            raise ValueError("envelope values must lie in [0, 1]")


@dataclass(frozen=True)
class SynthParams:
    """One control tick's oscillator settings."""

    freqs: tuple[float, ...]
    amps: tuple[float, ...]
    drive: float
    master_gain: float


def emg_envelope(history: Sequence[EmgFrame]) -> EmgEnvelopes:
    """Moving RMS of the signed samples, normalized to [0, 1].

    The window is the last WINDOW_SAMPLES frames; a shorter history is
    zero-padded, so envelopes rise from silence rather than jumping.
    Squares of the int8 samples are summed as exact integers, one pass
    per frame; every sum stays far below 2**53, so each is the float a
    float accumulator would reach.
    """
    n = WINDOW_SAMPLES
    s0 = s1 = s2 = s3 = s4 = s5 = s6 = s7 = 0
    for frame in history[-n:]:
        c0, c1, c2, c3, c4, c5, c6, c7 = frame.channels
        s0 += c0 * c0
        s1 += c1 * c1
        s2 += c2 * c2
        s3 += c3 * c3
        s4 += c4 * c4
        s5 += c5 * c5
        s6 += c6 * c6
        s7 += c7 * c7
    return EmgEnvelopes(env=tuple([
        min(1.0, math.sqrt(acc / n) / EMG_FULL_SCALE)
        for acc in (s0, s1, s2, s3, s4, s5, s6, s7)]))


class EnvelopeTracker:
    """Rolling EMG window for one performer; push at 200 Hz, read at 50 Hz."""

    def __init__(self):
        self._window: deque[EmgFrame] = deque(maxlen=WINDOW_SAMPLES)

    def push(self, frame: EmgFrame) -> None:
        self._window.append(frame)

    def envelopes(self) -> EmgEnvelopes:
        return emg_envelope(list(self._window))


def map_orientation(euler: EulerAngles) -> tuple[float, float, float]:
    """Orientation to (base_freq, spread, drive).

    base_freq is exponential in pitch with endpoints exactly F_LO/F_HI;
    spread is linear in yaw over (-pi, pi]; drive is linear in |roll|.
    """
    octaves = math.log2(F_HI / F_LO)
    base_freq = F_LO * 2.0 ** (
        (euler.pitch + math.pi / 2.0) / math.pi * octaves)
    spread = SPREAD_MAX * (euler.yaw + math.pi) / (2.0 * math.pi)
    drive = 1.0 + (DRIVE_MAX - 1.0) * abs(euler.roll) / math.pi
    return base_freq, spread, drive


def assemble_params(env: EmgEnvelopes, base_freq: float, spread: float,
                    drive: float, master_gain: float,
                    sample_rate: float = 44100.0) -> SynthParams:
    """Fan oscillator k out to base_freq * (1 + k * spread); amps from EMG.

    Partials at or above Nyquist are clamped to 0.45 * sample_rate with a
    warning rather than erroring out mid-performance.
    """
    freqs = [base_freq * (1.0 + k * spread) for k in range(N_OSCILLATORS)]
    # A NaN first partial hides every other from max(), so the test is
    # "not below" rather than ">=": that runs the loop, which is exact.
    nyquist = sample_rate / 2.0
    if not max(freqs) < nyquist:
        limit = NYQUIST_FRACTION * sample_rate
        clamped = 0
        for k, f in enumerate(freqs):
            if f >= nyquist:
                clamped += 1
                freqs[k] = limit
        if clamped:
            logger.warning("clamped %d partial(s) above Nyquist to %.0f Hz",
                           clamped, limit)
    return SynthParams(freqs=tuple(freqs), amps=env.env, drive=drive,
                       master_gain=master_gain)
