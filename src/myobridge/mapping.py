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


SILENT_ENVELOPES = EmgEnvelopes(env=(0.0,) * N_OSCILLATORS)


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
    """
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
    return EmgEnvelopes(env=tuple(env))


class EnvelopeTracker:
    """Rolling EMG window for one performer; push at 200 Hz, read at 50 Hz."""

    def __init__(self):
        self._window: deque[EmgFrame] = deque(maxlen=WINDOW_SAMPLES)

    def push(self, frame: EmgFrame) -> None:
        self._window.append(frame)

    def envelopes(self) -> EmgEnvelopes:
        if not self._window:
            return SILENT_ENVELOPES
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
    limit = NYQUIST_FRACTION * sample_rate
    freqs = []
    clamped = 0
    for k in range(N_OSCILLATORS):
        f = base_freq * (1.0 + k * spread)
        if f >= sample_rate / 2.0:
            clamped += 1
            f = limit
        freqs.append(f)
    if clamped:
        logger.warning("clamped %d partial(s) above Nyquist to %.0f Hz",
                       clamped, limit)
    return SynthParams(freqs=tuple(freqs), amps=env.env, drive=drive,
                       master_gain=master_gain)
