"""Gesture-to-sound parameter mapping.

Eight EMG envelopes pick the oscillator mix; orientation shapes the sound:
pitch angle sets the base frequency (exponentially, so equal angle steps
sound like equal intervals), yaw fans the remaining oscillators out from
unison into a stretched harmonic series, and roll raises distortion drive.
The stillness gate's master gain passes through untouched, so amplitude,
timbre, and gating stay independently testable.
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


@dataclass(frozen=True)
class MapConfig:
    f_lo: float = 110.0
    f_hi: float = 880.0
    spread_max: float = 0.5
    drive_max: float = 4.0
    rms_window_s: float = 0.04

    def __post_init__(self):
        if not 0 < self.f_lo < self.f_hi:
            raise ValueError("need 0 < f_lo < f_hi")
        if self.spread_max < 0:
            raise ValueError("spread_max must be >= 0")
        if self.drive_max < 1:
            raise ValueError("drive_max must be >= 1")


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


def window_samples(cfg: MapConfig) -> int:
    return max(1, round(cfg.rms_window_s * EMG_RATE_HZ))


def emg_envelope(history: Sequence[EmgFrame],
                 cfg: MapConfig = MapConfig()) -> EmgEnvelopes:
    """Moving RMS of the signed samples, normalized to [0, 1].

    The window is cfg.rms_window_s (8 samples at 200 Hz by default); a
    shorter history is zero-padded, so envelopes rise from silence rather
    than jumping.
    """
    n = window_samples(cfg)
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

    def __init__(self, cfg: MapConfig = MapConfig()):
        self.cfg = cfg
        self._window: deque[EmgFrame] = deque(maxlen=window_samples(cfg))

    def push(self, frame: EmgFrame) -> None:
        self._window.append(frame)

    def envelopes(self) -> EmgEnvelopes:
        if not self._window:
            return SILENT_ENVELOPES
        return emg_envelope(list(self._window), self.cfg)


def map_orientation(euler: EulerAngles, cfg: MapConfig = MapConfig()
                    ) -> tuple[float, float, float]:
    """Orientation to (base_freq, spread, drive).

    base_freq is exponential in pitch with endpoints exactly f_lo/f_hi;
    spread is linear in yaw over (-pi, pi]; drive is linear in |roll|.
    """
    octaves = math.log2(cfg.f_hi / cfg.f_lo)
    base_freq = cfg.f_lo * 2.0 ** (
        (euler.pitch + math.pi / 2.0) / math.pi * octaves)
    spread = cfg.spread_max * (euler.yaw + math.pi) / (2.0 * math.pi)
    drive = 1.0 + (cfg.drive_max - 1.0) * abs(euler.roll) / math.pi
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
