"""Gesture-to-sound parameter mapping.

Each EMG channel's envelope sets one oscillator's amplitude, so there is
one oscillator per channel (N_OSCILLATORS is protocol.EMG_CHANNELS, 8).
Orientation shapes the sound: pitch angle sets the base frequency
(exponentially, so equal angle steps sound like equal intervals), yaw fans
the remaining oscillators out from unison into a stretched harmonic series,
and roll raises distortion drive.
The stillness gate's master gain passes through untouched, so amplitude,
timbre, and gating stay independently testable.

The envelopes are a plain tuple of floats in [0, 1], one per channel, as
EnvelopeTracker.envelopes makes them; SynthParams.amps is that tuple.  The
tracker keeps the last WINDOW_SAMPLES frames' squares and sums them per
channel when read, against EMG_FULL_SCALE, the int8 magnitude (128).
SynthParams is a NamedTuple: immutable and hashable, and it compares as
the tuple of its fields, so a bank's previous parameters cannot change
behind its back.

assemble_params and EnvelopeTracker.envelopes run every control tick, so
they are written for its cost, with the same floats as the plain forms:
assemble_params builds SynthParams with tuple.__new__, the same value as
SynthParams(...) without a call of the generated __new__, a Python
function, and envelopes compares each sum with _FULL_SUM instead of
calling min(1.0, ...) per channel, NaN included.

The mapping's ranges are module constants, not options: the base frequency
spans F_LO..F_HI (110-880 Hz, three octaves), yaw fans the partials out by
up to SPREAD_MAX, roll drives the waveshaper up to DRIVE_MAX, and the EMG
RMS window is WINDOW_SAMPLES (40 ms at 200 Hz).  The piece plays one
mapping and no caller sets another; a CLI or score file that needs a
different one brings the option back with it.  The highest partial it
can produce, F_TOP (F_HI fanned out by SPREAD_MAX, 3960 Hz), is a
constant too, so assemble_params checks its sample_rate, not its
partials: the rate must be finite and above 8800 Hz, which keeps F_TOP
under NYQUIST_FRACTION of it.
"""

from __future__ import annotations

import math
from collections import deque
from operator import mul
from typing import NamedTuple

from .fusion import EulerAngles
from .protocol import EMG_CHANNELS, EMG_RATE_HZ, INT8_MIN, EmgFrame

N_OSCILLATORS = EMG_CHANNELS
EMG_FULL_SCALE = float(-INT8_MIN)  # 128.0
NYQUIST_FRACTION = 0.45
F_LO = 110.0
F_HI = 880.0
SPREAD_MAX = 0.5
DRIVE_MAX = 4.0
WINDOW_SAMPLES = round(0.04 * EMG_RATE_HZ)  # 8
F_TOP = F_HI * (1.0 + (N_OSCILLATORS - 1) * SPREAD_MAX)  # 3960.0
_OCTAVES = math.log2(F_HI / F_LO)
# The window sum of squares at full scale: sqrt(_FULL_SUM / WINDOW_SAMPLES)
# / EMG_FULL_SCALE is exactly 1.0, and every sum at or above it (or NaN)
# reads 1.0, as min(1.0, ...) would give.
_FULL_SUM = WINDOW_SAMPLES * INT8_MIN ** 2  # 131 072


class SynthParams(NamedTuple):
    """One control tick's oscillator settings."""

    freqs: tuple[float, ...]
    amps: tuple[float, ...]
    drive: float
    master_gain: float


class EnvelopeTracker:
    """Rolling EMG window for one performer; push at 200 Hz, read at 50 Hz."""

    def __init__(self):
        self._window: deque[tuple[int, ...]] = deque(maxlen=WINDOW_SAMPLES)

    def push(self, frame: EmgFrame) -> None:
        self._window.append(tuple(map(mul, frame.channels, frame.channels)))

    def envelopes(self) -> tuple[float, ...]:
        """Moving RMS of the signed samples, normalized to [0, 1].

        The window is the last WINDOW_SAMPLES frames pushed; a shorter
        history is zero-padded, so envelopes rise from silence rather than
        jumping.  The squares are summed per channel as exact integers;
        every sum stays far below 2**53, so each is the float a float
        accumulator would reach.
        """
        sums = list(map(sum, zip(*self._window))) or [0] * N_OSCILLATORS
        return tuple([math.sqrt(acc / WINDOW_SAMPLES) / EMG_FULL_SCALE
                      if acc < _FULL_SUM else 1.0 for acc in sums])


def map_orientation(euler: EulerAngles) -> tuple[float, float, float]:
    """Orientation to (base_freq, spread, drive).

    base_freq is exponential in pitch with endpoints exactly F_LO/F_HI;
    spread is linear in yaw over (-pi, pi]; drive is linear in |roll|.
    """
    base_freq = F_LO * 2.0 ** (
        (euler.pitch + math.pi / 2.0) / math.pi * _OCTAVES)
    spread = SPREAD_MAX * (euler.yaw + math.pi) / (2.0 * math.pi)
    drive = 1.0 + (DRIVE_MAX - 1.0) * abs(euler.roll) / math.pi
    return base_freq, spread, drive


def assemble_params(env: tuple[float, ...], base_freq: float, spread: float,
                    drive: float, master_gain: float,
                    sample_rate: float = 44100.0) -> SynthParams:
    """Fan oscillator k out to base_freq * (1 + k * spread); amps are env.

    Raises ValueError unless sample_rate keeps F_TOP, the highest partial
    map_orientation's ranges can make, under NYQUIST_FRACTION * sample_rate:
    sample_rate must be finite and above 8800 Hz.  The partials themselves
    are not checked, since within those ranges none can reach the limit.
    """
    if not F_TOP < NYQUIST_FRACTION * sample_rate < math.inf:
        raise ValueError(
            f"sample_rate must be finite and above "
            f"{F_TOP / NYQUIST_FRACTION:.0f} Hz to keep F_TOP under "
            f"{NYQUIST_FRACTION} of it, got {sample_rate!r}")
    freqs = [base_freq * (1.0 + k * spread) for k in range(N_OSCILLATORS)]
    return tuple.__new__(SynthParams, (tuple(freqs), env, drive,
                                       master_gain))
