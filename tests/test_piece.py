"""Acceptance test: the bundled scenario plays as scored.

The piece has three rules: stillness opens the sound, motion mutes it,
and muscle tension sets the mix.  ensemble_9min.json writes them down
per pose, so this reads them back out of the control chain, performer by
performer, through records_to_frames, MotionTracker, EnvelopeTracker and
map_orientation.  A hold is [pose start + TRANSITION_S, pose end): the
generator lerps the orientation and bursts the IMU during the transition
before it.  Every failure names the performer, the pose and the quantity.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from myobridge import session
from myobridge.fusion import EulerAngles, MotionTracker
from myobridge.mapping import EMG_FULL_SCALE, EnvelopeTracker, map_orientation
from myobridge.protocol import EmgFrame

# stated tolerances, each above what seed 1 gives
ENVELOPE_TOL = 0.02        # measured 0.0154: the EMG jitter floor
BASE_OCTAVE_TOL = 0.01     # measured 0.0002 octave
RISE_TOL_S = 0.04          # two control ticks
# the gain first reads 1 this long into a pose: the 30 s ramp from the
# first frame, or after a transition the mute, the gate's decay and the
# ramp (measured 32.22 s)
FIRST_RISE_S = 30.0
LATER_RISE_S = 32.22


@dataclass
class Ticks:
    """One performer's control ticks, one row per IMU frame."""

    t_s: np.ndarray
    gain: np.ndarray
    envelopes: np.ndarray  # (ticks, 8)
    base_freq: np.ndarray


def _ticks(log) -> Ticks:
    tracker, envelopes = MotionTracker(), EnvelopeTracker()
    t_s, gain, env, base = [], [], [], []
    for frame in session.records_to_frames(log):
        if isinstance(frame, EmgFrame):
            envelopes.push(frame)
            continue
        state = tracker.update(frame)
        t_s.append(frame.t_us / 1e6)
        gain.append(state.master_gain)
        env.append(envelopes.envelopes())
        base.append(map_orientation(state.euler)[0])
    return Ticks(np.array(t_s), np.array(gain), np.array(env),
                 np.array(base))


@pytest.fixture(scope="module")
def piece():
    """(performer, pose index, pose, pose start in s, the performer's
    Ticks, the pose's tick mask, its hold's tick mask) for every pose of
    the bundled scenario at seed 1."""
    scenario = session.default_scenario()
    poses = []
    for p, (script, log) in enumerate(
            zip(scenario.performers, session.generate_scenario(scenario, 1))):
        ticks = _ticks(log)
        start = 0.0
        for k, pose in enumerate(script.poses):
            end = start + pose.duration_s
            in_pose = (ticks.t_s >= start) & (ticks.t_s < end)
            hold = (ticks.t_s >= start + session.TRANSITION_S) & in_pose
            poses.append((p, k, pose, start, ticks, in_pose, hold))
            start = end
    return poses


def test_the_bundled_piece_has_four_performers_of_four_poses(piece):
    assert len(piece) == 16
    assert all(hold.any() for *_, hold in piece)


def test_tension_sets_each_channels_envelope_in_every_hold(piece):
    failures = []
    for p, k, pose, _, ticks, _, hold in piece:
        medians = np.median(ticks.envelopes[hold], axis=0)
        for ch, (got, tension) in enumerate(zip(medians, pose.tension)):
            want = tension * 127 / EMG_FULL_SCALE
            if not abs(got - want) <= ENVELOPE_TOL:
                failures.append(f"performer {p} pose {k}: channel {ch} "
                                f"median envelope {got:.4f}, want {want:.4f}")
    assert not failures, "\n".join(failures)


def test_orientation_sets_the_base_frequency_in_every_hold(piece):
    failures = []
    for p, k, pose, _, ticks, _, hold in piece:
        want = map_orientation(EulerAngles(*pose.orientation))[0]
        got = float(np.median(ticks.base_freq[hold]))
        off = abs(math.log2(got / want))
        if not off <= BASE_OCTAVE_TOL:
            failures.append(f"performer {p} pose {k}: median base frequency "
                            f"{got:.2f} Hz, want {want:.2f} Hz "
                            f"({off:.4f} octave off)")
    assert not failures, "\n".join(failures)


def test_motion_mutes_and_stillness_opens_the_gain(piece):
    failures = []
    for p, k, _, start, ticks, in_pose, _ in piece:
        t, gain = ticks.t_s[in_pose] - start, ticks.gain[in_pose]
        where = f"performer {p} pose {k}"
        rise_from, rise_s = 0, FIRST_RISE_S
        if k > 0:
            zeros = np.flatnonzero((gain == 0.0)
                                   & (t < session.TRANSITION_S))
            if not len(zeros):
                failures.append(f"{where}: gain never reads 0 in the "
                                f"transition (min {gain.min()})")
                continue
            rise_from, rise_s = zeros[0], LATER_RISE_S
        ones = np.flatnonzero(gain[rise_from:] == 1.0)
        if not len(ones):
            failures.append(f"{where}: gain never reads 1")
            continue
        first = t[rise_from + ones[0]]
        if not abs(first - rise_s) <= RISE_TOL_S:
            failures.append(f"{where}: gain first reads 1 at {first:.2f} s "
                            f"into the pose, want {rise_s} s")
        if gain[-1] != 1.0:
            failures.append(f"{where}: gain at the last tick {gain[-1]}, "
                            f"want 1")
    assert not failures, "\n".join(failures)
