"""Acceptance test: the bundled scenario plays as scored.

The piece has three rules: stillness opens the sound, motion mutes it,
and muscle tension sets the mix.  ensemble_9min.json writes them down
per pose, so this reads them back out of the control chain, performer by
performer, through records_to_frames and PerformerPipeline.  A hold is
[pose start + TRANSITION_S, pose end): the generator lerps the
orientation and bursts the IMU during the transition before it.  Every
failure names the performer, the pose and the quantity.
A property then checks the same rules, within the same tolerances, on any
one-performer scenario whose poses last long enough for the gate to reopen,
and a short one-performer render checks them in the audio itself.
"""

import math
import wave
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myobridge import pipeline, session
from myobridge.fusion import RAMP_S, EulerAngles
from myobridge.mapping import EMG_FULL_SCALE, assemble_params, map_orientation
from myobridge.pipeline import PerformerPipeline
from myobridge.protocol import EMG_CHANNELS, INT8_MAX

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
    envelopes: np.ndarray  # (ticks, EMG channels)
    base_freq: np.ndarray


def _ticks(p, log) -> Ticks:
    pipeline = PerformerPipeline(p)
    t_s, gain, env, base = [], [], [], []
    for frame in session.records_to_frames(log):
        tick = pipeline.step(frame)
        if tick is None:  # an EMG frame
            continue
        state, params, _ = tick
        t_s.append(frame.t_us / 1e6)
        gain.append(state.master_gain)
        env.append(params.amps)
        # map_orientation's base, times 1.0 + 0 * spread
        base.append(params.freqs[0])
    return Ticks(np.array(t_s), np.array(gain), np.array(env),
                 np.array(base))


def _poses(p, script, log):
    """(performer, pose index, pose, pose start in s, the performer's
    Ticks, the pose's tick mask, its hold's tick mask) for every pose of
    performer p, who played script into log."""
    ticks = _ticks(p, log)
    poses, start = [], 0.0
    for k, pose in enumerate(script.poses):
        end = start + pose.duration_s
        in_pose = (ticks.t_s >= start) & (ticks.t_s < end)
        hold = (ticks.t_s >= start + session.TRANSITION_S) & in_pose
        poses.append((p, k, pose, start, ticks, in_pose, hold))
        start = end
    return poses


@pytest.fixture(scope="module")
def piece(bundled_logs):
    """_poses of every performer of the bundled scenario at seed 1."""
    scenario = session.default_scenario()
    return [row for p, (script, log) in enumerate(zip(scenario.performers,
                                                      bundled_logs))
            for row in _poses(p, script, log)]


def test_the_bundled_piece_has_four_performers_of_four_poses(piece):
    assert len(piece) == 16
    assert all(hold.any() for *_, hold in piece)


def _envelope_failures(poses):
    failures = []
    for p, k, pose, _, ticks, _, hold in poses:
        medians = np.median(ticks.envelopes[hold], axis=0)
        for ch, (got, tension) in enumerate(zip(medians, pose.tension)):
            want = tension * INT8_MAX / EMG_FULL_SCALE
            if not abs(got - want) <= ENVELOPE_TOL:
                failures.append(f"performer {p} pose {k}: channel {ch} "
                                f"median envelope {got:.4f}, want {want:.4f}")
    return failures


def _base_frequency_failures(poses):
    failures = []
    for p, k, pose, _, ticks, _, hold in poses:
        want = map_orientation(EulerAngles(*pose.orientation))[0]
        got = float(np.median(ticks.base_freq[hold]))
        off = abs(math.log2(got / want))
        if not off <= BASE_OCTAVE_TOL:
            failures.append(f"performer {p} pose {k}: median base frequency "
                            f"{got:.2f} Hz, want {want:.2f} Hz "
                            f"({off:.4f} octave off)")
    return failures


def _gain_failures(poses):
    failures = []
    for p, k, _, start, ticks, in_pose, _ in poses:
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
    return failures


def test_tension_sets_each_channels_envelope_in_every_hold(piece):
    failures = _envelope_failures(piece)
    assert not failures, "\n".join(failures)


def test_orientation_sets_the_base_frequency_in_every_hold(piece):
    failures = _base_frequency_failures(piece)
    assert not failures, "\n".join(failures)


def test_motion_mutes_and_stillness_opens_the_gain(piece):
    failures = _gain_failures(piece)
    assert not failures, "\n".join(failures)


# The shortest pose the property plays: the transition, the ramp and a
# second of full gain.  Angles stay in EulerAngles' ranges, where a pose's
# pitch is the pitch fusion reads back.
MIN_POSE_S = session.TRANSITION_S + RAMP_S + 1.0
_POSE = st.builds(
    session.Pose,
    duration_s=st.floats(MIN_POSE_S, MIN_POSE_S + 4.0),
    orientation=st.tuples(st.floats(-math.pi, math.pi),
                          st.floats(-math.pi / 2, math.pi / 2),
                          st.floats(-math.pi, math.pi)),
    tension=st.tuples(*[st.floats(0.0, 1.0)] * EMG_CHANNELS))


@settings(max_examples=5, deadline=None)
@given(st.lists(_POSE, min_size=1, max_size=3), st.integers(0, 2**32 - 1))
def test_any_one_performer_scenario_plays_as_scored(poses, seed):
    script = session.PerformerScript(tuple(poses))
    (log,) = session.generate_scenario(session.Scenario((script,)), seed)
    rows = _poses(0, script, log)
    failures = (_envelope_failures(rows) + _base_frequency_failures(rows)
                + _gain_failures(rows))
    assert not failures, "\n".join(failures)


# a move from the first pose into a held, tensed one, yaw fanning the
# partials 78 Hz apart
_MOVE_THEN_HOLD = session.PerformerScript((
    session.Pose(1.0, (0.0, 0.3, -1.0), (0.0,) * EMG_CHANNELS),
    session.Pose(5.0, (0.0, 0.0, 0.0), (0.0, 0.8, 0.0, 0.0, 0.6, 0.0, 0.9,
                                        0.0))))


def test_the_rendered_audio_is_silent_while_muted_and_holds_its_partials(
        tmp_path):
    (log,) = session.generate_scenario(session.Scenario((_MOVE_THEN_HOLD,)),
                                       1)
    session.record(log, tmp_path / "take.log")
    pipeline.render([tmp_path / "take.log"], tmp_path / "take.wav")
    with wave.open(str(tmp_path / "take.wav"), "rb") as w:
        pcm = np.frombuffer(w.readframes(w.getnframes()), "<i2")
    rate = pipeline.SAMPLE_RATE

    # a block ramps from the previous tick's gain to its own tick's
    ticks = _ticks(0, log)
    ends = [pipeline._tick_end(round(t * 1e6)) for t in ticks.t_s]
    muted = [(lo, hi) for lo, hi, before, gain in zip(
        ends, ends[1:], ticks.gain, ticks.gain[1:])
        if before == 0.0 and gain == 0.0]
    assert len(muted) >= session.TRANSITION_S * 50  # the move mutes
    loud = [lo for lo, hi in muted if pcm[lo:hi].any()]
    assert not loud, f"{len(loud)} muted blocks sound, from sample {loud[0]}"

    # the last second of the hold, gain open, against the partials
    # assemble_params names for its pose
    hold = _MOVE_THEN_HOLD.poses[-1]
    start, stop = round(5.0 * rate), round(6.0 * rate)
    assert ticks.gain[ticks.t_s >= 5.0].min() > 0.0
    window = pcm[start:stop] * np.hanning(stop - start)
    spectrum = np.abs(np.fft.rfft(window))
    hz_per_bin = rate / (stop - start)
    params = assemble_params(hold.tension, *map_orientation(
        EulerAngles(*hold.orientation)), 1.0)
    gap_bins = round((params.freqs[1] - params.freqs[0]) / hz_per_bin)
    heights = []  # the spectrum's peak between each partial's neighbours
    for ch, freq in enumerate(params.freqs):
        at = freq / hz_per_bin
        lo = round(at) - gap_bins // 2
        peak = lo + int(np.argmax(spectrum[lo:lo + gap_bins]))
        heights.append(spectrum[peak])
        assert not hold.tension[ch] or abs(peak - at) <= 1.0, (
            f"channel {ch}: spectrum peaks at {peak * hz_per_bin:.1f} Hz, "
            f"partial at {freq:.1f} Hz")
    # tension sets the mix: the jitter floor's envelope is about 0.016
    tensed = [h for h, tension in zip(heights, hold.tension) if tension]
    relaxed = [h for h, tension in zip(heights, hold.tension) if not tension]
    assert min(tensed) > 10 * max(relaxed)
