"""One control chain: logs or dongle bytes in, OSC datagrams and a WAV out.

A PerformerPipeline is one performer's chain: frames decoded from the wire
(feed) or scaled from a log go through fusion, mapping and osc, one
control tick per IMU frame.  render writes the performers' mix, rendering
each one's audio into each buffer the WAV writer reads, so its memory is
one read's buffer and the synth's fixed scratch per performer: it grows
neither with the length of the piece nor with a gap between IMU ticks.

Render timing: a tick renders its performer's track up to its own time
plus one block (_tick_end): a lost tick lengthens the next block instead
of shifting the track.  The WAV lasts until the latest IMU tick's block
ends, so no block is cut.  A block ramps over its whole length, and its
bytes do not depend on where the reads cut it.

Failure ledger: on each fault, what the bridge does, the counter that
shows it (PerformerPipeline's or UdpSender's) and the test that pins it.

fault                   the bridge                    counter
degenerate quaternion   keeps the last orientation    motion.degenerate_frames
  test_fusion.py::test_tracker_holds_orientation_over_degenerate_quaternion
IMU gap over MAX_GAP_S  advances the gate one period  motion.gap_frames
  test_fusion.py::test_tracker_dropout_is_not_stillness
dropout in the render   renders the gap as one block, motion.gap_frames
                        each read's samples of it
                        into the read's own buffer,
                        so memory does not grow with
                        the gap
  test_pipeline.py::test_a_dropout_renders_in_memory_independent_of_the_gap
corrupt serial bytes    drops bad type bytes, skips   stream.bytes_dropped,
                        frames not notifications      rejected
  test_pipeline.py::test_no_wire_bytes_can_stop_the_bridge
valid frames a corrupt  lost unseen (ROADMAP item 3)  none
header's length covers
  test_protocol.py::test_corrupt_header_loses_no_valid_frame_unseen (xfail)
malformed log           refused, LogParseError        none
  test_session.py::test_any_bytes_give_records_then_at_most_one_refusal
failed send             counted, logged, not raised   send_errors
  test_osc.py::test_send_outage_logs_its_start_and_its_end_only
refused send            dropped, not retried          none
  test_osc.py::test_refused_datagram_costs_one_send_and_is_not_an_error
non-finite or out-of-   write_wav raises at the first none
range samples, a failed bad chunk, leaving the WAV's
WAV write               path as it was; its temporary
                        file is named afresh per call,
                        so no stale one is in the way
  test_synth.py::test_wav_refusal_reads_no_chunk_past_the_bad_one,
  test_synth.py::test_wav_failing_mid_write_leaves_path_as_it_was,
  test_synth.py::test_wav_is_written_past_a_stale_temporary_file;
  no log can reach the refusal of samples:
  test_pipeline.py::test_no_log_makes_the_render_refuse_its_samples
a WAV longer than its   write_wav raises before it    none
header holds (13.5 h;   reads a chunk or opens a file
a stray stamp)
  test_synth.py::test_wav_longer_than_its_header_holds_is_refused_unread
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import fusion, mapping, osc, protocol, session, synth

SAMPLE_RATE = 44100
BLOCK = round(SAMPLE_RATE / protocol.IMU_RATE_HZ)  # 882 samples per tick

Frame = Union[protocol.ImuFrame, protocol.EmgFrame]
Tick = tuple[fusion.MotionState, mapping.SynthParams, list[bytes]]


def _tick_end(t_us: int) -> int:
    """The sample at which the block of a tick stamped t_us ends."""
    return round(t_us * SAMPLE_RATE / 1e6) + BLOCK


class PerformerPipeline:
    """One performer's decode -> fusion -> mapping -> osc chain.

    frames_out counts the wire frames the stream framed, rejected those
    refused as notifications (any ProtocolError); the stream's
    bytes_dropped counts the bytes dropped while framing.
    """

    def __init__(self, pid: int):
        self.pid = pid
        self.motion = fusion.MotionTracker()
        self.emg = mapping.EnvelopeTracker()
        self.stream = protocol.BgapiStream()
        self.frames_out = self.rejected = 0

    def step(self, frame: Frame) -> Optional[Tick]:
        """Push an EMG frame (None); tick on an IMU frame:
        (MotionState, SynthParams, the seven OSC datagrams)."""
        if isinstance(frame, protocol.EmgFrame):
            self.emg.push(frame)
            return None
        state = self.motion.update(frame)
        env = self.emg.envelopes()
        base, spread, drive = mapping.map_orientation(state.euler)
        params = mapping.assemble_params(env, base, spread, drive,
                                         state.master_gain, SAMPLE_RATE)
        msgs = osc.emit_pipeline(state, env, params, self.pid)
        return state, params, [osc.encode_message(m) for m in msgs]

    def feed(self, data: bytes, t_us: int) -> list[bytes]:
        """The datagrams of the ticks completed by data arriving at t_us;
        each sensor frame the data completes is stamped t_us."""
        frames = []
        wire_frames = self.stream.feed(data)
        self.frames_out += len(wire_frames)
        for wire_frame in wire_frames:
            try:
                _, handle, value = protocol.parse_attribute_value_event(
                    wire_frame)
                frames += protocol.dispatch_attribute(handle, value, t_us)
            except protocol.ProtocolError:
                self.rejected += 1
        ticks = filter(None, map(self.step, frames))
        return [gram for _, _, grams in ticks for gram in grams]


class _Track:
    """One performer's audio, rendered as it is read (timing rule above).

    len() is total, which must be no less than any tick's _tick_end, as
    blocks are not cut.  A read track[lo:hi] must start where the last one
    ended, or IndexError is raised.  It returns [lo, hi) as a fresh array,
    zeros past the last block: it renders the pending block into it, as
    far as hi, and steps frames to start the next ticks' blocks as it
    reaches them, until they run out.  Between reads it holds no samples,
    only where the last read ended and where the pending block ends; the
    bank holds the block's ramps.  So a read takes memory for its own
    samples, however long the block it reads from.
    """

    def __init__(self, pid: int, frames: Iterable[Frame], total: int):
        self.pipeline = PerformerPipeline(pid)
        self.bank = synth.OscillatorBank(SAMPLE_RATE)
        self.frames, self.total = iter(frames), total
        # where the last read ended, and where the pending block ends
        self.read = self.end = 0

    def __len__(self) -> int:
        return self.total

    def __getitem__(self, s: slice) -> np.ndarray:
        lo, hi, _ = s.indices(self.total)
        if lo != self.read:
            raise IndexError(f"read from {lo}, not from {self.read}")
        # zeros: a muted block writes none, and nothing is written past
        # the last block
        out = np.zeros(hi - lo)
        while self.read < hi:
            if self.read < self.end:
                cut = min(hi, self.end)
                synth._render_next(self.bank, out[self.read - lo:cut - lo])
                self.read = cut
            elif (frame := next(self.frames, None)) is None:
                break
            else:
                tick, end = self.pipeline.step(frame), _tick_end(frame.t_us)
                if tick is not None and end > self.end:
                    synth._start_block(self.bank, tick[1], end - self.end)
                    self.end = end
        self.read = hi
        return out


def render(logs: Sequence, path) -> None:
    """Write the mix of logs, one session log per performer, as a WAV at
    path; ValueError before path is opened if no IMU tick ends after 0."""
    total = max((_tick_end(rec.t_us) for log in logs
                 for rec in session.iter_log(log) if rec.kind == "imu"),
                default=0)
    if total <= 0:
        raise ValueError("no IMU record's block ends after time 0")
    synth.write_wav(synth.mix_performers(
        [synth.AudioBlock(_Track(pid, session.records_to_frames(
            session.iter_log(log)), total), SAMPLE_RATE)
         for pid, log in enumerate(logs)]), path)
