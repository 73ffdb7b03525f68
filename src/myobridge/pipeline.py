"""One control chain: logs or dongle bytes in, OSC datagrams and a WAV out.

A PerformerPipeline is one performer's chain: frames decoded from the wire
or scaled from a log go through fusion, mapping and osc, one control tick
per IMU frame.  An Ensemble holds one pipeline and one oscillator bank per
performer and renders each tick's audio into that performer's track.

Render timing: a tick renders its performer's track up to its own time
plus one block, cut at the performance length when the tick arrives, so a
lost tick lengthens the next block instead of shifting the track.  A block
ramps over its whole length, so a block rendered past the end and cut
later would hold other samples.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

import numpy as np

from . import fusion, mapping, osc, protocol, session, synth

SAMPLE_RATE = 44100
BLOCK = round(SAMPLE_RATE / protocol.IMU_RATE_HZ)  # 882 samples per tick

Frame = Union[protocol.ImuFrame, protocol.EmgFrame]
Tick = tuple[fusion.MotionState, mapping.SynthParams, list[bytes]]


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

    def decode(self, data: bytes, t_us: int) -> list[Frame]:
        """The sensor frames of the notifications data completes, each
        stamped t_us, the time the bytes arrived."""
        out = []
        wire_frames = self.stream.feed(data)
        self.frames_out += len(wire_frames)
        for wire_frame in wire_frames:
            try:
                _, handle, value = protocol.parse_attribute_value_event(
                    wire_frame)
                out += protocol.dispatch_attribute(handle, value, t_us)
            except protocol.ProtocolError:
                self.rejected += 1
        return out

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


class Ensemble:
    """The performers' pipelines, banks and tracks (timing rule above).

    Each performer's track is allocated whole, zeros past its last block;
    write_wav mixes the tracks.  Feed each performer in time order: a log
    in parts is the same performance as the whole log.
    """

    def __init__(self, performers: int, performance_s: float):
        total = round(performance_s * SAMPLE_RATE)
        self.pipelines = [PerformerPipeline(p) for p in range(performers)]
        self.banks = [synth.OscillatorBank(SAMPLE_RATE)
                      for _ in range(performers)]
        self.tracks = [np.zeros(total) for _ in range(performers)]
        self.done = [0] * performers

    def _step(self, pid: int, frame: Frame) -> list[bytes]:
        """Take one frame through performer pid's chain and render its
        tick; returns the tick's datagrams, none for an EMG frame."""
        tick = self.pipelines[pid].step(frame)
        if tick is None:
            return []
        _, params, grams = tick
        track, done = self.tracks[pid], self.done[pid]
        end = min(round(frame.t_us * SAMPLE_RATE / 1e6) + BLOCK, len(track))
        if end > done:
            track[done:end] = synth.render_block(self.banks[pid], params,
                                                 end - done).samples
            self.done[pid] = end
        return grams

    def play_log(self, pid: int, path) -> Iterator[bytes]:
        """Performer pid's log, or its next part, tick by tick; yields the
        datagrams of each tick once its audio is rendered."""
        for frame in session.records_to_frames(session.iter_log(path)):
            yield from self._step(pid, frame)

    def feed(self, pid: int, data: bytes, t_us: int) -> list[bytes]:
        """Dongle bytes from performer pid arriving at t_us; returns the
        datagrams of the ticks they complete."""
        return [gram for frame in self.pipelines[pid].decode(data, t_us)
                for gram in self._step(pid, frame)]

    def write_wav(self, path) -> None:
        """Mix the tracks and write them as 16-bit PCM (synth.write_wav)."""
        synth.write_wav(synth.mix_performers(
            [synth.AudioBlock(t, SAMPLE_RATE) for t in self.tracks]), path)
