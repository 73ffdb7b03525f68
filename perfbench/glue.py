"""Glue that chains the myobridge layers: one class per path.

No module in `src` chains the layers yet, so the benchmark does it here,
through public functions only.  Every call into a layer goes through a
Tracer, which times it in a traced run and is free in an untraced one.

A run cuts its performance into segments, as a bridge rotating its logs
would, and takes each segment through every path before the next; the
classes keep all state across segments, so the outputs are those of one
uncut pass.  Both paths run on one thread, one performer after another
(render) or interleaved in due order (stream).  That is the single-threaded
baseline any later parallel render or stream is compared against.
"""

from __future__ import annotations

import hashlib
import socket
import time

import numpy as np

from myobridge import fusion, mapping, osc, protocol, session, synth

SAMPLE_RATE = 44100
BLOCK = round(SAMPLE_RATE / protocol.IMU_RATE_HZ)  # 882 samples per tick
CLAMP_HZ = mapping.NYQUIST_FRACTION * SAMPLE_RATE
RCVBUF_BYTES = 1 << 21
LEAD_S = 0.02  # head start before a paced segment's first due time


class Loopback:
    """One UDP sender and one receiver on 127.0.0.1; the caller drains."""

    def __init__(self):
        self.rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.rx.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RCVBUF_BYTES)
        self.rx.bind(("127.0.0.1", 0))
        self.rx.setblocking(False)
        self.sender = osc.UdpSender("127.0.0.1", self.rx.getsockname()[1])

    def close(self) -> None:
        self.sender.close()
        self.rx.close()


class Chain:
    """One performer's control chain: fusion -> mapping -> osc."""

    def __init__(self, pid: int, tracer):
        self.pid = pid
        tracker = fusion.MotionTracker()
        env = mapping.EnvelopeTracker()
        self.update = tracer.wrap("fusion.update", tracker.update)
        self.push = tracer.wrap("mapping.push", env.push)
        self.envelopes = tracer.wrap("mapping.envelopes", env.envelopes)
        self.params = tracer.wrap("mapping.params", self._params)
        self.emit = tracer.wrap("osc.emit", osc.emit_pipeline)
        self.encode = tracer.wrap("osc.encode", osc.encode_message)
        self.clamped_ticks = 0

    def _params(self, state, env):
        base, spread, drive = mapping.map_orientation(state.euler)
        params = mapping.assemble_params(env, base, spread, drive,
                                         state.master_gain, SAMPLE_RATE)
        # assemble_params sets a clamped partial to exactly this limit
        self.clamped_ticks += max(params.freqs) >= CLAMP_HZ
        return params

    def tick(self, frame):
        """One control tick: (MotionState, SynthParams, 7 datagrams)."""
        state = self.update(frame)
        env = self.envelopes()
        params = self.params(state, env)
        msgs = self.emit(state, env, params, self.pid)
        return state, params, [self.encode(m) for m in msgs]


# --- offline: logs -> WAV ----------------------------------------------------

class Render:
    """Render per-performer logs to one WAV, performers one after another.

    A tick renders up to its own time plus one block, so a lost tick
    lengthens the next block instead of shifting the track; every track
    is cut or zero-padded to the performance length before the mix.
    """

    def __init__(self, performers: int, performance_s: float, tracer):
        self.total = round(performance_s * SAMPLE_RATE)
        self.tracer = tracer
        self.chains = [Chain(p, tracer) for p in range(performers)]
        self.banks = [synth.OscillatorBank(SAMPLE_RATE)
                      for _ in range(performers)]
        self.parts = [[] for _ in range(performers)]
        self.done = [0] * performers
        self.last_gain = [None] * performers
        self.render_block = tracer.wrap("synth.render_block",
                                        synth.render_block)
        self.osc_hash = hashlib.sha256()
        self.ticks = self.rejected = 0
        self.muted_ticks = self.blocks = self.muted_blocks = 0

    def segment(self, log_paths) -> float:
        """Render one segment's logs, one per performer; returns seconds."""
        tracer = self.tracer
        t0 = time.perf_counter()
        for pid, path in enumerate(log_paths):
            chain, bank = self.chains[pid], self.banks[pid]
            parts = self.parts[pid]
            done, last_gain = self.done[pid], self.last_gain[pid]
            # parse spans nest inside scale spans: records_to_frames pulls
            # each record from iter_log
            records = tracer.iterate("session.parse", session.iter_log(path))
            for frame in tracer.iterate("session.scale",
                                        session.records_to_frames(records)):
                if isinstance(frame, protocol.EmgFrame):
                    chain.push(frame)
                    continue
                tracer.tick += 1
                try:
                    state, params, grams = chain.tick(frame)
                except fusion.NonNormalizableError:
                    self.rejected += 1
                    continue
                self.ticks += 1
                for g in grams:
                    self.osc_hash.update(g)
                gain = state.master_gain
                self.muted_ticks += gain == 0.0
                end = round(frame.t_us * SAMPLE_RATE / 1e6) + BLOCK
                n = min(end, self.total) - done
                if n > 0:
                    parts.append(self.render_block(bank, params, n).samples)
                    done += n
                    self.blocks += 1
                    # a block ramps from the last rendered gain to this one
                    start = gain if last_gain is None else last_gain
                    self.muted_blocks += gain == 0.0 and start == 0.0
                    last_gain = gain
            self.done[pid], self.last_gain[pid] = done, last_gain
        return time.perf_counter() - t0

    def finish(self, wav_path) -> tuple[float, str]:
        """Mix and write the WAV; returns (seconds, sha256, "" if refused)."""
        mix = self.tracer.wrap("synth.mix", synth.mix_performers)
        write_wav = self.tracer.wrap("synth.wav", synth.write_wav)
        t0 = time.perf_counter()
        tracks = []
        for parts in self.parts:
            track = np.zeros(self.total)
            if parts:
                joined = np.concatenate(parts)
                track[:len(joined)] = joined
            tracks.append(synth.AudioBlock(track, float(SAMPLE_RATE)))
        try:
            write_wav(mix(tracks), wav_path)
        except ValueError:  # write_wav's finite-and-in-range check
            return time.perf_counter() - t0, ""
        wall = time.perf_counter() - t0
        with open(wav_path, "rb") as fh:
            return wall, hashlib.sha256(fh.read()).hexdigest()

    @property
    def clamped_ticks(self) -> int:
        return sum(c.clamped_ticks for c in self.chains)


# --- live: dongle bytes -> OSC over loopback ---------------------------------

class Stream:
    """Feed notifications through decode -> control -> OSC over loopback.

    Paced, a segment is open loop: each notification is due at the
    segment's start plus its offset / speed, whether or not the one before
    is done, and a tick's latency counts from that due time.  Flat out,
    each is fed as soon as the last is done.  Frames are stamped with their
    notification's due time, so outputs never depend on the wall clock.
    The same thread drains the receiver after every tick and counts the
    datagrams that arrive equal to those sent.
    """

    def __init__(self, performers: int, speed: float, tracer, paced: bool):
        self.speed = speed
        self.paced = paced
        self.tracer = tracer
        self.chains = [Chain(p, tracer) for p in range(performers)]
        self.streams = [protocol.BgapiStream() for _ in range(performers)]
        self.loop = Loopback()
        self.osc_hash = hashlib.sha256()
        # per performer: (handle, value, stamp_us, tick end or None, accepted)
        self.decoded = [[] for _ in range(performers)]
        self.frames_out = self.ticks = self.rejected = 0
        self.sent = self.received = 0
        self.busy_s = self.wall_s = 0.0
        self.lags_us: list[float] = []

    def segment(self, schedule) -> tuple[float, float]:
        """Feed (due_us, pid, bytes) in order.

        Returns (t0, seconds): t0 is the perf_counter time at which due_us 0
        would have been due.
        """
        tracer = self.tracer
        feeds = [tracer.wrap("protocol.feed", s.feed) for s in self.streams]
        parse_attr = tracer.wrap("protocol.attr",
                                 protocol.parse_attribute_value_event)
        dispatch = tracer.wrap("protocol.attr", protocol.dispatch_attribute)
        send = tracer.wrap("osc.send", self.loop.sender.send)
        recv = self.loop.rx.recv
        osc_update = self.osc_hash.update
        clock = time.perf_counter
        paced = self.paced
        scale = 1.0 / (1e6 * self.speed)
        lags = self.lags_us
        busy = 0.0
        first_us = schedule[0][0] if schedule else 0
        start = clock()
        t0 = start + (LEAD_S if paced else 0.0)
        for due_us, pid, data in schedule:
            if paced:
                due = t0 + (due_us - first_us) * scale
                now = clock()
                # spin, never sleep: a sleeping vCPU can wake milliseconds
                # late, which would land on the next ticks' latency
                while now < due:
                    now = clock()
                lags.append((now - due) * 1e6)
            frames = feeds[pid](data)
            self.frames_out += len(frames)
            chain = self.chains[pid]
            out = self.decoded[pid]
            for frame in frames:
                try:
                    _, handle, value = parse_attr(frame)
                except protocol.ProtocolError:
                    self.rejected += 1
                    continue
                try:
                    parsed = dispatch(handle, value, due_us)
                except protocol.WrongLengthError:
                    out.append((handle, value, due_us, None, False))
                    self.rejected += 1
                    continue
                end = None
                accepted = True
                for f in parsed:
                    if isinstance(f, protocol.EmgFrame):
                        chain.push(f)
                        continue
                    tracer.tick += 1
                    try:
                        _, _, grams = chain.tick(f)
                    except fusion.NonNormalizableError:
                        self.rejected += 1
                        accepted = False
                        continue
                    for g in grams:
                        send(g)
                        osc_update(g)
                    end = clock()
                    self.ticks += 1
                    self.sent += len(grams)
                    for g in grams:
                        try:
                            self.received += recv(2048) == g
                        except BlockingIOError:
                            pass
                out.append((handle, value, due_us, end, accepted))
            if paced:
                busy += clock() - now
        wall = clock() - start
        self.busy_s += busy
        self.wall_s += wall
        return t0 - first_us * scale, wall

    @property
    def bytes_dropped(self) -> int:
        return sum(s.bytes_dropped for s in self.streams)

    @property
    def send_errors(self) -> int:
        return self.loop.sender.send_errors

    @property
    def clamped_ticks(self) -> int:
        return sum(c.clamped_ticks for c in self.chains)

    def close(self) -> None:
        self.loop.close()


def build_state(performers: int, tracer) -> tuple[Render, Stream]:
    """A run's per-performer state: trackers, banks, streams and sockets."""
    return (Render(performers, 0.0, tracer),
            Stream(performers, 1.0, tracer, paced=True))


# --- archive: decoded session -> JSONL ---------------------------------------

def session_records(decoded, pid: int) -> list:
    """The records a live bridge would log for part of one performer's stream.

    Accepted frames only, stably sorted by time: a chunk can complete an
    EMG pair, whose second sample is stamped 2.5 ms later, ahead of an IMU
    frame stamped at the chunk's own time.
    """
    recs = []
    for handle, value, t_us, _, accepted in decoded:
        if not accepted:
            continue
        for frame in protocol.dispatch_attribute(handle, value, t_us):
            if isinstance(frame, protocol.ImuFrame):
                recs.append(session.SessionRecord(
                    t_us, "imu", protocol.unpack_imu_raw(value)))
            else:
                recs.append(session.SessionRecord(
                    frame.t_us, "emg", tuple(frame.channels)))
    recs.sort(key=lambda r: r.t_us)
    return [session.make_meta_record(device_id=f"wire-{pid}")] + recs


def archive(per_performer_records, paths, tracer) -> float:
    """Write each performer's log with session.record; returns seconds."""
    record = tracer.wrap("session.record", session.record)
    t0 = time.perf_counter()
    for recs, path in zip(per_performer_records, paths):
        record(recs, path)
    return time.perf_counter() - t0
