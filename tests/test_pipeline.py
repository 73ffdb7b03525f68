"""The pipeline against the benchmark's glue, which the goldens pin, and
its pulled audio against the whole-track render it replaced.

perfbench/glue.py chains the layers by hand for the benchmark.  For each
workload at seed 7, half a second per run second, the pipeline must give
what the glue gives: the OSC of the logs stepped segment by segment, the
WAV bytes of each performer's segments rendered as one log, and the OSC,
frames out, rejections and dropped bytes of the dongle bytes streamed
flat out.  Seed 7 puts corrupt bytes where stream_wire rejects frames and
drops a byte.  No wire bytes at all may stop the chain or send an
argument out of range.

reference_track renders every tick into one whole preallocated track, as
the pipeline did before its audio was pulled.  A track read in any slice
sizes must give its bytes, in memory that grows neither with the length
nor with a gap between ticks.
No log may make the render refuse its samples.
"""

import hashlib
import itertools
import math
import struct
import sys
import tempfile
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from myobridge import pipeline, protocol, session, synth
from myobridge.session import Pose, PerformerScript, Scenario

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import glue  # noqa: E402
import spans  # noqa: E402
import wire  # noqa: E402
import workloads  # noqa: E402

SEED = 7
SECONDS = 0.5


def _log_paths(inputs, tmp_path):
    """Per segment, per performer: the path its part of the log went to;
    and per performer, the path of its whole log (the meta record, then
    every segment's part in order)."""
    segments, parts = [], inputs.log_segments()
    for k, part in enumerate(parts):
        segments.append([tmp_path / f"log-{k}-{p}.log"
                         for p in range(inputs.performers)])
        for records, path in zip(part, segments[-1]):
            session.record(records, path)
    logs = [tmp_path / f"log-{p}.log" for p in range(inputs.performers)]
    for p, path in enumerate(logs):
        session.record([parts[0][p][0]] + [rec for part in parts
                                           for rec in part[p][1:]], path)
    return segments, logs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_ensemble_equals_the_benchmark_glue(name, tmp_path):
    inputs = workloads.make_inputs(name, SEED, SECONDS)
    n, performance_s = inputs.performers, inputs.performance_s
    segments, logs = _log_paths(inputs, tmp_path)

    render = glue.Render(n, performance_s, spans.Tracer(False))
    chains = [pipeline.PerformerPipeline(p) for p in range(n)]
    render_osc = hashlib.sha256()
    for paths in segments:
        render.segment(paths)
        # glue hashes a segment's performers in turn, so this must too
        for chain, path in zip(chains, paths):
            frames = session.records_to_frames(session.iter_log(path))
            for tick in filter(None, map(chain.step, frames)):
                for gram in tick[2]:
                    render_osc.update(gram)
    render.finish(tmp_path / "glue.wav")
    pipeline.render(logs, tmp_path / "pipeline.wav")
    assert render_osc.hexdigest() == render.osc_hash.hexdigest()
    assert ((tmp_path / "pipeline.wav").read_bytes()
            == (tmp_path / "glue.wav").read_bytes())

    stream = glue.Stream(n, 1.0, spans.Tracer(False), paced=False)
    live = [pipeline.PerformerPipeline(p) for p in range(n)]
    wire_osc = hashlib.sha256()
    try:
        for schedule in inputs.schedules():
            stream.segment(schedule)
            for due_us, pid, data in schedule:
                for gram in live[pid].feed(data, due_us):
                    wire_osc.update(gram)
    finally:
        stream.close()
    assert wire_osc.hexdigest() == stream.osc_hash.hexdigest()
    assert sum(p.frames_out for p in live) == stream.frames_out
    assert sum(p.rejected for p in live) == stream.rejected
    assert (sum(p.stream.bytes_dropped for p in live)
            == stream.bytes_dropped)
    if inputs.corrupt_bytes:
        assert stream.rejected > 0


_ADDRESSES = ("emg", "euler", "accmag", "gyrmag", "qom", "gate", "synth")
_NOTIFICATION = (
    st.binary(min_size=20, max_size=20).map(
        lambda v: wire.attribute_event(protocol.IMU_DATA_HANDLE, v))
    | st.builds(wire.attribute_event,
                st.sampled_from(protocol.EMG_DATA_HANDLES),
                st.binary(min_size=16, max_size=16)))


def _address_and_args(gram):
    """An OSC datagram's address and float32 arguments, which must be its
    only arguments."""
    end = gram.index(b"\0")
    tags_at = end // 4 * 4 + 4  # past the address and 1 to 4 NULs
    n = gram.index(b"\0", tags_at) - tags_at - 1
    args_at = tags_at + (n + 1) // 4 * 4 + 4
    assert gram[tags_at:tags_at + n + 1] == b"," + b"f" * n
    assert len(gram) == args_at + 4 * n
    return gram[:end].decode(), struct.unpack(f">{n}f", gram[args_at:])


@settings(max_examples=200, deadline=None)
@given(pieces=st.lists(_NOTIFICATION | st.binary(max_size=40), max_size=40),
       cuts=st.lists(st.integers(0, 4000), max_size=20),
       stamps=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1,
                       max_size=21))
def test_no_wire_bytes_can_stop_the_bridge(pieces, cuts, stamps):
    data = b"".join(pieces)
    bounds = sorted({0, len(data), *(c % (len(data) + 1) for c in cuts)})
    chain, grams = pipeline.PerformerPipeline(0), []
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        grams += chain.feed(data[lo:hi], stamps[k % len(stamps)])
    assert len(grams) % 7 == 0
    for k, gram in enumerate(grams):
        address, args = _address_and_args(gram)
        assert address == f"/myo/0/{_ADDRESSES[k % 7]}"
        assert all(map(math.isfinite, args)), (address, args)
        if k % 7 == 5:
            assert 0.0 <= args[0] <= 1.0


def reference_track(frames, total):
    """One performer's frames rendered into np.zeros(total), each tick's
    span (pipeline's timing rule) copied in as its tick arrives."""
    chain = pipeline.PerformerPipeline(0)
    bank = synth.OscillatorBank(pipeline.SAMPLE_RATE)
    track, done = np.zeros(total), 0
    for frame in frames:
        tick = chain.step(frame)
        if tick is None:
            continue
        end = min(round(frame.t_us * pipeline.SAMPLE_RATE / 1e6)
                  + pipeline.BLOCK, total)
        if end > done:
            track[done:end] = synth.render_block(bank, tick[1],
                                                 end - done).samples
            done = end
    return track


# one performer for 1 s: still, then a pose change whose burst mutes the
# gate at 0.5 s.  The last IMU frame is at 0.98 s, so its block ends at
# sample 44 100.
_RECORDS = session.generate_scenario(Scenario(performers=(PerformerScript(
    poses=(Pose(0.5, (0.1, -0.2, 0.3), (0.5,) * 8),
           Pose(0.5, (-0.4, 0.2, 0.0), (0.9,) * 8))),)), seed=1)[0]
_LAST_BLOCK_END = 44_100


def _pulled_bytes(frames, total, sizes):
    """A _Track's bytes, read in the given sizes and then in _PCM_CHUNK
    reads to its end (the last read cut at the total)."""
    track, lo, out = pipeline._Track(0, frames, total), 0, []
    reads = itertools.chain(sizes, itertools.repeat(synth._PCM_CHUNK))
    while lo < total:
        n = next(reads)
        out.append(track[lo:lo + n].tobytes())
        lo += n
    return b"".join(out)


# render makes the total no less than any tick's end, so none is cut
@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(1, 3000) | st.just(synth._PCM_CHUNK),
                      max_size=30),
       gap=st.tuples(st.integers(0, 1_000_000), st.integers(0, 300_000)),
       total=st.integers(_LAST_BLOCK_END, _LAST_BLOCK_END + 3000))
# the frames end before the total, so the reads end in zeros
@example(sizes=[1, 881, 2, 3000], gap=(0, 0), total=_LAST_BLOCK_END + 2000)
# a dropout over the pose change: the tick after it starts a long block
@example(sizes=[17_000, 3000, 7], gap=(400_000, 200_000),
         total=_LAST_BLOCK_END)
def test_any_read_sizes_give_the_whole_track_bytes(sizes, gap, total):
    gap_lo, gap_us = gap
    records = [r for r in _RECORDS
               if not gap_lo <= r.t_us < gap_lo + gap_us]
    frames = list(session.records_to_frames(records))
    # tobytes compares the sign of zero too
    assert (_pulled_bytes(frames, total, sizes)
            == reference_track(frames, total).tobytes())


def test_a_read_must_start_where_the_last_one_ended():
    frames = list(session.records_to_frames(_RECORDS))
    whole = reference_track(frames, _LAST_BLOCK_END)
    track = pipeline._Track(0, frames, _LAST_BLOCK_END)
    assert track[0:1000].tobytes() == whole[0:1000].tobytes()
    for lo in (0, 999, 1001):
        with pytest.raises(IndexError):
            track[lo:lo + 1000]
    # a refused read leaves the track where it was
    assert track[1000:2000].tobytes() == whole[1000:2000].tobytes()


def test_a_dropout_renders_in_memory_independent_of_the_gap(tmp_path):
    # a 20 s and a 100 s dropout while the gain is open: the tick after
    # each starts one block as long as its gap, and the reads render it a
    # chunk at a time.  Both peaked at 1.5 MB; holding the block whole
    # peaked at 8.6 MB and 36.8 MB, one float64 per gap sample
    for gap_us in (20_000_000, 100_000_000):
        records = [r if r.t_us < 300_000 else r._replace(t_us=r.t_us + gap_us)
                   for r in _RECORDS]
        log, path = tmp_path / "dropout.log", tmp_path / "dropout.wav"
        session.record(records, log)
        tracemalloc.start()
        try:
            pipeline.render([log], path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, gap_us
        with wave.open(str(path)) as w:
            assert w.getnframes() == pipeline._tick_end(max(
                r.t_us for r in records if r.kind == "imu"))


def test_render_memory_stays_under_one_whole_track(bundled_logs, tmp_path):
    seconds = 30
    logs = [tmp_path / f"p{p}.log" for p in range(2)]
    for log, path in zip(bundled_logs, logs):
        session.record((rec for rec in log if rec.t_us < seconds * 1e6), path)
    tracemalloc.start()
    try:
        pipeline.render(logs, tmp_path / "out.wav")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one whole float64 track is 10.6 MB; whole tracks, one per performer,
    # peaked at 22.6 MB, the pulled render at 2.5 MB while it kept rendered
    # spans between reads, and at 2.1 MB rendering each read in place
    assert peak < seconds * pipeline.SAMPLE_RATE * 8


_INT16 = st.integers(-2**15, 2**15 - 1)
_FULL_SCALE = st.sampled_from([-2**15, 2**15 - 1]) | _INT16
# a zero quaternion, or any; accel and gyro often at full scale
_IMU_DATA = st.builds(lambda quat, rest: quat + rest,
                      st.just((0,) * 4) | st.tuples(*[_INT16] * 4),
                      st.tuples(*[_FULL_SCALE] * 6))
_EMG_DATA = st.tuples(*[st.integers(-128, 127)] * protocol.EMG_CHANNELS)
# whole IMU periods repeat stamps often; any stamp leaves gaps over
# MAX_GAP_S in a short log
_STAMP = (st.integers(0, 150).map(lambda k: k * 20_000)
          | st.integers(0, 3_000_000))
_IMU = st.tuples(_STAMP, st.just("imu"), _IMU_DATA)
_EMG = st.tuples(_STAMP, st.just("emg"), _EMG_DATA)


@settings(max_examples=60, deadline=None)
@given(imu=_IMU, others=st.lists(_IMU | _EMG, max_size=30))
# full scale and a zero quaternion, a repeated stamp, then a 2 s dropout
@example(imu=(0, "imu", (0,) * 4 + (2**15 - 1, -2**15) * 3),
         others=[(0, "imu", (2**15 - 1,) * 10),
                 (20_000, "emg", (-128, 127) * 4),
                 (2_020_000, "imu", (-2**15,) * 10)])
def test_no_log_makes_the_render_refuse_its_samples(imu, others):
    records = sorted([imu, *others], key=lambda rec: rec[0])
    with tempfile.TemporaryDirectory() as tmp:
        log, path = Path(tmp) / "take.log", Path(tmp) / "take.wav"
        session.record([session.make_meta_record(), *itertools.starmap(
            session.SessionRecord, records)], log)
        pipeline.render([log], path)
        with wave.open(str(path)) as w:
            assert w.getnframes() == max(pipeline._tick_end(t_us)
                                         for t_us, kind, _ in records
                                         if kind == "imu")
