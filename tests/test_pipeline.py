"""The pipeline against the benchmark's glue, which the goldens pin.

perfbench/glue.py chains the layers by hand for the benchmark.  For each
workload at seed 7, half a second per run second, the Ensemble must give
what the glue gives: the WAV bytes and OSC of the logs rendered segment
by segment, and the OSC, frames out, rejections and dropped bytes of the
dongle bytes streamed flat out.  Seed 7 puts corrupt bytes where
stream_wire rejects frames and drops a byte.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from myobridge import pipeline, session

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import glue  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7
SECONDS = 0.5


def _log_paths(inputs, tmp_path):
    """Per segment, per performer: the path its part of the log went to."""
    segments = []
    for k, parts in enumerate(inputs.log_segments()):
        segments.append([tmp_path / f"log-{k}-{p}.log"
                         for p in range(inputs.performers)])
        for records, path in zip(parts, segments[-1]):
            session.record(records, path)
    return segments


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_ensemble_equals_the_benchmark_glue(name, tmp_path):
    inputs = workloads.make_inputs(name, SEED, SECONDS)
    n, performance_s = inputs.performers, inputs.performance_s
    segments = _log_paths(inputs, tmp_path)

    render = glue.Render(n, performance_s, spans.Tracer(False))
    ensemble = pipeline.Ensemble(n, performance_s)
    render_osc = hashlib.sha256()
    for paths in segments:
        render.segment(paths)
        # glue hashes a segment's performers in turn, so this must too
        for pid, path in enumerate(paths):
            for gram in ensemble.play_log(pid, path):
                render_osc.update(gram)
    render.finish(tmp_path / "glue.wav")
    ensemble.write_wav(tmp_path / "ensemble.wav")
    assert render_osc.hexdigest() == render.osc_hash.hexdigest()
    assert ((tmp_path / "ensemble.wav").read_bytes()
            == (tmp_path / "glue.wav").read_bytes())

    stream = glue.Stream(n, 1.0, spans.Tracer(False), paced=False)
    live = pipeline.Ensemble(n, performance_s)
    wire_osc = hashlib.sha256()
    try:
        for schedule in inputs.schedules():
            stream.segment(schedule)
            for due_us, pid, data in schedule:
                for gram in live.feed(pid, data, due_us):
                    wire_osc.update(gram)
    finally:
        stream.close()
    assert wire_osc.hexdigest() == stream.osc_hash.hexdigest()
    performers = live.pipelines
    assert sum(p.frames_out for p in performers) == stream.frames_out
    assert sum(p.rejected for p in performers) == stream.rejected
    assert (sum(p.stream.bytes_dropped for p in performers)
            == stream.bytes_dropped)
    if inputs.corrupt_bytes:
        assert stream.rejected > 0
