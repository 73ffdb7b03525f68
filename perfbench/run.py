"""myobridge benchmark: one performance per run, end to end and per layer.

    python3 perfbench/run.py --workload render_ensemble --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  The program under test is imported from
`src/myobridge` of the same checkout; with no such directory the run
exits with status 2 and prints no result.  Inputs come from --seed alone
(see workloads.py).  The performance is cut into segments, and each
segment goes through four timed phases before the next:

  paced    the segment's dongle bytes fed open loop at the workload's
           multiple of real time; tick latency runs from each IMU
           notification's due time to its 7th datagram sent over loopback
  flat     the same bytes fed flat out through a second set of state
  archive  the session the paced pass decoded, written with session.record
  render   the segment's JSONL logs rendered, one performer after another;
           after the last segment, the mix and the WAV

Interleaving the phases spreads each one's timing over the whole run, so
a machine that speeds up and slows down every few seconds weighs on every
metric alike.  The throughput metrics are plain totals over the segments;
tick latency quantiles pool every tick of the paced pass, so one stall
moves them by a few ticks only.  The gated tail is p95: pauses of the
whole virtual machine touch about 1% of ticks, so p99 is reported but not
gated (see README.md).  setup_s is the median of one set-up
per segment, each in a fresh interpreter (setup_probe.py).

A fixed calibration slice that runs no myobridge code precedes every
phase of every segment.  Its mean time against CALIB_REF_S gives the
run's machine speed, and every gated time is reported at the reference
speed: times multiplied by it, rates divided by it.  A shared machine
whose speed drifts between runs then moves the gated metrics far less,
while a change to the program moves them in full.  The values as
measured are in the report line too.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every phase
untraced and then traced, and prints the per-layer metrics from the traced
phases plus the tracing overhead; the spans go to
.bench_build/perfbench/<workload>-s<seed>/spans.json after the run.

Every run checks its outputs: the encoder round trip, WAV and OSC sha256
(equal between the paced and flat passes, between traced and untraced
phases, and to goldens.json for the default seed), write_wav's range
check, and every datagram received equal to the one sent.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  The
line before it holds every metric, the input's properties, the checks
and the output hashes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
GOLDENS = HERE / "goldens.json"
DEFAULT_SEED = 1
# gated times are scaled to a machine that runs one calibration slice in
# this long; a 2-core virtual machine took 19-24 ms
CALIB_REF_S = 0.02
CALIB_ARRAY = np.linspace(0.0, 1.0, 882 * 8).reshape(882, 8)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Import myobridge from this checkout's src, and nothing else."""
    if not (SRC / "myobridge" / "__init__.py").is_file():
        _fail(f"no src/myobridge under {ROOT}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import myobridge
    if Path(myobridge.__file__).resolve().parent != SRC / "myobridge":
        _fail(f"myobridge imported from {myobridge.__file__}, not {SRC}")


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def _calibrate() -> float:
    """Seconds for a fixed slice of interpreter and numpy work.

    The slice runs no myobridge code, so a change to the program cannot
    move it; only the machine's speed at that moment does.
    """
    t0 = time.perf_counter()
    for i in range(1200):
        json.loads(json.dumps({"t_us": i, "kind": "imu", "raw": [i, -i, i]}))
        struct.pack(">4h", i, i, -i, 1)
    for _ in range(80):
        np.tanh(np.sin(CALIB_ARRAY)).sum()
    return time.perf_counter() - t0


def _setup_probe(performers: int) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(performers)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        check=True)
    return float(out.stdout.strip())


class Run:
    """Every segment of one input through every phase, with one tracer."""

    def __init__(self, inputs, schedules, log_paths, tracer, run_dir: Path,
                 tag: str, probe: bool):
        import glue

        w = inputs.workload
        n = inputs.performers
        self.inputs = inputs
        self.paced = glue.Stream(n, w.replay_speed, tracer, paced=True)
        self.flat = glue.Stream(n, w.replay_speed, tracer, paced=False)
        self.render = glue.Render(n, inputs.performance_s, tracer)
        self.bases = []          # per segment: perf_counter time of due_us 0
        self.flat_walls = []
        self.archive_walls = []
        self.render_walls = []
        self.setup_runs = []
        self.calib_s = []        # one calibration slice before each phase
        self.archive_records = 0
        try:
            for k, schedule in enumerate(schedules):
                self.calib_s.append(_calibrate())
                marks = [len(d) for d in self.paced.decoded]
                self.bases.append(self.paced.segment(schedule)[0])
                self.calib_s.append(_calibrate())
                self.flat_walls.append(self.flat.segment(schedule)[1])
                records = [glue.session_records(d[m:], p) for p, (d, m)
                           in enumerate(zip(self.paced.decoded, marks))]
                self.archive_records += sum(len(r) for r in records)
                archive_paths = [run_dir / f"{tag}-archive-{k}-{p}.jsonl"
                                 for p in range(n)]
                self.calib_s.append(_calibrate())
                self.archive_walls.append(
                    glue.archive(records, archive_paths, tracer))
                self.calib_s.append(_calibrate())
                self.render_walls.append(self.render.segment(
                    archive_paths if w.render_archive else log_paths[k]))
                if probe:
                    self.setup_runs.append(_setup_probe(n))
            self.finish_s, self.wav_sha256 = self.render.finish(
                run_dir / f"{tag}.wav")
        finally:
            self.paced.close()
            self.flat.close()
        self.render_s = sum(self.render_walls) + self.finish_s
        self.speed = CALIB_REF_S * len(self.calib_s) / sum(self.calib_s)
        # wall time tracing can lengthen: the paced pass runs to a
        # schedule, so only its busy time counts
        self.work_s = (self.paced.busy_s + self.flat.wall_s
                       + sum(self.archive_walls) + self.render_s)
        self._match_wire()

    def _match_wire(self) -> None:
        """Match what the paced pass decoded against what was sent."""
        import wire
        from myobridge import protocol, session

        inputs = self.inputs
        scale = 1.0 / (1e6 * inputs.workload.replay_speed)
        late_after_s = session.IMU_PERIOD_US * scale
        imu = protocol.IMU_DATA_HANDLE
        self.latencies = []  # us, every intact IMU tick of the paced pass
        intact = imu_sent = imu_intact = late = 0
        for sent, got in zip(inputs.notes, self.paced.decoded):
            imu_sent += sum(1 for n in sent if n.handle == imu)
            index = wire.match(sent, [(h, v) for h, v, *_ in got])
            for k, (handle, _, stamp_us, end, _) in zip(index, got):
                if k < 0:
                    continue
                intact += 1
                if handle != imu or end is None:
                    continue
                imu_intact += 1
                base = self.bases[inputs.segment_of(stamp_us)]
                latency = end - (base + sent[k].due_us * scale)
                self.latencies.append(latency * 1e6)
                late += latency > late_after_s
        self.frames_lost = inputs.notifications - intact
        self.late_frac = (late + imu_sent - imu_intact) / imu_sent
        p, r = self.paced, self.render
        self.failed_frac = ((self.frames_lost + p.sent - p.received
                             + r.rejected)
                            / (inputs.notifications + p.sent + r.ticks
                               + r.rejected))

    def outputs(self) -> dict:
        """What must not change between runs of one seed."""
        return {"wav_sha256": self.wav_sha256,
                "osc_render_sha256": self.render.osc_hash.hexdigest(),
                "osc_wire_sha256": self.paced.osc_hash.hexdigest(),
                "frames_lost": self.frames_lost,
                "bytes_dropped": self.paced.bytes_dropped,
                "rejected": self.paced.rejected + self.render.rejected}

    def end_to_end(self, peak_rss_mb: float, speed: float) -> dict:
        """The gated metrics, times scaled by speed (1.0: as measured)."""
        return {
            "setup_s": (statistics.median(self.setup_runs) * speed, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "render_rtf": (
                self.inputs.performance_s / (self.render_s * speed), "x"),
            "stream_ticks_per_s": (
                self.flat.ticks / (self.flat.wall_s * speed), "1/s"),
            "tick_p50_us": (_quantile(self.latencies, 0.50) * speed, "us"),
            "tick_p95_us": (_quantile(self.latencies, 0.95) * speed, "us"),
            "archive_s": (sum(self.archive_walls) * speed, "s"),
        }

    def segment_values(self) -> dict:
        """Per-segment timings, to see how the machine's speed moved."""
        return {"render_s": self.render_walls,
                "flat_s": self.flat_walls,
                "archive_s": self.archive_walls,
                "setup_s": self.setup_runs, "finish_s": self.finish_s,
                "calib_s": self.calib_s}

    def diagnostics(self) -> dict:
        """Counts and shares that need no tracing, plus tail latencies."""
        p, r, lat = self.paced, self.render, self.latencies
        corrupt = self.inputs.corrupt_bytes
        return {
            "late_frac": (self.late_frac, "share"),
            "failed_frac": (self.failed_frac, "share"),
            "stream.tick_samples": (len(lat), "count"),
            "tick_p99_us": (_quantile(lat, 0.99), "us"),
            "stream.tick_p999_us": (_quantile(lat, 0.999), "us"),
            "stream.tick_max_us": (max(lat), "us"),
            "stream.busy_share": (p.busy_s / p.wall_s, "share"),
            "stream.generator_lag_p99_us": (_quantile(p.lags_us, 0.99), "us"),
            "protocol.frames_out": (p.frames_out, "count"),
            "protocol.bytes_dropped": (p.bytes_dropped, "count"),
            "protocol.frames_lost_per_corrupt_byte": (
                self.frames_lost / corrupt if corrupt else 0.0, "frame/byte"),
            "fusion.muted_share": (r.muted_ticks / r.ticks, "share"),
            "mapping.clamped_ticks": (r.clamped_ticks + p.clamped_ticks,
                                      "count"),
            "osc.datagrams_sent": (p.sent, "count"),
            "osc.datagrams_received": (p.received, "count"),
            "osc.send_errors": (p.send_errors, "count"),
            "synth.muted_block_share": (r.muted_blocks / r.blocks, "share"),
        }

    def layer_times(self, totals: dict) -> dict:
        """Per-layer times from this run's spans."""
        def seconds(name):
            return totals.get(name, (0, 0.0))[1]

        def per(name, n=None):
            calls = totals.get(name, (0, 0.0))[0] if n is None else n
            return seconds(name) * 1e6 / calls if calls else 0.0

        frames = self.paced.frames_out + self.flat.frames_out
        records = totals.get("session.parse", (0, 0.0))[0]
        scale_self_s = seconds("session.scale") - seconds("session.parse")
        return {
            "protocol.feed.us_per_frame": (per("protocol.feed", frames), "us"),
            "protocol.attr.us_per_frame": (per("protocol.attr", frames), "us"),
            "session.parse.us_per_record": (per("session.parse"), "us"),
            "session.scale.us_per_record": (
                scale_self_s * 1e6 / records if records else 0.0, "us"),
            "session.record.us_per_record": (
                per("session.record", self.archive_records), "us"),
            "fusion.update.us_per_frame": (per("fusion.update"), "us"),
            "mapping.push.us_per_frame": (per("mapping.push"), "us"),
            "mapping.envelopes.us_per_tick": (per("mapping.envelopes"), "us"),
            "mapping.params.us_per_tick": (per("mapping.params"), "us"),
            "osc.emit.us_per_tick": (per("osc.emit"), "us"),
            "osc.encode.us_per_msg": (per("osc.encode"), "us"),
            "osc.send.us_per_datagram": (per("osc.send"), "us"),
            "synth.render_block.us_per_block": (per("synth.render_block"),
                                                "us"),
            "synth.mix.s": (seconds("synth.mix"), "s"),
            "synth.wav.s": (seconds("synth.wav"), "s"),
        }


class Checks:
    def __init__(self):
        self.results: dict[str, bool] = {}

    def add(self, name: str, ok: bool) -> None:
        self.results[name] = self.results.get(name, True) and bool(ok)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.results.values())


def _check_run(checks: Checks, run: Run) -> None:
    p, f, r = run.paced, run.flat, run.render
    checks.add("wav_in_range", run.wav_sha256 != "")
    checks.add("datagrams_received_equal",
               p.received == p.sent and f.received == f.sent)
    checks.add("paced_equals_flat",
               (p.osc_hash.digest(), p.ticks, p.bytes_dropped, p.rejected)
               == (f.osc_hash.digest(), f.ticks, f.bytes_dropped, f.rejected))
    checks.add("no_send_errors", p.send_errors == 0 and f.send_errors == 0)
    if run.inputs.corrupt_bytes == 0:
        checks.add("clean_wire_intact",
                   run.frames_lost == 0 and p.bytes_dropped == 0
                   and p.rejected == 0 and r.rejected == 0)


def _check_goldens(checks: Checks, outputs: dict, name: str, seed: int,
                   seconds: float) -> None:
    """Outputs equal to goldens.json, for the seed and length it pins."""
    golden = json.loads(GOLDENS.read_text()).get(name)
    if golden and golden["seed"] == seed and golden["seconds"] == seconds:
        checks.add("goldens", golden["outputs"] == outputs)


def _metrics(pairs: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in pairs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    _import_program()
    from myobridge import session
    import spans
    import wire
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}")
    inputs = workloads.make_inputs(args.workload, args.seed, args.seconds)
    run_dir = WORK / f"{args.workload}-s{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    log_paths = []
    for k, parts in enumerate(inputs.log_segments()):
        log_paths.append([run_dir / f"log-{k}-{p}.jsonl"
                          for p in range(inputs.performers)])
        for records, path in zip(parts, log_paths[-1]):
            session.record(records, path)
    schedules = inputs.schedules()
    checks = Checks()
    checks.add("encoder_roundtrip", all(
        wire.roundtrip_ok(log, clean)
        for log, clean in zip(inputs.logs, inputs.clean)))
    # the inputs live for the whole run: keep the collector from scanning
    # them during the timed phases, where its pauses would land on ticks
    gc.collect()
    gc.freeze()

    untraced = Run(inputs, schedules, log_paths, spans.Tracer(False),
                   run_dir, "untraced", probe=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _check_run(checks, untraced)
    outputs = untraced.outputs()
    _check_goldens(checks, outputs, args.workload, args.seed, args.seconds)
    end_to_end = untraced.end_to_end(peak_rss_mb, untraced.speed)
    report = dict(end_to_end, **untraced.diagnostics(),
                  **{"machine.speed": (untraced.speed, "x")})
    metrics = end_to_end
    if args.trace:
        tracer = spans.Tracer(True)
        traced = Run(inputs, schedules, log_paths, tracer, run_dir, "traced",
                     probe=False)
        _check_run(checks, traced)
        checks.add("traced_equals_untraced", traced.outputs() == outputs)
        # each run's busy time at the reference speed, so drift between
        # the two runs does not read as overhead
        base_s = untraced.work_s * untraced.speed
        overhead = traced.work_s * traced.speed - base_s
        metrics = dict(traced.layer_times(tracer.totals()),
                       **untraced.diagnostics(),
                       **{"trace.overhead_s": (overhead, "s"),
                          "trace.overhead_share": (overhead / base_s,
                                                   "share")})
        report.update(metrics)
        tracer.write(run_dir / "spans.json")

    attempted = (untraced.paced.ticks + untraced.flat.ticks
                 + untraced.render.ticks + len(checks.results))
    failed = (untraced.paced.sent - untraced.paced.received
              + untraced.flat.sent - untraced.flat.received + checks.failed)
    w = inputs.workload
    print(json.dumps({
        "report": _metrics(report),
        "input": {"workload": w.name, "seed": args.seed,
                  "performers": inputs.performers,
                  "performance_s": inputs.performance_s,
                  "records": inputs.records,
                  "notifications": inputs.notifications,
                  "corrupt_bytes": inputs.corrupt_bytes,
                  "corrupt_byte_share":
                      inputs.corrupt_bytes / inputs.wire_bytes,
                  "replay_speed": w.replay_speed},
        "as_measured": _metrics(untraced.end_to_end(peak_rss_mb, 1.0)),
        "segments": untraced.segment_values(),
        "checks": checks.results, "outputs": outputs}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": _metrics(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
