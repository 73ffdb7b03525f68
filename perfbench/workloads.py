"""The benchmark's workloads and the inputs each one makes from a seed.

Every workload is one performance taken through both uses of the bridge:
the live path (dongle bytes -> OSC over loopback, paced and then flat out,
then the decoded session archived to a JSONL log) and the offline path
(JSONL logs -> WAV).  Every workload must report every end-to-end metric
in BENCHMARK.json, so no workload can skip a path.  The
workloads differ in their inputs, chosen so that each optimisation the
ROADMAP names has one workload that exercises it and one that bypasses it.

Input sizes scale with --seconds, so one run measures about that long on a
two-core machine.  The table is for the benchmark's run_seconds of 20 and
seed 1; the muted share is synth.muted_block_share as measured.

    workload         perf (s)  records  notes   corrupt B  replay  muted
    render_ensemble  4 x 40    40 004   24 000  0          4x      0.165
    render_restless  1 x 160   40 001   24 000  0          16x     0.536
    stream_wire      4 x 40    40 004   24 000  96         4x      0.167

"perf" is performers x seconds of performance, "notes" the notifications
on the wire and "corrupt B" the corrupt bytes (0.015% of stream_wire's).

render_ensemble
    The bundled four-performer scenario with each 135 s pose compressed to
    10 s, so the slice keeps all three pose transitions and the gain is
    open most of the time.  Exercises the per-performer render and the
    4-way mix; a muted-span skip should barely move it.
render_restless
    One performer whose seeded scenario changes pose every 4 s, so the
    gate is muted about half the time.  Exercises a muted-span skip; with
    one performer a parallel render cannot gain and the mix costs next to
    nothing.  Replayed at 16x, the live path sees the ensemble's 800
    ticks/s.
stream_wire
    The render_ensemble performance with corrupt serial bytes: one
    notification in 500 per performer has 2 consecutive bytes flipped, so
    the framing resync and frame loss of ROADMAP item 3 run only here.
    Its offline path renders the session it archived from the wire, so a
    log format change shows in both archive_s and render_rtf here.

The replay multiple keeps the live path about a quarter busy: at 8x the
tail latency swung with the shared machine's slow phases, as queueing
amplified them.

No workload reaches the Nyquist clamp of mapping.assemble_params: the
highest partial, f_hi * (1 + 7 * spread_max), is about 4 kHz, far below
0.45 * 44100 Hz.  mapping.clamped_ticks reads 0 on all of them, so no
claim can cite it as moved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from typing import Callable

import numpy as np

from myobridge import session
from myobridge.session import Pose, PerformerScript, Scenario

import wire

RESTLESS_POSE_S = 4.0
SEGMENTS = 16  # a run takes its performance through every path in parts


@dataclass(frozen=True)
class Workload:
    name: str
    performance_s_per_run_s: float  # seconds of performance per --seconds
    replay_speed: float             # paced pass, multiple of real time
    corrupt_every: int              # one burst per this many notifications
    render_archive: bool            # render the archive, not the logs
    scenario: Callable[[int, float], Scenario]  # (seed, performance_s)


def ensemble_scenario(seed: int, performance_s: float) -> Scenario:
    """The bundled ensemble with every pose scaled to fit performance_s."""
    base = session.default_scenario()
    scale = performance_s / sum(p.duration_s for p in base.performers[0].poses)
    return replace(base, performers=tuple(
        PerformerScript(poses=tuple(replace(p, duration_s=p.duration_s * scale)
                                    for p in script.poses))
        for script in base.performers))


def restless_scenario(seed: int, performance_s: float) -> Scenario:
    """One performer with a new seeded pose every RESTLESS_POSE_S seconds."""
    rng = np.random.default_rng([seed, 0x7E57])
    n = max(1, round(performance_s / RESTLESS_POSE_S))
    poses = []
    for _ in range(n):
        orientation = (rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0),
                       rng.uniform(-2.5, 2.5))
        active = rng.random(8) < 0.35
        tension = np.where(active, rng.uniform(0.2, 0.8, 8), 0.0)
        poses.append(Pose(duration_s=performance_s / n,
                          orientation=tuple(float(a) for a in orientation),
                          tension=tuple(float(t) for t in tension)))
    return Scenario(performers=(PerformerScript(poses=tuple(poses)),),
                    name="restless")


# the reasons for each workload are in the module docstring and in
# BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("render_ensemble", 2.0, 4.0, 0, False, ensemble_scenario),
    Workload("render_restless", 8.0, 16.0, 0, False, restless_scenario),
    Workload("stream_wire", 2.0, 4.0, 500, True, ensemble_scenario),
)}


@dataclass
class Inputs:
    workload: Workload
    seed: int
    performance_s: float
    logs: list            # per performer: list[SessionRecord]
    clean: list           # per performer: list[wire.Notification]
    notes: list           # per performer, as sent (maybe corrupted)
    corrupt_bytes: int

    @property
    def performers(self) -> int:
        return len(self.logs)

    @property
    def records(self) -> int:
        return sum(len(log) for log in self.logs)

    @property
    def notifications(self) -> int:
        return sum(len(n) for n in self.notes)

    @property
    def wire_bytes(self) -> int:
        return sum(len(x.data) for n in self.notes for x in n)

    def segment_of(self, t_us: int) -> int:
        return min(SEGMENTS - 1,
                   t_us * SEGMENTS // round(self.performance_s * 1e6))

    def schedules(self) -> list:
        """Per segment: (due_us, performer, bytes) in due order."""
        out = [[] for _ in range(SEGMENTS)]
        for pid, notes in enumerate(self.notes):
            for n in notes:
                out[self.segment_of(n.due_us)].append((n.due_us, pid, n.data))
        for items in out:
            items.sort(key=lambda item: item[:2])
        return out

    def log_segments(self) -> list:
        """Per segment, per performer: the log's meta record, then its part."""
        out = [[[log[0]] for log in self.logs] for _ in range(SEGMENTS)]
        for pid, log in enumerate(self.logs):
            for rec in log[1:]:
                out[self.segment_of(rec.t_us)][pid].append(rec)
        return out


def make_inputs(name: str, seed: int, seconds: float) -> Inputs:
    """Everything a run feeds the program, from the seed alone."""
    workload = WORKLOADS[name]
    performance_s = round(workload.performance_s_per_run_s * seconds, 3)
    logs = session.generate_scenario(workload.scenario(seed, performance_s),
                                     seed)
    clean = [wire.encode_records(log) for log in logs]
    rng = np.random.default_rng([seed, 0xC0DE])
    notes = []
    corrupt_bytes = 0
    for stream in clean:
        sent, n_bad = wire.corrupt(stream, rng, workload.corrupt_every)
        notes.append(sent)
        corrupt_bytes += n_bad
    return Inputs(workload, seed, performance_s, logs, clean, notes,
                  corrupt_bytes)
