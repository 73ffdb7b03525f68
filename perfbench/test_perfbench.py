"""Fast checks of the benchmark itself, on tiny slices of each workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import wire
import workloads
from myobridge import protocol, session

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = "0.5"


@lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int) -> tuple:
    """(report line, result line) of one tiny benchmark run."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", TINY_SECONDS,
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_prints_every_metric_with_its_unit(workload):
    report, result = run(workload, 3, 1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert report["report"][m["name"]]["unit"] == m["unit"]
        # tracing overhead is a difference of two timings and may be < 0
        assert math.isfinite(report["report"][m["name"]]["value"])
    assert all(report["checks"].values())
    assert report["checks"]["traced_equals_untraced"]


def test_untraced_run_prints_the_end_to_end_metrics():
    _, result = run("render_restless", 3, 0)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_outputs_and_corruption_counts_repeat_for_a_seed():
    first, _ = run("stream_wire", 3, 0)
    second, _ = run("stream_wire", 3, 1)
    assert first["outputs"] == second["outputs"]
    assert first["input"]["corrupt_bytes"] > 0
    for name in ("failed_frac", "protocol.bytes_dropped",
                 "protocol.frames_lost_per_corrupt_byte"):
        assert first["report"][name] == second["report"][name]


def test_encoder_roundtrip_and_corruption_repeat_exactly():
    a = workloads.make_inputs("stream_wire", 7, 0.5)
    b = workloads.make_inputs("stream_wire", 7, 0.5)
    for log, clean in zip(a.logs, a.clean):
        assert wire.roundtrip_ok(log, clean)
    assert a.corrupt_bytes == b.corrupt_bytes > 0
    assert [n.data for s in a.notes for n in s] \
        == [n.data for s in b.notes for n in s]
    def lost(inputs):
        return [len(sent) - sum(k >= 0 for k in
                                wire.match(sent, wire.decode_values(sent)))
                for sent in inputs.notes]
    assert lost(a) == lost(b)
    assert sum(lost(a)) > 0


def test_decoded_emg_pair_is_stamped_half_a_period_apart():
    records = [session.SessionRecord(0, "emg", (1,) * 8),
               session.SessionRecord(5000, "emg", (2,) * 8)]
    (note,) = wire.encode_records(records)
    assert note.due_us == 5000
    a, b = protocol.dispatch_attribute(note.handle, note.value, note.due_us)
    assert (a.channels, b.channels) == ((1,) * 8, (2,) * 8)
    assert b.t_us - a.t_us == 2500  # the log spaces them 5000 us apart


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(SPEC["command"] + ["--workload", "render_ensemble",
                                            "--seed", "1", "--seconds", "1",
                                            "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
