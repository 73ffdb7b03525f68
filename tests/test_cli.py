"""The myobridge command: render, cat and generate."""

import json
import os
import subprocess
import sys
import tracemalloc
import wave
from pathlib import Path

import pytest

from myobridge import cli, session
from myobridge.session import Pose, PerformerScript, Scenario, SessionRecord


def _logs(tmp_path, performers, duration_s, shift_us=0):
    """Record a scenario of still poses, one log per performer, each record
    stamped shift_us later."""
    scenario = Scenario(performers=tuple(
        PerformerScript(poses=(Pose(duration_s, (0.1 * p, -0.2, 0.3),
                                    (0.5,) * 8),))
        for p in range(performers)))
    paths = []
    for p, log in enumerate(session.generate_scenario(scenario, seed=1)):
        paths.append(tmp_path / f"p{p}.log")
        session.record([rec._replace(t_us=rec.t_us + shift_us)
                        for rec in log], paths[-1])
    return paths


def test_render_lasts_until_the_last_imu_frames_block_ends(tmp_path):
    # IMU frames come every 20 000 us from 0 until duration_s, then shift_us
    for performers, duration_s, shift_us, frames in [
            # the last IMU frame is at 1.48 s: 65 268 samples, plus a block
            (2, 1.5, 0, 66_150),
            # one performer, its last IMU frame at 140 000 us: 6174 + 882
            (1, 0.15, 0, 7056),
            # at 155 000 us: 6835.5 samples round (half to even) to 6836
            (1, 0.15, 15_000, 7718),
            # at 65 000 us: 2866.5 samples round to 2866
            (1, 0.07, 5_000, 3748)]:
        case = tmp_path / f"{performers}-{duration_s}-{shift_us}"
        case.mkdir()
        paths = _logs(case, performers, duration_s, shift_us)
        out = case / "out.wav"
        assert cli.main(["render", *map(str, paths), "-o", str(out)]) == 0
        with wave.open(str(out), "rb") as w:
            assert w.getnframes() == frames, (duration_s, shift_us)


def test_cat_prints_the_records_iter_log_reads(tmp_path, capsys):
    (path,) = _logs(tmp_path, 1, 0.2)
    assert cli.main(["cat", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    back = [SessionRecord(**json.loads(line)) for line in lines]
    back = [rec if rec.kind == "meta" else rec._replace(data=tuple(rec.data))
            for rec in back]
    assert back == list(session.iter_log(path))
    # the meta line is printed as the log holds it
    assert lines[0].encode() == path.read_bytes().split(b"\n", 1)[0]


def test_cat_into_a_pipe_closed_early_ends_quietly(tmp_path):
    # myobridge cat LOG | head -1: the log's JSON lines fill the pipe many
    # times over, so cat is still writing when the reader closes it
    (path,) = _logs(tmp_path, 1, 20.0)
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "myobridge.cli", "cat", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        status = proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""
    assert status == 0


@pytest.mark.parametrize("command", ["render", "cat"])
def test_a_refused_log_ends_the_command_with_its_message(tmp_path, capsys,
                                                         command):
    path = tmp_path / "bad.log"
    path.write_bytes(b"not a log\n")
    argv = [command, str(path)] + (["-o", str(tmp_path / "out.wav")]
                                   if command == "render" else [])
    assert cli.main(argv) == 1
    assert "record 1 at byte 0" in capsys.readouterr().err
    assert not (tmp_path / "out.wav").exists()


def test_render_refuses_logs_without_an_imu_record(tmp_path, capsys):
    meta_only = tmp_path / "meta-only.log"
    session.record([session.make_meta_record()], meta_only)
    # every IMU frame at or before -20 000 us, so every block ends at or
    # before sample 0
    (early,) = _logs(tmp_path, 1, 0.1, -100_000)
    for path in (meta_only, early):
        out = tmp_path / "out.wav"
        assert cli.main(["render", str(path), "-o", str(out)]) == 1
        assert "no IMU record" in capsys.readouterr().err
        assert not out.exists()


def _scenario_json(tension):
    """A two-performer, 2 s scenario in its JSON form; performer 1's first
    pose holds tension."""
    return {"name": "duo", "performers": [
        {"poses": [{"duration_s": 1.0, "orientation": [0.1, -0.2, 0.3],
                    "tension": [0.5] * 8},
                   {"duration_s": 1.0, "orientation": [0.4, 0.2, -0.3],
                    "tension": [0.0] * 7 + [0.9]}]},
        {"poses": [{"duration_s": 2.0, "orientation": [-0.5, 0.0, 1.0],
                    "tension": [tension] * 8}]}]}


def test_generate_writes_the_scenarios_logs(tmp_path):
    obj = _scenario_json(0.25)
    path = tmp_path / "duo.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "logs"
    assert cli.main(["generate", str(path), "--seed", "7",
                     "-o", str(out)]) == 0
    want = session.generate_scenario(session.scenario_from_dict(obj), 7)
    assert sorted(p.name for p in out.iterdir()) == ["p0.log", "p1.log"]
    for p, records in enumerate(want):
        assert list(session.iter_log(out / f"p{p}.log")) == records


def _generate_peak(tmp_path, performers):
    """Peak traced bytes while myobridge generate writes the logs of a
    scenario of these performers."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"performers": performers}), encoding="utf-8")
    tracemalloc.start()
    try:
        assert cli.main(["generate", str(path), "--seed", "7",
                         "-o", str(tmp_path / "logs")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_holds_one_performers_log_at_a_time(tmp_path):
    # four performers of 10 s: one log at a time peaks at 1.002 times the
    # first performer's cut.  A log is held as its packed bytes, a small
    # part of what making it takes, so making every log before writing any
    # would peak at 1.21 times (2.8 times when a log was one record object
    # per sample), and the bound must sit below that.  The cut runs once
    # first, so that the modules the command imports on its first run are
    # not counted
    performers = [{"poses": [{"duration_s": 10.0,
                              "orientation": [0.1 * k, -0.2, 0.3],
                              "tension": [0.5] * 8}]} for k in range(4)]
    _generate_peak(tmp_path, performers[:1])
    one = _generate_peak(tmp_path, performers[:1])
    assert _generate_peak(tmp_path, performers) < 1.1 * one


def test_generate_refuses_a_scenario_and_writes_no_file(tmp_path, capsys):
    path = tmp_path / "tense.json"
    path.write_text(json.dumps(_scenario_json(2)), encoding="utf-8")
    out = tmp_path / "logs"
    assert cli.main(["generate", str(path), "--seed", "7",
                     "-o", str(out)]) == 1
    assert "performer 1 pose 0: tension" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]
