"""The myobridge command: session logs through the pipeline.

    myobridge render LOG... -o OUT.wav   one log per performer, in order;
                                         the WAV lasts until the latest IMU
                                         frame's block ends
    myobridge cat LOG                    the log as JSON lines, one record
                                         a line, the meta line as written

A refused log (session.LogParseError) or a file that cannot be read or
written ends the command with its message and exit status 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline, session


def _render(logs, out) -> None:
    last_us = max((rec.t_us for path in logs for rec in session.iter_log(path)
                   if rec.kind == "imu"), default=None)
    if last_us is None:
        raise ValueError("no IMU record in the logs")
    pipeline.render(
        [session.records_to_frames(session.iter_log(path)) for path in logs],
        last_us / 1e6 + pipeline.BLOCK / pipeline.SAMPLE_RATE, out)


def _cat(log) -> None:
    for rec in session.iter_log(log):
        print(json.dumps(rec._asdict(), separators=(",", ":")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="myobridge")
    commands = parser.add_subparsers(dest="command", required=True)
    render = commands.add_parser("render", help="render logs to a WAV")
    render.add_argument("logs", nargs="+", metavar="LOG")
    render.add_argument("-o", dest="out", required=True, metavar="OUT.wav")
    cat = commands.add_parser("cat", help="print a log as JSON lines")
    cat.add_argument("log", metavar="LOG")
    args = parser.parse_args(argv)
    try:
        if args.command == "render":
            _render(args.logs, args.out)
        else:
            _cat(args.log)
    except (OSError, ValueError) as exc:  # LogParseError is a ValueError
        print(f"myobridge {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
