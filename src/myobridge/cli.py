"""The myobridge command: session logs through the pipeline.

    myobridge render LOG... -o OUT.wav   one log per performer, in order;
                                         the WAV lasts until the latest IMU
                                         tick's block ends (pipeline.render)
    myobridge cat LOG                    the log as JSON lines, one record
                                         a line, the meta line as written

A refused log (session.LogParseError) or a file that cannot be read or
written ends the command with its message and exit status 1.  A reader
that closes cat's output early ends it quietly, with exit status 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import pipeline, session


def _cat(log) -> None:
    try:
        for rec in session.iter_log(log):
            print(json.dumps(rec._asdict(), separators=(",", ":")))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (myobridge cat LOG | head), a
        # normal end: stdout goes to devnull, so that the interpreter's
        # flush at exit does not fail on the pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


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
            pipeline.render(args.logs, args.out)
        else:
            _cat(args.log)
    except (OSError, ValueError) as exc:  # LogParseError is a ValueError
        print(f"myobridge {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
