"""The myobridge command: session logs through the pipeline.

    myobridge render LOG... -o OUT.wav   one log per performer, in order;
                                         the WAV lasts until the latest IMU
                                         tick's block ends (pipeline.render)
    myobridge cat LOG                    the log as JSON lines, one record
                                         a line, the meta line as written
    myobridge generate SCENARIO.json --seed N -o DIR
                                         one log per performer of the
                                         scenario file, DIR/p0.log,
                                         DIR/p1.log, ... in its order
                                         (session.iter_scenario), each
                                         written before the next is made,
                                         as the bytes the generator packed
                                         from its arrays

A refused log (session.LogParseError), a refused scenario
(session.InvalidScenarioError, naming the performer and pose) or a file
that cannot be read or written ends the command with its message and exit
status 1; a refused scenario writes no file.  A reader that closes cat's
output early ends it quietly, with exit status 0.
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


def _generate(scenario_path, seed: int, out_dir) -> None:
    with open(scenario_path, encoding="utf-8") as fh:
        scenario = session.scenario_from_dict(json.load(fh))
    logs = session.iter_scenario(scenario, seed)
    os.makedirs(out_dir, exist_ok=True)
    # each log is written and let go before the next is made: no name
    # holds it, as a loop's target would while the next is made
    for p in range(len(scenario.performers)):
        next(logs).write(os.path.join(out_dir, f"p{p}.log"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="myobridge")
    commands = parser.add_subparsers(dest="command", required=True)
    render = commands.add_parser("render", help="render logs to a WAV")
    render.add_argument("logs", nargs="+", metavar="LOG")
    render.add_argument("-o", dest="out", required=True, metavar="OUT.wav")
    cat = commands.add_parser("cat", help="print a log as JSON lines")
    cat.add_argument("log", metavar="LOG")
    generate = commands.add_parser(
        "generate", help="write a scenario's logs, one per performer")
    generate.add_argument("scenario", metavar="SCENARIO.json")
    generate.add_argument("--seed", type=int, required=True, metavar="N")
    generate.add_argument("-o", dest="out", required=True, metavar="DIR")
    args = parser.parse_args(argv)
    try:
        if args.command == "render":
            pipeline.render(args.logs, args.out)
        elif args.command == "cat":
            _cat(args.log)
        else:
            _generate(args.scenario, args.seed, args.out)
    # LogParseError, InvalidScenarioError and a JSON syntax error are
    # ValueErrors
    except (OSError, ValueError) as exc:
        print(f"myobridge {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
