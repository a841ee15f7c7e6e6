"""Command-line interface.

    trace-insight synth      [flags] [key=value ...]
    trace-insight preprocess [flags] [key=value ...]
    trace-insight analyze    [flags] [key=value ...]
    trace-insight report     [flags] [key=value ...]

Every subcommand accepts key=value overrides before, between and after its
flags, and the most common knobs exist as named flags. The flags are derived
from the config table, ``stage.CONFIG_KEYS``: each subcommand registers the
flags of the keys its stage reads, with their help text. Only
``analyze --seed``, which sets all three analyze seeds, is written out here.
Precedence: defaults, then named flags, then overrides. A given key that
the stage does not read is named in a warning on stderr and ignored.
Failures, a path the stage cannot read or write included, exit 2 with the
offending stage named in the message.

Only ``stage``, which loads no numpy, is imported up front; ``pipeline`` is
imported when synth, preprocess or analyze runs, and the analysis modules
only when analyze does.

A process that runs one stage and ends goes through ``run``: it freezes
every object left after ``main`` returns (``gc.freeze``), so the
interpreter's last collections skip numpy's objects and the arrays of the
stage, which the exit frees anyway. atexit handlers and the flush of the
standard streams still run. ``main`` itself never freezes, since tests and
library callers run it inside a process that goes on.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .stage import (CONFIG_KEYS, STAGE_HELP, StageError, apply_overrides,
                    keys_read, run_report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trace-insight",
        description="co-located datacenter trace analysis pipeline")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for stage, help_text in STAGE_HELP.items():
        # no positional: the key=value overrides are what no flag takes
        sub = subparsers.add_parser(
            stage, help=help_text, usage="%(prog)s [flags] [key=value ...]",
            description=f"{help_text}; key=value config overrides, anywhere "
                        "among the flags, apply last")
        # a stray argument is refused under this subcommand's usage line
        sub.set_defaults(refuse=sub.error)
        for key, row in CONFIG_KEYS.items():
            if row.flag and stage in row.stages:
                sub.add_argument(row.flag, dest=key, metavar="VALUE",
                                 help=row.help)
    subparsers.choices["analyze"].add_argument(
        "--seed", metavar="N", help="sets dtw_seed, classify_seed, and anomaly_seed")
    return parser


def _collect_config(args: argparse.Namespace) -> dict[str, str]:
    config: dict[str, str] = {}
    for key in CONFIG_KEYS:   # the flags of this subcommand's keys
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    seed = getattr(args, "seed", None)
    if seed is not None:
        config["dtw_seed"] = seed
        config["classify_seed"] = seed
        config["anomaly_seed"] = seed
    return apply_overrides(config, args.overrides)


def _runner(command: str):
    """The ``STAGE_RUNNERS`` entry of ``command``, importing pipeline (and
    numpy) only for the stages that run there."""
    if command == "report":
        return run_report
    from .pipeline import STAGE_RUNNERS
    return STAGE_RUNNERS[command]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # what no flag takes, in command-line order: the key=value overrides,
    # and anything else, which is refused
    args, args.overrides = parser.parse_known_args(argv)
    unknown = [arg for arg in args.overrides
               if arg.startswith("-") or "=" not in arg]
    if unknown:
        args.refuse(f"unrecognized arguments: {' '.join(unknown)}")
    stage = args.command
    try:
        config = _collect_config(args)
        read = keys_read(config, stage)
        for key in config:
            if key not in read:
                print(f"trace-insight: warning [{stage}] config key {key!r} is "
                      f"not read by {stage}; ignored", file=sys.stderr)
        out_dir = _runner(stage)(config)
    except (StageError, OSError) as e:
        # an OSError is a path the stage could not make, write or read
        error = e if isinstance(e, StageError) else StageError(stage, str(e))
        print(f"trace-insight: error {error}", file=sys.stderr)
        return 2
    print(f"{stage}: ok ({out_dir})")
    return 0


def run() -> None:
    """Run ``main`` on the command line and exit with its code, without a
    collection over what the stage left (the console script's entry)."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
