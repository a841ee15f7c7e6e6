"""Command-line interface.

    trace-insight synth      --config cfg [key=value ...]
    trace-insight preprocess --config cfg [key=value ...]
    trace-insight analyze    --config cfg [key=value ...]
    trace-insight report     --config cfg [key=value ...]

The config file is flat key=value text; every subcommand also accepts
key=value overrides after its flags, and the most common knobs exist as
named flags. The flags are derived from the config table,
``stage.CONFIG_KEYS``: each subcommand registers the flags of the keys
its stage reads, with their help text. Only ``analyze --seed``,
``--normalized`` and ``--label-thresholds`` are written out here.
Precedence: config file, then named flags, then overrides. Failures exit
nonzero with the offending stage named in the message.

Only ``stage``, which loads no numpy, is imported up front; ``pipeline`` and
the analysis modules are imported when synth, preprocess or analyze runs.
"""

from __future__ import annotations

import argparse
import sys

from .stage import (CONFIG_KEYS, STAGE_HELP, StageError, apply_overrides,
                    parse_config_file, run_report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trace-insight",
        description="co-located datacenter trace analysis pipeline")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for stage, help_text in STAGE_HELP.items():
        sub = subparsers.add_parser(stage, help=help_text)
        sub.add_argument("--config", metavar="FILE",
                         help="flat key=value config file")
        sub.add_argument("overrides", nargs="*", metavar="key=value",
                         help="config overrides, applied last")
        for key, row in CONFIG_KEYS.items():
            if row.flag and stage in row.stages:
                sub.add_argument(row.flag, dest=key, metavar="VALUE",
                                 help=row.help)
    analyze = subparsers.choices["analyze"]
    analyze.add_argument("--normalized", action="store_true",
                         help="report sqrt(cost)/path-length DTW distances")
    analyze.add_argument("--seed", metavar="N",
                         help="sets dtw_seed, classify_seed, and anomaly_seed")
    analyze.add_argument("--label-thresholds", metavar="SPEC",
                         help="e.g. 'always=0.9,none=0.05,gap_fraction=0.25'")
    return parser


_LABEL_THRESHOLD_KEYS = {
    "always": "classify_always",
    "none": "classify_none",
    "gap_fraction": "classify_gap_fraction",
}


def _collect_config(args: argparse.Namespace) -> dict[str, str]:
    config = parse_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:   # the flags of this subcommand's keys
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    if getattr(args, "normalized", False):
        config["dtw_normalized"] = "true"
    seed = getattr(args, "seed", None)
    if seed is not None:
        config["dtw_seed"] = seed
        config["classify_seed"] = seed
        config["anomaly_seed"] = seed
    spec = getattr(args, "label_thresholds", None)
    if spec:
        for pair in spec.split(","):
            if "=" not in pair:
                raise StageError("config", f"bad label threshold {pair!r}")
            name, value = pair.split("=", 1)
            key = _LABEL_THRESHOLD_KEYS.get(name.strip())
            if key is None:
                raise StageError(
                    "config", f"unknown label threshold {name.strip()!r} "
                              f"(expected {sorted(_LABEL_THRESHOLD_KEYS)})")
            config[key] = value.strip()
    return apply_overrides(config, args.overrides)


def _runner(command: str):
    """The ``STAGE_RUNNERS`` entry of ``command``, importing pipeline (and
    numpy) only for the stages that run there."""
    if command == "report":
        return run_report
    from .pipeline import STAGE_RUNNERS
    return STAGE_RUNNERS[command]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _collect_config(args)
        out_dir = _runner(args.command)(config)
    except StageError as e:
        print(f"trace-insight: error {e}", file=sys.stderr)
        return 2
    print(f"{args.command}: ok ({out_dir})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
