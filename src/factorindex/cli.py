"""Command-line interface.

Subcommands mirror the pipeline stages; ``config.COMMANDS`` states the steps
each one runs, and a subcommand takes the flags of those steps::

    factorindex analyze  --config run.json          # full pipeline
    factorindex factors  --input table.csv ...      # stop after factor model
    factorindex rank     --input table.csv ...      # through ranking
    factorindex compare  --input table.csv --group1 a,b --group2 c,d

Every config-file key has a flag of the same meaning and check; flags override
the file. Exit codes: 0 success, 2 invalid input/config, 3 numerical failure.
"""

import argparse
import sys
from dataclasses import fields

from .config import (COMMANDS, PipelineConfig, _path, config_from_dict,
                     load_config)
from .errors import NumericalError, ValidationError
from .pipeline import run_pipeline


class _Parser(argparse.ArgumentParser):
    """A parser whose own errors are one :class:`ValidationError` line each."""

    def error(self, message):
        raise ValidationError(message)


def build_parser():
    parser = _Parser(
        prog="factorindex",
        description="Factor model, composite-index ranking, and two-group "
                    "comparison for cases-by-indicators tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, steps) in COMMANDS.items():
        command = sub.add_parser(name, help=text)
        command.add_argument("--config", help="JSON config file")
        for f in fields(PipelineConfig):
            meta = f.metadata
            if meta["step"] in (None, *steps):
                command.add_argument(meta["flag"], dest=f.name, help=meta["help"],
                                     **meta["check"].flag_extras)
    return parser


_NON_CONFIG_ARGS = {"command", "config"}


def _build_config(args):
    overrides = {key: value for key, value in vars(args).items()
                 if key not in _NON_CONFIG_ARGS}
    if args.config:
        return load_config(_path("--config", args.config), overrides)
    return config_from_dict({}, overrides)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        config = _build_config(args)
        result = run_pipeline(config, stage=args.command)
    except SystemExit as exc:  # --help, printed by argparse
        return exc.code
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        stage = exc.stage or "numeric"
        print(f"numerical failure in {stage} stage: {exc}", file=sys.stderr)
        return 3
    for path in result.files:
        try:
            print(path)
        except UnicodeEncodeError:  # written as Python's own stderr would
            encoding = sys.stdout.encoding
            print(path.encode(encoding, "backslashreplace").decode(encoding))
    return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
