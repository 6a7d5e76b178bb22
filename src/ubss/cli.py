"""Command line entry point.

    ubss run CONFIG            full pipeline into the output directory
    ubss generate CONFIG       sources.csv
    ubss mix CONFIG            sources.csv -> mixtures.csv
    ubss estimate CONFIG       mixtures.csv -> histogram.csv, estimated_matrix.csv
    ubss separate CONFIG       mixtures.csv + estimated_matrix.csv -> separated.csv
    ubss score CONFIG          sources.csv + separated.csv -> report.csv

Every command takes --out-dir, which replaces the config's output directory;
run and generate also take --seed, which replaces the config seed.  The
estimation settings come from the config file alone.  Stage inputs default to
the artifact names inside the output directory, so the stages chain.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import pipeline
from .config import load_config

# Every flag: its type and help text.  --seed and --out-dir override the
# config, the others name files.
_FLAGS = {
    "seed": (int, "override the config seed"),
    "sources": (str, "true sources CSV path"),
    "mixtures": (str, "mixtures CSV path"),
    "matrix": (str, "estimated matrix CSV path"),
    "separated": (str, "separated signals CSV path"),
    "out_dir": (Path, "override the output directory"),
}

# Every subcommand: its help text, the config flags it takes, and the CSVs it
# reads, each a flag that defaults to that artifact in the output directory.
# A command other than run calls pipeline.stage_<command>(cfg, *those CSVs).
_COMMANDS = {
    "run": ("full pipeline", ("seed",), {}),
    "generate": ("synthesize sources", ("seed",), {}),
    "mix": ("mix sources", (), {"sources": pipeline.SOURCES_CSV}),
    "estimate": ("estimate the mixing matrix", (), {"mixtures": pipeline.MIXTURES_CSV}),
    "separate": ("recover sources", (),
                 {"mixtures": pipeline.MIXTURES_CSV, "matrix": pipeline.MATRIX_CSV}),
    "score": ("score separation against the truth", (),
              {"sources": pipeline.SOURCES_CSV, "separated": pipeline.SEPARATED_CSV}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ubss",
        description="Blind separation of sparse pulse signals from two mixture channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags, inputs) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("config", help="experiment config file")
        for name in (*flags, *inputs, "out_dir"):
            kind, flag_help = _FLAGS[name]
            p.add_argument("--" + name.replace("_", "-"), type=kind, help=flag_help)
    return parser


def _load(args):
    cfg = load_config(args.config, seed_override=getattr(args, "seed", None))
    return cfg if args.out_dir is None else dataclasses.replace(cfg, output_dir=args.out_dir)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "run":
            pipeline.run_experiment(cfg)
        else:
            inputs = [getattr(args, name) or cfg.output_dir / artifact
                      for name, artifact in _COMMANDS[args.command][2].items()]
            # looked up at call time, so a wrapped pipeline.stage_* is the one called
            getattr(pipeline, "stage_" + args.command)(cfg, *inputs)
        return 0
    except (ValueError, OSError) as exc:
        print(f"ubss {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
