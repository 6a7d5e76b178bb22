"""Command line entry point.

    ubss run CONFIG            full pipeline into the output directory
    ubss generate CONFIG       sources.csv
    ubss mix CONFIG            sources.csv -> mixtures.csv
    ubss estimate CONFIG       mixtures.csv -> histogram.csv, estimated_matrix.csv
    ubss separate CONFIG       mixtures.csv + estimated_matrix.csv -> separated.csv
    ubss score CONFIG          sources.csv + separated.csv -> report.csv

Flags override config values; the UBSS_SEED environment variable overrides
the config seed and is itself overridden by --seed.  Stage inputs default to
the artifact names inside the output directory, so the stages chain.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import pipeline
from .config import SEED_ENV_VAR, ConfigError, load_config


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    p.add_argument("config", help="experiment config file")
    if "seed" in flags:
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    if "quantum" in flags:
        p.add_argument("--quantum", type=float, default=None, help="ratio quantization step")
    if "peak_fraction" in flags:
        p.add_argument(
            "--peak-fraction", type=float, default=None, help="histogram peak threshold"
        )
    if "activity_eps" in flags:
        p.add_argument(
            "--activity-eps", type=float, default=None, help="absolute activity threshold"
        )
    p.add_argument("--out-dir", default=None, help="override the output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ubss",
        description="Blind separation of sparse pulse signals from two mixture channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("run", help="full pipeline"),
                "seed", "quantum", "peak_fraction", "activity_eps")
    _add_common(sub.add_parser("generate", help="synthesize sources"), "seed")
    mix_p = sub.add_parser("mix", help="mix sources")
    _add_common(mix_p, "seed")
    mix_p.add_argument("--sources", default=None, help="sources CSV path")
    est_p = sub.add_parser("estimate", help="estimate the mixing matrix")
    _add_common(est_p, "quantum", "peak_fraction", "activity_eps")
    est_p.add_argument("--mixtures", default=None, help="mixtures CSV path")
    sep_p = sub.add_parser("separate", help="recover sources")
    _add_common(sep_p, "activity_eps")
    sep_p.add_argument("--mixtures", default=None, help="mixtures CSV path")
    sep_p.add_argument("--matrix", default=None, help="estimated matrix CSV path")
    score_p = sub.add_parser("score", help="score separation against the truth")
    _add_common(score_p)
    score_p.add_argument("--sources", default=None, help="true sources CSV path")
    score_p.add_argument("--separated", default=None, help="separated signals CSV path")
    return parser


def _seed_override(args) -> int | None:
    if getattr(args, "seed", None) is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _load(args):
    cfg = load_config(args.config, seed_override=_seed_override(args))
    # ExperimentConfig validates the overridden values when replace rebuilds it
    updates = {
        key: getattr(args, key)
        for key in ("quantum", "peak_fraction", "activity_eps")
        if getattr(args, key, None) is not None
    }
    if args.out_dir is not None:
        updates["output_dir"] = Path(args.out_dir)
    return dataclasses.replace(cfg, **updates) if updates else cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        out = cfg.output_dir
        if args.command == "run":
            pipeline.run_experiment(cfg)
        elif args.command == "generate":
            pipeline.stage_generate(cfg, out)
        elif args.command == "mix":
            src = args.sources if args.sources else out / pipeline.SOURCES_CSV
            pipeline.stage_mix(cfg, src, out)
        elif args.command == "estimate":
            mx = args.mixtures if args.mixtures else out / pipeline.MIXTURES_CSV
            _, est = pipeline.stage_estimate(cfg, mx, out)
            pipeline.print_summary(est)
        elif args.command == "separate":
            mx = args.mixtures if args.mixtures else out / pipeline.MIXTURES_CSV
            mat = args.matrix if args.matrix else out / pipeline.MATRIX_CSV
            pipeline.stage_separate(cfg, mx, mat, out)
        elif args.command == "score":
            src = args.sources if args.sources else out / pipeline.SOURCES_CSV
            sep = args.separated if args.separated else out / pipeline.SEPARATED_CSV
            pipeline.print_summary(report=pipeline.stage_score(src, sep, out))
        return 0
    except (ValueError, OSError) as exc:
        print(f"ubss {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
