"""Command-line entry points.

Exit codes: 0 success, 2 invalid config, 3 missing input, 4 stage failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, RunConfig, load_config, parse_config_text
from .pipeline import (STAGES, MissingInputError, StageError, review_sample,
                       run_pipeline, run_stage)
from .synth import write_fixture

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_STAGE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echolens",
        description="Batch social-graph analytics over archived corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each override flag's dest is a config key, whose parser reads its value.
    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="run config file (flat key = value)")
        p.add_argument("--out", dest="out_dir", help="output directory (overrides config)")
        p.add_argument("--seed", help="global seed (overrides config)")
        p.add_argument("--k", help="number of topic clusters")
        p.add_argument("--min-community-size", dest="min_community_size",
                       help="community gate threshold (strictly greater than)")
        p.add_argument("--damping", help="PageRank damping factor")
        p.add_argument("--formats", help="report formats, e.g. csv,json")

    run_p = sub.add_parser("run", help="run the full pipeline")
    add_common(run_p)
    for stage in STAGES:
        stage_p = sub.add_parser(stage, help=f"run only the {stage} stage")
        add_common(stage_p)

    review_p = sub.add_parser("review-sample",
                              help="stratified topic sample for human review")
    add_common(review_p)
    review_p.add_argument("--n", dest="review_sample_size", metavar="N",
                          help="number of topics to sample")

    synth_p = sub.add_parser("synth",
                             help="write the synthetic fixture corpus and config")
    synth_p.add_argument("--out", required=True, help="output directory")
    synth_p.add_argument("--seed", type=int, default=7)
    synth_p.add_argument("--tweets", type=int, default=2000, dest="n_tweets")
    return parser


def _load(args: argparse.Namespace) -> RunConfig:
    flags = {key: raw for key, raw in vars(args).items()
             if raw is not None and key not in ("command", "config")}
    return load_config(args.config, flags) if args.config else parse_config_text("", flags)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "synth":
        config_path = write_fixture(args.out, seed=args.seed, n_tweets=args.n_tweets)
        print(f"fixture written; config at {config_path}")
        return EXIT_OK

    try:
        cfg = _load(args)
        if args.command == "run":
            manifest = run_pipeline(cfg)
            print(f"pipeline complete; manifest at {manifest}")
        elif args.command == "review-sample":
            path = review_sample(cfg)
            print(f"review sample at {path}")
        else:
            run_stage(cfg, args.command)
            print(f"stage {args.command} complete")
    except ConfigError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingInputError as exc:
        print(exc, file=sys.stderr)
        return EXIT_MISSING_INPUT
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_STAGE
    return EXIT_OK


def entrypoint() -> None:  # pragma: no cover - console script shim
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
