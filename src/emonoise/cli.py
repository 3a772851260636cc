"""Command-line entry point exposing the pipeline stages.

The stages are ``prepare`` (manifest.csv), ``train`` (model.dbn and
model.key) and ``evaluate`` (report.csv); ``run`` chains them and ``report``
checks the result. Features are computed from the WAVs inside each stage
that needs them and are never cached on disk.

Exit codes: 0 success, 1 domain error (bad paths, malformed data), 2 usage
error. Progress goes to stderr; only ``report --print`` writes to stdout.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import pipeline
from .config import DELTA_MODES, SPLIT_STRATEGIES, ConfigError, RunConfig, load_config

_STAGES = {
    "prepare": "build the corpus manifest and train/test split",
    "train": "pretrain and fine-tune the classifier, saving model.dbn",
    "evaluate": "score clean and every noise condition, writing report.csv",
    "report": "validate an existing report (use --print to dump it)",
    "run": "full pipeline: prepare, train, evaluate",
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="config file to load before flag overrides")
    common.add_argument("--clean-dir", metavar="DIR", help="directory of clean speech WAVs")
    common.add_argument("--noise-dir", metavar="DIR", help="directory of noise category subdirectories")
    common.add_argument("--work-dir", metavar="DIR",
                        help="output directory (default: $EMONOISE_WORKDIR or .)")
    common.add_argument("--seed", type=int, help="master seed for split, training, and mixing")
    common.add_argument("--snrs", metavar="DB[,DB...]", help="mixing SNRs in dB")
    common.add_argument("--categories", metavar="NAME[,NAME...]",
                        help="noise categories (default: all subdirectories)")
    common.add_argument("--split-strategy", choices=SPLIT_STRATEGIES)
    common.add_argument("--test-fraction", type=float)
    common.add_argument("--delta-mode", choices=DELTA_MODES)
    common.add_argument("--sample-rate", type=int, help="pipeline sample rate in Hz")
    common.add_argument("--epochs-pretrain", type=int)
    common.add_argument("--epochs-finetune", type=int)
    common.add_argument("--hidden-sizes", metavar="N[,N...]", help="hidden layer widths")

    parser = argparse.ArgumentParser(
        prog="emonoise",
        description="Emotion classification from noise-corrupted speech.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, blurb in _STAGES.items():
        stage = sub.add_parser(name, parents=[common], help=blurb)
        if name == "report":
            stage.add_argument("--print", dest="print_report", action="store_true",
                               help="dump the report CSV to stdout")
    return parser


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    from dataclasses import replace

    updates = {}
    for flag, field in [
        ("clean_dir", "clean_dir"),
        ("noise_dir", "noise_dir"),
        ("work_dir", "work_dir"),
        ("seed", "seed"),
        ("split_strategy", "split_strategy"),
        ("test_fraction", "test_fraction"),
        ("delta_mode", "delta_mode"),
        ("sample_rate", "sample_rate_hz"),
    ]:
        value = getattr(args, flag)
        if value is not None:
            updates[field] = value
    if args.snrs is not None:
        updates["snrs_db"] = tuple(float(t) for t in args.snrs.split(",") if t.strip())
    if args.categories is not None:
        updates["noise_categories"] = tuple(t.strip() for t in args.categories.split(",") if t.strip())
    if args.hidden_sizes is not None:
        updates["hidden_sizes"] = tuple(int(t) for t in args.hidden_sizes.split(",") if t.strip())

    train = config.train
    train_updates = {}
    if args.epochs_pretrain is not None:
        train_updates["epochs_pretrain"] = args.epochs_pretrain
    if args.epochs_finetune is not None:
        train_updates["epochs_finetune"] = args.epochs_finetune
    if train_updates:
        train = replace(train, **train_updates)
    return replace(config, train=train, **updates)


def parse_args(argv=None) -> tuple[argparse.Namespace, RunConfig]:
    """Parse the command line into (namespace, RunConfig).

    Precedence: flags > config file > $EMONOISE_WORKDIR (work_dir only) >
    built-in defaults. Usage problems, including a malformed config file,
    exit with code 2.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    base = RunConfig(work_dir=os.environ.get("EMONOISE_WORKDIR", "."))
    try:
        config = load_config(args.config, base=base) if args.config else base
        config = _apply_overrides(config, args)
    except FileNotFoundError as exc:
        parser.error(f"config file not found: {exc.filename}")
    except (ConfigError, ValueError) as exc:
        parser.error(str(exc))
    return args, config


def dispatch(args: argparse.Namespace, config: RunConfig) -> int:
    """Run the selected stage, mapping domain errors to exit code 1."""

    def log(msg: str) -> None:
        print(msg, file=sys.stderr)

    try:
        if args.command == "prepare":
            pipeline.prepare(config, log)
        elif args.command == "train":
            pipeline.train_model(config, log)
        elif args.command == "evaluate":
            pipeline.evaluate_experiment(config, log)
        elif args.command == "run":
            pipeline.run_experiment(config, log)
        elif args.command == "report":
            path = pipeline.report_path(config)
            rows = pipeline.read_report(path)
            if args.print_report:
                sys.stdout.write(path.read_text())
            else:
                log(f"report {path}: {len(rows)} condition rows")
        else:  # unreachable: argparse rejects unknown subcommands
            return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args, config = parse_args(argv)
    return dispatch(args, config)


if __name__ == "__main__":
    sys.exit(main())
