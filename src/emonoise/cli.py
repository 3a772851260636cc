"""Command-line entry point exposing the pipeline stages.

The stages are ``prepare`` (manifest.csv), ``train`` (model.dbn and
model.key) and ``evaluate`` (report.csv); ``run`` chains them and ``report``
checks the result. Features are computed from the WAVs inside each stage
that needs them and are never cached on disk; only ``prepare`` creates the
work directory, and ``train`` and ``evaluate`` run it when the manifest is
missing.

Each setting flag stands for one config-file key, and its text is converted
by ``config.apply_settings`` exactly as that key's value in a file would be.

Only ``train``, ``evaluate``, ``run`` and ``report`` import ``pipeline``,
and with it numpy, the DSP and the DBN, inside ``dispatch``. ``prepare``
needs only ``manifest`` and ``config``, which import the standard library
alone, so it, ``--help`` and usage errors run without loading numpy, whose
import is most of a short stage's start-up time. ``report`` needs no numpy
either, but its checks live with the report writer in ``pipeline``.

Exit codes: 0 success, 1 domain error (bad paths, malformed data), 2 usage
error. Progress goes to stderr, a few lines per stage (``evaluate`` writes one
for all its conditions); only ``report --print`` writes to stdout.

Before it dispatches, ``main`` raises glibc's allocator thresholds
(``mallopt(3)``): ``M_MMAP_THRESHOLD`` to 32 MiB and ``M_TRIM_THRESHOLD`` to
64 MiB. A stage loads, transforms and scores one utterance after another, and
each utterance frees arrays of a few hundred KB to a few MB. glibc's
thresholds start at 128 KiB and rise only after the first large free, so
until then a fresh stage process hands its heap back to the kernel after
each utterance and page-faults it in again for the next. The values set are
the ones glibc's own dynamic rule reaches at its 64-bit maximum, so a fresh
stage starts where a warm process already is. Both are set because setting
either one switches glibc's dynamic adjustment off. Only ``main`` does
this, on Linux where libc has ``mallopt``; a program that imports the
library keeps its own allocator. No output byte depends on it.

``main`` sets them before anything else because they also make numpy's own
import cheaper: in a fresh process on a 2-core VM, ``import numpy`` took a
median of 48.5 ms after ``_keep_freed_heap()`` against 57.2 ms under glibc's
defaults (31 interleaved runs each; lower in 30 of 31 pairs), and a library
import, as in the tests or perfbench's output checks, still pays the higher
figure. The cause is unverified: TLB-shootdown interrupts sent to
OpenBLAS's spinning worker on each ``munmap`` were suspected, but with the
default thresholds ``OPENBLAS_THREAD_TIMEOUT=4`` left it at 56.4 ms.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

from . import manifest
from .config import DELTA_MODES, SPLIT_STRATEGIES, RunConfig, apply_settings, load_config

_STAGES = {
    "prepare": "build the corpus manifest and train/test split",
    "train": "pretrain and fine-tune the classifier, saving model.dbn",
    "evaluate": "score clean and every noise condition, writing report.csv",
    "report": "validate an existing report (use --print to dump it)",
    "run": "full pipeline: prepare, train, evaluate",
}


# flag -> (config section, key, metavar, help)
_SETTING_FLAGS = {
    "--clean-dir": ("pipeline", "clean_dir", "DIR", "directory of clean speech WAVs"),
    "--noise-dir": ("pipeline", "noise_dir", "DIR", "directory of noise category subdirectories"),
    "--work-dir": ("pipeline", "work_dir", "DIR",
                   "output directory (default: $EMONOISE_WORKDIR or .)"),
    "--seed": ("pipeline", "seed", None, "master seed for split, training, and mixing"),
    "--snrs": ("audio", "snrs_db", "DB[,DB...]", "mixing SNRs in dB"),
    "--categories": ("pipeline", "noise_categories", "NAME[,NAME...]",
                     "noise categories (default: all subdirectories)"),
    "--split-strategy": ("pipeline", "split_strategy", "{" + ",".join(SPLIT_STRATEGIES) + "}",
                         None),
    "--test-fraction": ("pipeline", "test_fraction", None, None),
    "--delta-mode": ("pipeline", "delta_mode", "{" + ",".join(DELTA_MODES) + "}", None),
    "--sample-rate": ("pipeline", "sample_rate_hz", None, "pipeline sample rate in Hz"),
    "--epochs-pretrain": ("dbn", "epochs_pretrain", None, None),
    "--epochs-finetune": ("dbn", "epochs_finetune", None, None),
    "--hidden-sizes": ("dbn", "hidden_sizes", "N[,N...]", "hidden layer widths"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="config file to load before flag overrides")
    for flag, (_, _, metavar, blurb) in _SETTING_FLAGS.items():
        common.add_argument(flag, metavar=metavar, help=blurb)

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
    settings: dict[str, dict[str, str]] = {}
    for flag, (section, key, _, _) in _SETTING_FLAGS.items():
        text = getattr(args, flag[2:].replace("-", "_"))
        if text is not None:
            settings.setdefault(section, {})[key] = text
    return apply_settings(config, settings, "command line")


def parse_args(argv=None) -> tuple[argparse.Namespace, RunConfig]:
    """Parse the command line into (namespace, RunConfig).

    Precedence: flags > config file > $EMONOISE_WORKDIR (work_dir only) >
    built-in defaults. Usage problems, including a malformed or unreadable
    config file, exit with code 2.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    base = RunConfig(work_dir=os.environ.get("EMONOISE_WORKDIR", "."))
    try:
        config = load_config(args.config, base=base) if args.config else base
        config = _apply_overrides(config, args)
    except OSError as exc:
        parser.error(f"cannot read config file {exc.filename}: {exc.strerror}")
    except ValueError as exc:  # ConfigError among them
        parser.error(str(exc))
    return args, config


def dispatch(args: argparse.Namespace, config: RunConfig) -> int:
    """Run the selected stage, mapping domain errors to exit code 1."""

    def log(msg: str) -> None:
        print(msg, file=sys.stderr)

    try:
        if args.command == "prepare":
            manifest.prepare(config, log)
            return 0
        from . import pipeline  # loads numpy; see the module docstring

        if args.command == "train":
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


def _keep_freed_heap() -> None:
    """Have glibc keep freed heap memory for reuse (see the module docstring)."""
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_heap()
    args, config = parse_args(argv)
    return dispatch(args, config)


if __name__ == "__main__":
    sys.exit(main())
