"""Experiment configuration and its flat ``key = value`` file format.

This module owns every config type: ``RunConfig`` and the three blocks it
nests, ``MfccConfig`` and ``SegmentConfig`` (read by ``dsp``) and
``TrainConfig`` (read by ``dbn``), which those modules import from here. It
imports no numeric module, so parsing a command line or a config file does
not load numpy.

The file uses section headers named after the modules they configure
([pipeline], [audio], [dsp], [dbn]); every key is optional and defaults to
the module defaults, so an empty file reproduces the reference protocol.
Config text is only read, never written back: ``pipeline`` hashes the
``asdict`` form of the fields training reads into ``model.key``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

SPLIT_STRATEGIES = ("stratified_random", "leave_speakers_out")
DELTA_MODES = ("relative", "absolute")


@dataclass(frozen=True)
class MfccConfig:
    """Extraction parameters. Defaults assume 16 kHz speech (25 ms / 10 ms)."""

    frame_len: int = 400
    hop: int = 160
    fft_size: int = 512
    n_mels: int = 26
    n_ceps: int = 13
    preemph: float = 0.97
    fmin_hz: float = 0.0
    fmax_hz: float | None = None  # None means Nyquist at extraction time
    log_floor: float = 1e-10

    def __post_init__(self) -> None:
        if self.frame_len < 1 or self.hop < 1:
            raise ValueError("frame_len and hop must be at least 1")
        if self.fft_size < 1 or self.fft_size & (self.fft_size - 1):
            raise ValueError("fft_size must be a power of two")
        if self.fft_size < self.frame_len:
            raise ValueError("fft_size must be >= frame_len")
        if not 0 < self.n_ceps <= self.n_mels:
            raise ValueError("need 0 < n_ceps <= n_mels")
        if not 0.0 <= self.preemph < 1.0:
            raise ValueError("preemph must lie in [0, 1)")
        # chained comparisons, so that NaN fails them
        if not 0.0 <= self.fmin_hz < math.inf or (
            self.fmax_hz is not None and not self.fmin_hz < self.fmax_hz < math.inf
        ):
            raise ValueError("need 0 <= fmin_hz < fmax_hz, both finite")
        if not 0.0 < self.log_floor < math.inf:
            raise ValueError("log_floor must be positive and finite")


@dataclass(frozen=True)
class SegmentConfig:
    """Frames per segment and the hop between segment starts (in frames)."""

    seg_frames: int = 25
    seg_hop: int = 25

    def __post_init__(self) -> None:
        if self.seg_frames < 1 or self.seg_hop < 1:
            raise ValueError("seg_frames and seg_hop must be at least 1")


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer hyperparameters; the seed is passed to each training routine.

    The paper leaves all of these open, so they are ordinary config: CD-1,
    momentum SGD with a small weight decay during pretraining, and plain
    momentum SGD on cross-entropy for fine-tuning of the whole stack.
    """

    cd_steps: int = 1
    learning_rate_pretrain: float = 0.01
    learning_rate_pretrain_gaussian: float = 0.001
    learning_rate_finetune: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 2e-4
    batch_size: int = 64
    epochs_pretrain: int = 30
    epochs_finetune: int = 50

    def __post_init__(self) -> None:
        if self.cd_steps < 1:
            raise ValueError("cd_steps must be at least 1")
        for name in ("learning_rate_pretrain", "learning_rate_pretrain_gaussian",
                     "learning_rate_finetune", "weight_decay"):
            # a chained comparison, so that NaN fails it; inf would train to NaN weights
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs_pretrain < 0 or self.epochs_finetune < 0:
            raise ValueError("epoch counts must be nonnegative")


@dataclass
class RunConfig:
    """Everything one experiment run needs, including the master seed.

    The master ``seed`` governs splitting, training, and noise-window choice
    alike.
    """

    clean_dir: str = ""
    noise_dir: str = ""
    work_dir: str = "."
    sample_rate_hz: int = 16000
    snrs_db: tuple[float, ...] = (0.0, 10.0, 20.0)
    noise_categories: tuple[str, ...] = ()  # empty means every subdirectory of noise_dir
    delta_mode: str = "relative"
    train_on_noisy: bool = False
    split_strategy: str = "stratified_random"
    test_fraction: float = 0.2
    seed: int = 42
    hidden_sizes: tuple[int, ...] = (1000, 1000, 2000)
    mfcc: MfccConfig = field(default_factory=MfccConfig)
    segment: SegmentConfig = field(default_factory=SegmentConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        if self.split_strategy not in SPLIT_STRATEGIES:
            raise ValueError(f"split_strategy must be one of {SPLIT_STRATEGIES}")
        if self.delta_mode not in DELTA_MODES:
            raise ValueError(f"delta_mode must be one of {DELTA_MODES}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in (0, 1)")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.snrs_db or not all(math.isfinite(snr) for snr in self.snrs_db):
            raise ValueError("snrs_db must be a nonempty list of finite values")
        # a repeat would score one condition twice
        for name in ("snrs_db", "noise_categories"):
            values = getattr(self, name)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"{name} lists {', '.join(map(str, repeated))} more than once")
        if not self.hidden_sizes or min(self.hidden_sizes) < 1:
            raise ValueError("hidden_sizes must be a nonempty list of sizes of at least 1")


def _to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _to_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _to_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _to_name_list(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _to_opt_float(text: str):
    return None if not text.strip() else float(text)


# key -> (config field path, converter)
_SCHEMA = {
    "pipeline": {
        "clean_dir": ("clean_dir", str),
        "noise_dir": ("noise_dir", str),
        "work_dir": ("work_dir", str),
        "sample_rate_hz": ("sample_rate_hz", int),
        "noise_categories": ("noise_categories", _to_name_list),
        "delta_mode": ("delta_mode", str),
        "train_on_noisy": ("train_on_noisy", _to_bool),
        "split_strategy": ("split_strategy", str),
        "test_fraction": ("test_fraction", float),
        "seed": ("seed", int),
    },
    "audio": {
        "snrs_db": ("snrs_db", _to_float_list),
    },
    "dsp": {
        "frame_len": ("mfcc.frame_len", int),
        "hop": ("mfcc.hop", int),
        "fft_size": ("mfcc.fft_size", int),
        "n_mels": ("mfcc.n_mels", int),
        "n_ceps": ("mfcc.n_ceps", int),
        "preemph": ("mfcc.preemph", float),
        "fmin_hz": ("mfcc.fmin_hz", float),
        "fmax_hz": ("mfcc.fmax_hz", _to_opt_float),
        "log_floor": ("mfcc.log_floor", float),
        "seg_frames": ("segment.seg_frames", int),
        "seg_hop": ("segment.seg_hop", int),
    },
    "dbn": {
        "hidden_sizes": ("hidden_sizes", _to_int_list),
        "cd_steps": ("train.cd_steps", int),
        "learning_rate_pretrain": ("train.learning_rate_pretrain", float),
        "learning_rate_pretrain_gaussian": ("train.learning_rate_pretrain_gaussian", float),
        "learning_rate_finetune": ("train.learning_rate_finetune", float),
        "momentum": ("train.momentum", float),
        "weight_decay": ("train.weight_decay", float),
        "batch_size": ("train.batch_size", int),
        "epochs_pretrain": ("train.epochs_pretrain", int),
        "epochs_finetune": ("train.epochs_finetune", int),
    },
}


class ConfigError(ValueError):
    """Config text cannot be parsed, names an unknown key or sets a refused value."""


def apply_settings(base: RunConfig, settings, source: str) -> RunConfig:
    """Apply ``{section: {key: text}}`` to ``base`` through the ``_SCHEMA`` converters.

    ``source`` names where the text came from in error messages.
    """
    top: dict = {}
    nested: dict[str, dict] = {"mfcc": {}, "segment": {}, "train": {}}
    for section, items in settings.items():
        if section not in _SCHEMA:
            raise ConfigError(f"{source}: unknown config section [{section}]")
        for key, raw in items.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{source}: unknown key {key!r} in section [{section}]")
            target, convert = _SCHEMA[section][key]
            try:
                value = convert(raw)
            except ValueError as exc:
                raise ConfigError(f"{source}: bad value for {key!r}: {exc}") from exc
            if "." in target:
                block, name = target.split(".")
                nested[block][name] = value
            else:
                top[target] = value

    # a value __post_init__ refuses is named with its source, as a converter's is
    try:
        return replace(
            base,
            **top,
            mfcc=replace(base.mfcc, **nested["mfcc"]),
            segment=replace(base.segment, **nested["segment"]),
            train=replace(base.train, **nested["train"]),
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    """Parse a config file into a RunConfig on top of ``base`` (or defaults)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    settings = {section: dict(parser.items(section)) for section in parser.sections()}
    return apply_settings(base or RunConfig(), settings, str(path))

