"""Experiment configuration and its flat ``key = value`` file format.

The file uses section headers named after the modules they configure
([pipeline], [audio], [dsp], [dbn]); every key is optional and defaults to
the module defaults, so an empty file reproduces the reference protocol.
Parsing a serialized config yields the identical RunConfig back.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

from .dbn import TrainConfig
from .dsp import MfccConfig, SegmentConfig

SPLIT_STRATEGIES = ("stratified_random", "leave_speakers_out")
DELTA_MODES = ("relative", "absolute")


@dataclass
class RunConfig:
    """Everything one experiment run needs, including the master seed.

    ``train.seed`` is ignored by the pipeline: the master ``seed`` governs
    splitting, training, and noise-window choice alike.
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
        if not self.snrs_db:
            raise ValueError("snrs_db must not be empty")
        if not self.hidden_sizes:
            raise ValueError("hidden_sizes must not be empty")


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
        "finetune_head_only": ("train.finetune_head_only", _to_bool),
    },
}


class ConfigError(ValueError):
    """Config file cannot be parsed or names an unknown key."""


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

    return replace(
        base,
        **top,
        mfcc=replace(base.mfcc, **nested["mfcc"]),
        segment=replace(base.segment, **nested["segment"]),
        train=replace(base.train, **nested["train"]),
    )


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


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Render a RunConfig in the config file format (parse round-trips)."""
    lines: list[str] = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (target, _) in keys.items():
            if "." in target:
                block, name = target.split(".")
                value = getattr(getattr(cfg, block), name)
            else:
                value = getattr(cfg, target)
            lines.append(f"{key} = {_format_value(value)}")
        lines.append("")
    return "\n".join(lines)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_config(cfg))
