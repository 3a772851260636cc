"""Experiment orchestration: manifests, splits, training, and scoring.

The reference protocol trains on clean speech only, evaluates the clean
baseline plus every configured noise category x SNR on the test split, and
reports the clean-vs-noisy accuracy difference per condition. Utterance
labels come from majority vote over segment predictions; segment-level
accuracy is reported alongside.

The stages hand over files in the work directory, which only prepare
creates: manifest.csv, model.dbn with its model.key and report.csv, each
replaced atomically. model.key holds a hash of the training split and the
config fields training read, and evaluation refuses a model whose key does
not match the current manifest and config. Training and evaluation turn an
utterance into segment vectors through one function, ``_segments``, which
mixes in the condition's noise, if any, and computes MFCC segment means
from the WAV under the current config; features are never cached.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
import zlib
from dataclasses import asdict, dataclass, replace
from enum import IntEnum
from pathlib import Path

import numpy as np

from ._files import atomic_open
from .audio import AudioClip, MixSpec, mix_at_snr, read_wav, resample
from .config import RunConfig
from .dbn import N_LABELS, Dbn, fine_tune, forward, load_model, pretrain_dbn, save_model
from .dsp import mfcc, segment_features


class Label(IntEnum):
    ANGER = 0
    BOREDOM = 1
    DISGUST = 2
    FEAR = 3
    JOY = 4
    NEUTRAL = 5
    SADNESS = 6


# Berlin corpus filename convention: speaker(2) text(3) emotion(1) version(1),
# e.g. 03a01Fa.wav -> speaker 03, Freude (joy)
EMODB_EMOTION_CODES = {
    "W": Label.ANGER,
    "L": Label.BOREDOM,
    "E": Label.DISGUST,
    "A": Label.FEAR,
    "F": Label.JOY,
    "N": Label.NEUTRAL,
    "T": Label.SADNESS,
}

REPORT_COLUMNS = (
    "condition",
    "snr_db",
    "segment_accuracy",
    "utterance_accuracy",
    "clean_utterance_accuracy",
    "delta_percent",
    "band",
)

CLEAN_CONDITION = "clean"


def emodb_label_rule(filename: str) -> Label:
    """Emotion from the Berlin-style filename letter code."""
    stem = Path(filename).stem
    if len(stem) >= 6 and stem[5] in EMODB_EMOTION_CODES:
        return EMODB_EMOTION_CODES[stem[5]]
    raise ValueError(f"cannot map filename {filename!r} to an emotion label")


def emodb_speaker_rule(filename: str) -> str:
    """Speaker id from the Berlin-style filename prefix."""
    stem = Path(filename).stem
    if len(stem) >= 2 and stem[:2].isdigit():
        return stem[:2]
    raise ValueError(f"cannot parse a speaker id from filename {filename!r}")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: Label
    speaker: str
    split: str = ""


def build_manifest(clean_dir, label_rule=emodb_label_rule, speaker_rule=emodb_speaker_rule):
    """One entry per WAV file under clean_dir, sorted by filename, untagged."""
    root = Path(clean_dir)
    if not root.is_dir():
        raise ValueError(f"clean_dir {clean_dir!r} is not a directory")
    names = sorted(p.name for p in root.iterdir() if p.suffix.lower() == ".wav")
    if not names:
        raise ValueError(f"no WAV files found under {clean_dir!r}")
    return [
        ManifestEntry(str(root / name), label_rule(name), speaker_rule(name))
        for name in names
    ]


def split(manifest, strategy: str = "stratified_random", test_fraction: float = 0.2,
          seed: int = 42):
    """Assign train/test tags; deterministic given the seed.

    stratified_random shuffles each label's utterances and sends the last
    ceil(fraction * n) to test. leave_speakers_out assigns whole speakers
    to test until the fraction is reached.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    if not manifest:
        raise ValueError("manifest is empty")
    rng = np.random.default_rng(seed)
    test_idx: set[int] = set()

    if strategy == "stratified_random":
        for label in Label:
            members = [i for i, e in enumerate(manifest) if e.label == label]
            if not members:
                continue
            if len(members) < 2:
                raise ValueError(
                    f"label {label.name.lower()} has {len(members)} utterance(s); "
                    "stratified_random needs at least 2"
                )
            order = rng.permutation(len(members))
            n_test = math.ceil(test_fraction * len(members))
            test_idx.update(members[i] for i in order[len(members) - n_test :])
    elif strategy == "leave_speakers_out":
        speakers = sorted({e.speaker for e in manifest})
        order = rng.permutation(len(speakers))
        target = test_fraction * len(manifest)
        count = 0
        for pos in order:
            if count >= target:
                break
            chosen = speakers[pos]
            members = [i for i, e in enumerate(manifest) if e.speaker == chosen]
            test_idx.update(members)
            count += len(members)
        if len(test_idx) == len(manifest):
            raise ValueError("leave_speakers_out left no speakers for training")
    else:
        raise ValueError(f"unknown split strategy {strategy!r}")

    return [
        replace(e, split="test" if i in test_idx else "train") for i, e in enumerate(manifest)
    ]


def write_manifest(manifest, path) -> None:
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label", "speaker", "split"])
        for e in manifest:
            writer.writerow([e.path, e.label.name.lower(), e.speaker, e.split])


def read_manifest(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["path", "label", "speaker", "split"]:
        raise ValueError(f"{path}: not a manifest CSV (bad header)")
    return [
        ManifestEntry(path=r[0], label=Label[r[1].upper()], speaker=r[2], split=r[3])
        for r in rows[1:]
    ]


def fit_standardization(train_features):
    """Per-dimension mean and population std of training feature vectors.

    Dimensions with zero spread get std clamped to 1 (with a warning) so
    z-scoring maps them to exactly 0.
    """
    x = np.asarray(train_features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("standardization needs a nonempty 2-D feature array")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    flat = std == 0.0
    if flat.any():
        warnings.warn(
            f"{int(flat.sum())} feature dimension(s) are constant; clamping their std to 1"
        )
        std = np.where(flat, 1.0, std)
    return mean, std


def majority_vote(segment_labels) -> int:
    """Most frequent label; ties resolve to the lowest label index."""
    votes = np.asarray(segment_labels, dtype=np.int64)
    if votes.size == 0:
        raise ValueError("majority_vote of an empty list is undefined")
    return int(np.argmax(np.bincount(votes, minlength=N_LABELS)))


def accuracy_delta(clean_acc: float, noisy_acc: float) -> float:
    """Relative accuracy drop in percent; negative means noise helped."""
    if clean_acc <= 0.0:
        raise ValueError("clean accuracy must be positive to compute a relative delta")
    return 100.0 * (clean_acc - noisy_acc) / clean_acc


def band(delta_percent: float) -> str:
    """Bucket a delta into the report's observation bands."""
    if not math.isfinite(delta_percent):
        raise ValueError("delta must be finite")
    if delta_percent < 0.0:
        return "improved"
    if delta_percent < 10.0:
        return "<10"
    if delta_percent < 20.0:
        return "10-20"
    if delta_percent < 30.0:
        return "20-30"
    return ">=30"


@dataclass
class EvalReport:
    """Scores for one condition, relative to the clean baseline."""

    condition: str
    snr_db: float | None
    segment_accuracy: float
    utterance_accuracy: float
    clean_accuracy: float
    delta_percent: float
    band: str
    confusion: np.ndarray  # (true label, predicted label) counts


def noise_offset_for(seed: int, utterance_name: str, noise_len: int) -> int:
    """Deterministic noise-window offset tied to the utterance identity.

    Keyed by name rather than list position so evaluation is invariant to
    utterance order.
    """
    return zlib.crc32(f"{seed}:{utterance_name}".encode()) % noise_len


def _segments(config: RunConfig, clip: AudioClip, name: str, noise: AudioClip | None = None,
              snr_db: float | None = None) -> np.ndarray:
    """Segment vectors of one utterance, mixed with ``noise`` at ``snr_db`` first if given.

    The noise window is keyed by the seed and the utterance ``name``, so
    scores do not depend on utterance order.
    """
    if noise is not None:
        spec = MixSpec(snr_db, noise_offset_for(config.seed, name, len(noise)))
        clip = mix_at_snr(clip, noise, spec)
    return segment_features(mfcc(clip, config.mfcc), config.segment)


def evaluate(
    model: Dbn,
    entries,
    clips: dict[str, AudioClip],
    config: RunConfig,
    *,
    condition: str = CLEAN_CONDITION,
    noise: AudioClip | None = None,
    snr_db: float | None = None,
    clean_accuracy: float | None = None,
) -> EvalReport:
    """Score a test split under one condition.

    ``clips`` holds each entry's audio at the pipeline rate, keyed by path.
    With ``noise``, every utterance is mixed with it at ``snr_db``. When
    ``clean_accuracy`` is None this run is itself the baseline.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("cannot evaluate an empty test split")
    confusion = np.zeros((N_LABELS, N_LABELS), dtype=np.int64)
    seg_hits = 0
    seg_total = 0
    for entry in entries:
        segments = _segments(config, clips[entry.path], Path(entry.path).name, noise, snr_db)
        preds = np.argmax(forward(model, segments), axis=-1)
        seg_hits += int(np.sum(preds == int(entry.label)))
        seg_total += preds.size
        confusion[int(entry.label), majority_vote(preds)] += 1

    total = confusion.sum()
    assert total == len(entries)
    utterance_acc = float(np.trace(confusion)) / total
    baseline = utterance_acc if clean_accuracy is None else clean_accuracy
    if clean_accuracy is None:
        delta = 0.0  # this run is the baseline; its delta is zero by definition
    elif config.delta_mode == "relative":
        delta = accuracy_delta(baseline, utterance_acc)
    else:
        delta = 100.0 * (baseline - utterance_acc)
    return EvalReport(
        condition=condition,
        snr_db=snr_db,
        segment_accuracy=seg_hits / seg_total,
        utterance_accuracy=utterance_acc,
        clean_accuracy=baseline,
        delta_percent=delta,
        band=band(delta),
        confusion=confusion,
    )


def write_report(reports, path) -> None:
    """Report CSV: clean row first (empty snr_db), then by condition and SNR."""
    clean_rows = [r for r in reports if r.condition == CLEAN_CONDITION]
    noisy_rows = sorted(
        (r for r in reports if r.condition != CLEAN_CONDITION),
        key=lambda r: (r.condition, r.snr_db),
    )
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in clean_rows + noisy_rows:
            writer.writerow(
                [
                    r.condition,
                    "" if r.snr_db is None else f"{r.snr_db:.6f}",
                    f"{r.segment_accuracy:.6f}",
                    f"{r.utterance_accuracy:.6f}",
                    f"{r.clean_accuracy:.6f}",
                    f"{r.delta_percent:.6f}",
                    r.band,
                ]
            )


def read_report(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != REPORT_COLUMNS:
        raise ValueError(f"{path}: not a report CSV (bad header)")
    return [dict(zip(REPORT_COLUMNS, row)) for row in rows[1:]]


# --- experiment stages -----------------------------------------------------


def _load_clip(config: RunConfig, path: str) -> AudioClip:
    clip = read_wav(path)
    if clip.sample_rate_hz != config.sample_rate_hz:
        clip = resample(clip, config.sample_rate_hz)
    return clip


def resolve_noise_categories(config: RunConfig) -> list[str]:
    """Validate and list the noise categories; fails fast on missing ones."""
    noise_root = Path(config.noise_dir)
    if not noise_root.is_dir():
        raise ValueError(f"noise_dir {config.noise_dir!r} is not a directory")
    if config.noise_categories:
        names = list(config.noise_categories)
    else:
        names = sorted(p.name for p in noise_root.iterdir() if p.is_dir())
        if not names:
            raise ValueError(f"noise_dir {config.noise_dir!r} has no category subdirectories")
    for name in names:
        category = noise_root / name
        if not category.is_dir():
            raise ValueError(f"noise category {name!r} not found under {config.noise_dir!r}")
        if not any(p.suffix.lower() == ".wav" for p in category.iterdir()):
            raise ValueError(f"noise category {name!r} contains no WAV files")
    return names


def load_noise(config: RunConfig, category: str) -> AudioClip:
    """First WAV (sorted) of a category, channel 0, at the pipeline rate."""
    folder = Path(config.noise_dir) / category
    candidates = sorted(p for p in folder.iterdir() if p.suffix.lower() == ".wav")
    if not candidates:
        raise ValueError(f"noise category {category!r} contains no WAV files")
    return _load_clip(config, str(candidates[0]))


def manifest_path(config: RunConfig) -> Path:
    return Path(config.work_dir) / "manifest.csv"


def model_path(config: RunConfig) -> Path:
    return Path(config.work_dir) / "model.dbn"


def model_key_path(config: RunConfig) -> Path:
    return Path(config.work_dir) / "model.key"


def report_path(config: RunConfig) -> Path:
    return Path(config.work_dir) / "report.csv"


def prepare(config: RunConfig, progress=None) -> Path:
    """Build the manifest from clean_dir, split it, and write manifest.csv."""
    log = progress or (lambda msg: None)
    manifest = build_manifest(config.clean_dir)
    manifest = split(manifest, config.split_strategy, config.test_fraction, config.seed)
    Path(config.work_dir).mkdir(parents=True, exist_ok=True)
    path = manifest_path(config)
    write_manifest(manifest, path)
    log(f"manifest: {len(manifest)} utterances -> {path}")
    return path


def _require_manifest(config: RunConfig, progress=None):
    path = manifest_path(config)
    if not path.exists():
        prepare(config, progress)
    return read_manifest(path)


def _training_set(config: RunConfig, train_entries, noises=None):
    """Stack per-segment vectors and labels for the training split.

    ``noises`` maps each noise category to its loaded clip. When it is
    given, each utterance is mixed with one category at one SNR, both drawn
    from a generator keyed by the seed and the utterance name.
    """
    categories = list(noises or ())
    blocks = []
    labels = []
    for entry in train_entries:
        name = Path(entry.path).name
        noise = snr = None
        if noises:
            pick = np.random.default_rng([config.seed, zlib.crc32(name.encode())])
            noise = noises[categories[int(pick.integers(len(categories)))]]
            snr = config.snrs_db[int(pick.integers(len(config.snrs_db)))]
        segments = _segments(config, _load_clip(config, entry.path), name, noise, snr)
        blocks.append(segments)
        labels.extend([int(entry.label)] * segments.shape[0])
    return np.vstack(blocks), np.asarray(labels, dtype=np.int64)


def _training_key(config: RunConfig, train_entries, noise_categories=None) -> str:
    """sha256 of the training split and every config field that train_model reads.

    ``noise_categories`` are the resolved categories; they and the SNRs
    count only when training on noisy speech.
    """
    fields = {
        "train_split": [[e.path, int(e.label)] for e in train_entries],
        "mfcc": asdict(config.mfcc),
        "segment": asdict(config.segment),
        "sample_rate_hz": config.sample_rate_hz,
        "hidden_sizes": list(config.hidden_sizes),
        "train": asdict(replace(config.train, seed=config.seed)),
        "seed": config.seed,
        "train_on_noisy": config.train_on_noisy,
    }
    if config.train_on_noisy:
        fields["noise_categories"] = list(noise_categories)
        fields["snrs_db"] = list(config.snrs_db)
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def train_model(config: RunConfig, progress=None) -> Path:
    """Fit standardization, pretrain the RBM stack, fine-tune, save the model."""
    log = progress or (lambda msg: None)
    manifest = _require_manifest(config, progress)
    train_entries = [e for e in manifest if e.split == "train"]
    if not train_entries:
        raise ValueError("manifest has no training utterances")
    noises = categories = None
    if config.train_on_noisy:
        categories = resolve_noise_categories(config)
        noises = {c: load_noise(config, c) for c in categories}

    features, labels = _training_set(config, train_entries, noises)
    log(f"training set: {features.shape[0]} segment vectors from {len(train_entries)} utterances")
    mean, std = fit_standardization(features)
    train_cfg = replace(config.train, seed=config.seed)
    layer_sizes = [config.mfcc.n_ceps, *config.hidden_sizes]
    log(f"pretraining layers {layer_sizes}")
    model = pretrain_dbn(
        (features - mean) / std,
        layer_sizes,
        train_cfg,
        standardization=(mean, std),
        n_labels=N_LABELS,
    )
    log(f"fine-tuning for {train_cfg.epochs_finetune} epochs")
    model = fine_tune(model, features, labels, train_cfg)
    path = model_path(config)
    # the old key goes first, so no failure in between leaves a key that
    # vouches for a model it was not written with
    key_path = model_key_path(config)
    key_path.unlink(missing_ok=True)
    save_model(model, path)
    with atomic_open(key_path, "w") as fh:
        fh.write(_training_key(config, train_entries, categories) + "\n")
    log(f"model -> {path}")
    return path


def evaluate_experiment(config: RunConfig, progress=None) -> Path:
    """Score clean and every noise category x SNR; write report.csv."""
    log = progress or (lambda msg: None)
    categories = resolve_noise_categories(config)
    manifest = _require_manifest(config, progress)
    test_entries = [e for e in manifest if e.split == "test"]
    if not test_entries:
        raise ValueError("manifest has no test utterances")
    model_file = model_path(config)
    if not model_file.exists():
        raise ValueError(f"model file {model_file} not found; run the train stage first")
    key_file = model_key_path(config)
    if not key_file.exists():
        raise ValueError(f"{key_file} not found, so {model_file} cannot be matched to "
                         "the config; run the train stage again")
    train_entries = [e for e in manifest if e.split == "train"]
    if key_file.read_text().strip() != _training_key(config, train_entries, categories):
        raise ValueError(f"{model_file} was trained on another split or under a different "
                         "config (mfcc, segment, sample rate, hidden sizes, training or noise "
                         "settings); run the train stage again")
    model = load_model(model_file)

    clips = {e.path: _load_clip(config, e.path) for e in test_entries}
    log(f"evaluating clean baseline on {len(test_entries)} utterances")
    clean_report = evaluate(model, test_entries, clips, config)
    reports = [clean_report]
    for category in categories:
        noise = load_noise(config, category)
        for snr in sorted(config.snrs_db):
            log(f"evaluating {category} at {snr:g} dB")
            reports.append(
                evaluate(
                    model, test_entries, clips, config, condition=category, noise=noise,
                    snr_db=snr, clean_accuracy=clean_report.utterance_accuracy,
                )
            )
    path = report_path(config)
    write_report(reports, path)
    log(f"report -> {path}")
    return path


def run_experiment(config: RunConfig, progress=None) -> Path:
    """End to end: manifest, split, train, evaluate, report. Deterministic."""
    resolve_noise_categories(config)  # fail fast before any training
    prepare(config, progress)
    train_model(config, progress)
    return evaluate_experiment(config, progress)
