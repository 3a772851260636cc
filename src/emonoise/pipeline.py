"""Experiment orchestration: training and scoring on the split in manifest.csv.

The corpus listing, its split and manifest.csv are made by ``manifest``,
which runs without numpy; this module binds its ``prepare``,
``read_manifest`` and ``manifest_path``, and creates a missing manifest
before training or scoring.

The reference protocol trains on clean speech only, evaluates the clean
baseline plus every configured noise category x SNR on the test split, and
reports the clean-vs-noisy accuracy difference per condition. Evaluation
runs on one thread pool with as many workers as OpenBLAS has threads, with
OpenBLAS pinned to one thread throughout (``_blas.pinned``; ``evaluate``
says why). The pool first featurizes the test split: each utterance is
loaded and transformed once, under every condition. It then classifies the
stacked segment vectors in slices of ``_SCORE_BLOCK_ROWS`` rows. Utterance
labels come from majority vote over segment predictions; segment-level
accuracy is reported alongside.

The stages hand over files in the work directory, which only prepare
creates: manifest.csv, model.dbn with its model.key and report.csv, each
replaced atomically. model.key holds a hash of the training split and the
config fields training read, and evaluation refuses a model whose key does
not match the current manifest and config. Features are computed from the
WAVs under the current config and never cached. Training turns each
utterance into MFCC segment means in ``_training_set``, after mixing in one
noise at one SNR when training on noisy speech; it runs on one thread, with
OpenBLAS pinned to one thread as well. Evaluation needs every condition of
each utterance, so ``_condition_segments`` transforms the utterance once and
one time-domain mixture per noise category, and derives the other SNRs from
those spectra (see ``evaluate``).
Training hands the raw segment vectors and the master seed to ``dbn``,
which fits, stores and applies the input standardization itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import _blas
from ._files import atomic_open
from .audio import AudioClip, mix_at_snr, read_wav, resample
from .config import RunConfig
from .dbn import N_LABELS, Dbn, fine_tune, forward, load_model, pretrain_dbn, save_model
from .dsp import cepstra, frame_spectra, mel_energies, mfcc, segment_features
from .manifest import manifest_path, prepare, read_manifest

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

# rows of evaluate's stacked segment matrix per forward call on a pool
# thread: at paper width a few hundred rows run the GEMMs near their full
# rate, and the activations of the slices in flight stay small
_SCORE_BLOCK_ROWS = 512


def majority_vote(segment_labels) -> int:
    """Most frequent of a nonempty list of labels; ties resolve to the lowest label index."""
    votes = np.asarray(segment_labels, dtype=np.int64)
    return int(np.argmax(np.bincount(votes, minlength=N_LABELS)))


def accuracy_delta(clean_acc: float, noisy_acc: float) -> float:
    """Relative accuracy drop in percent; negative means noise helped."""
    if clean_acc <= 0.0:
        raise ValueError("clean accuracy must be positive to compute a relative delta")
    return 100.0 * (clean_acc - noisy_acc) / clean_acc


def band(delta_percent: float) -> str:
    """Bucket a finite delta into the report's observation bands."""
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


def _condition_segments(config: RunConfig, clip: AudioClip, name: str, noises,
                        snrs_db) -> np.ndarray:
    """Segment vectors of one utterance under every condition, shape (conditions, segments, n_ceps).

    Conditions come clean first, then each category in ``noises`` order at
    every SNR of the ascending ``snrs_db``. Each category's noise window is
    keyed by the seed and the utterance ``name`` (``noise_offset_for``), so
    scores do not depend on utterance order; ``evaluate`` says why deriving
    every SNR from the mixture at ``snrs_db[0]`` is exact.
    """
    cfg = config.mfcc
    rate = clip.sample_rate_hz
    clean = frame_spectra(clip.samples, cfg)
    e_clean = mel_energies(clean, clean, cfg, rate)[:, None, :]
    ratios = 10.0 ** ((snrs_db[0] - np.asarray(snrs_db)) / 20.0)[:, None]
    energies = [e_clean]
    for noise in noises.values():
        mix = mix_at_snr(clip, noise, snrs_db[0], noise_offset_for(config.seed, name, len(noise)))
        diff = frame_spectra(mix.samples, cfg) - clean
        e_cross = mel_energies(clean, diff, cfg, rate)[:, None, :]
        e_diff = mel_energies(diff, diff, cfg, rate)[:, None, :]
        energies.append(e_clean + 2.0 * ratios * e_cross + ratios**2 * e_diff)
    # (frames, conditions, n_mels): each frame row holds every condition, so one
    # segment_features call averages all of them
    energies = np.concatenate(energies, axis=1)
    n_frames, n_conditions, n_mels = energies.shape
    ceps = cepstra(energies.reshape(-1, n_mels), cfg).reshape(n_frames, -1)
    segments = segment_features(ceps, config.segment)
    return segments.reshape(len(segments), n_conditions, -1).transpose(1, 0, 2)


def evaluate(model: Dbn, entries, config: RunConfig, noises) -> list[EvalReport]:
    """Score a nonempty test split under clean and every noise condition.

    ``noises`` maps each category to its clip at the pipeline rate. Reports
    come clean first, then each category in ``noises`` order at every SNR in
    ascending order; each delta is taken against the clean accuracy.

    Each utterance is loaded once and framed and transformed once (spectra
    S_clean). ``mix_at_snr`` then mixes each category in at the lowest SNR
    s0 only, and that mixture is transformed too: D = S_mix - S_clean is the
    spectrum of the gain-scaled noise window, because pre-emphasis, the
    window and the DFT are linear. The gain at SNR s is r = 10^((s0 - s)/20)
    times the gain at s0, so that mixture's spectra are S_clean + r*D and
    its mel energies E_clean + 2r*E_cross + r^2*E_diff
    (``dsp.mel_energies``): exact up to float rounding, with no further FFT.
    Because s0 is the lowest SNR, r <= 1, so the rounding error D carries is
    scaled down, never up; the features agree with per-SNR time-domain
    mixtures to about 1e-13.

    The work runs on a thread pool with as many workers as OpenBLAS has
    threads while the calling thread waits, and OpenBLAS is pinned to one
    thread until the pool is done. Its worker threads spin for a while after
    each call, waiting for the next; left at two threads on two cores, that
    worker and the two pool threads would share two cores, and each of the
    front end's small mel and DCT products would wait for a time slice.
    Pinned, every product runs in the thread that calls it. The pool
    featurizes the utterances, in entry order, and then classifies their
    stacked condition-major segment rows in slices of ``_SCORE_BLOCK_ROWS``
    rows, one ``forward`` call each; each utterance's segment hits and
    majority votes are tallied from its own slice of the predictions. The
    reports do not depend on the number of threads or the slice size. The
    first failure in entry or slice order is raised; the pool cancels the
    work not yet started and waits for the running work first.
    """
    entries = list(entries)
    snrs_db = sorted(config.snrs_db)
    conditions = [(CLEAN_CONDITION, None)] + [(c, snr) for c in noises for snr in snrs_db]
    with _blas.pinned() as n_threads, ThreadPoolExecutor(n_threads) as pool:
        features = list(pool.map(
            lambda e: _condition_segments(config, _load_utterance(config, e.path),
                                          Path(e.path).name, noises, snrs_db),
            entries))
        rows = np.concatenate([segments.reshape(-1, segments.shape[-1]) for segments in features])
        preds = np.concatenate(list(pool.map(
            lambda i: np.argmax(forward(model, rows[i : i + _SCORE_BLOCK_ROWS]), axis=-1),
            range(0, len(rows), _SCORE_BLOCK_ROWS))))
    confusions = np.zeros((len(conditions), N_LABELS, N_LABELS), dtype=np.int64)
    seg_hits = np.zeros(len(conditions), dtype=np.int64)
    seg_total = len(rows) // len(conditions)  # the same for every condition
    start = 0
    for entry, segments in zip(entries, features):
        label = int(entry.label)
        votes = preds[start : start + segments[..., 0].size].reshape(segments.shape[:2])
        start += votes.size
        seg_hits += np.sum(votes == label, axis=1)
        for i, condition_votes in enumerate(votes):
            confusions[i, label, majority_vote(condition_votes)] += 1

    reports = []
    for i, (condition, snr_db) in enumerate(conditions):
        utterance_acc = float(np.trace(confusions[i])) / len(entries)
        if i == 0:  # the clean baseline; its delta is 0 even at zero accuracy
            clean_acc, delta = utterance_acc, 0.0
        elif config.delta_mode == "relative":
            delta = accuracy_delta(clean_acc, utterance_acc)
        else:
            delta = 100.0 * (clean_acc - utterance_acc)
        reports.append(EvalReport(
            condition=condition, snr_db=snr_db, segment_accuracy=int(seg_hits[i]) / seg_total,
            utterance_accuracy=utterance_acc, clean_accuracy=clean_acc, delta_percent=delta,
            band=band(delta), confusion=confusions[i],
        ))
    return reports


def write_report(reports, path) -> None:
    """Report CSV: clean row first (empty snr_db), then by condition and SNR."""
    ordered = sorted(reports, key=lambda r: (r.condition != CLEAN_CONDITION, r.condition, r.snr_db))
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in ordered:
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
    """Rows of a report CSV as dicts of strings; a malformed row is a ValueError naming its line.

    Only the first row is clean and has no snr_db; every number is finite,
    every accuracy in [0, 1] and every band one of ``band``'s names.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != REPORT_COLUMNS:
            raise ValueError(f"{path}: not a report CSV (bad header)")
        for line in reader:
            at = f"{path}, line {reader.line_num}"
            if len(line) != len(REPORT_COLUMNS):
                raise ValueError(f"{at}: expected {len(REPORT_COLUMNS)} fields, found {len(line)}")
            row = dict(zip(REPORT_COLUMNS, line))
            if (row["condition"] == CLEAN_CONDITION, row["snr_db"] == "") != (not rows, not rows):
                want = "a noise row with an snr_db" if rows else "the clean row, with no snr_db"
                raise ValueError(f"{at}: expected {want}")
            # snr_db (the clean row has none), the three accuracies and delta_percent
            for column in REPORT_COLUMNS[1 if rows else 2 : 6]:
                low, high = (0.0, 1.0) if column.endswith("accuracy") else (-math.inf, math.inf)
                try:
                    valid = math.isfinite(float(row[column])) and low <= float(row[column]) <= high
                except ValueError:
                    valid = False
                if not valid:
                    raise ValueError(f"{at}: {column} {row[column]!r} is not a finite "
                                     f"number in [{low:g}, {high:g}]")
            if row["band"] not in ("improved", "<10", "10-20", "20-30", ">=30"):
                raise ValueError(f"{at}: unknown band {row['band']!r}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}, line 2: no condition rows")
    return rows


# --- experiment stages -----------------------------------------------------


def _load_clip(config: RunConfig, path: str) -> AudioClip:
    clip = read_wav(path)
    if clip.sample_rate_hz != config.sample_rate_hz:
        clip = resample(clip, config.sample_rate_hz)
    return clip


def _load_utterance(config: RunConfig, path: str) -> AudioClip:
    """A clean utterance at the pipeline rate; one shorter than a frame is refused by name."""
    clip = _load_clip(config, path)
    if len(clip) < config.mfcc.frame_len:
        raise ValueError(f"{path}: clip of {len(clip)} samples is shorter than one frame "
                         f"({config.mfcc.frame_len})")
    return clip


def resolve_noise_categories(config: RunConfig) -> list[str]:
    """Validate and list the noise categories; fails fast on missing ones.

    A category may not be named ``clean``: the report's clean row has that
    condition name.
    """
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
        if name == CLEAN_CONDITION:
            raise ValueError(f"noise category {name!r} under {config.noise_dir!r} is refused: "
                             "the clean condition has that name")
        category = noise_root / name
        if not category.is_dir():
            raise ValueError(f"noise category {name!r} not found under {config.noise_dir!r}")
        if not any(p.suffix.lower() == ".wav" for p in category.iterdir()):
            raise ValueError(f"noise category {name!r} contains no WAV files")
    return names


def load_noise(config: RunConfig, category: str) -> AudioClip:
    """First WAV (sorted) of a category, channel 0, at the pipeline rate.

    ``resolve_noise_categories`` has checked that the category holds one.
    A file with no samples at that rate is refused: no noise window can be
    cut from it.
    """
    folder = Path(config.noise_dir) / category
    first = min(p for p in folder.iterdir() if p.suffix.lower() == ".wav")
    clip = _load_clip(config, str(first))
    if len(clip) == 0:
        raise ValueError(f"noise file {first} has no samples at "
                         f"{config.sample_rate_hz} Hz")
    return clip


def model_path(config: RunConfig) -> Path:
    return Path(config.work_dir) / "model.dbn"


def model_key_path(config: RunConfig) -> Path:
    return Path(config.work_dir) / "model.key"


def report_path(config: RunConfig) -> Path:
    return Path(config.work_dir) / "report.csv"


def _require_manifest(config: RunConfig, progress=None):
    path = manifest_path(config)
    if not path.exists():
        prepare(config, progress)
    return read_manifest(path)


def _training_set(config: RunConfig, train_entries, noises=None):
    """Stack per-segment vectors and labels for the training split.

    ``noises`` maps each noise category to its loaded clip. When it is
    given, each utterance is mixed with one category at one SNR, both drawn
    from a generator keyed by the seed and the utterance name; the noise
    window is keyed the same way (``noise_offset_for``).

    The utterances run one after another in the calling thread, with
    OpenBLAS pinned to one thread (``_blas.pinned``), so the small mel and
    DCT products never wait for an OpenBLAS worker to get a core.
    """
    categories = list(noises or ())
    blocks = []
    labels = []
    with _blas.pinned():
        for entry in train_entries:
            name = Path(entry.path).name
            clip = _load_utterance(config, entry.path)
            if noises:
                pick = np.random.default_rng([config.seed, zlib.crc32(name.encode())])
                noise = noises[categories[int(pick.integers(len(categories)))]]
                snr = config.snrs_db[int(pick.integers(len(config.snrs_db)))]
                clip = mix_at_snr(clip, noise, snr, noise_offset_for(config.seed, name, len(noise)))
            segments = segment_features(mfcc(clip, config.mfcc), config.segment)
            blocks.append(segments)
            labels.extend([int(entry.label)] * segments.shape[0])
    return np.vstack(blocks), np.asarray(labels, dtype=np.int64)


def _training_key(config: RunConfig, train_entries, noise_categories=None) -> str:
    """sha256 of the training split and every config field that train_model reads.

    ``noise_categories`` are the resolved categories; they, the noise
    directory and the SNRs count only when training on noisy speech.
    """
    fields = {
        "train_split": [[e.path, int(e.label)] for e in train_entries],
        "mfcc": asdict(config.mfcc),
        "segment": asdict(config.segment),
        "sample_rate_hz": config.sample_rate_hz,
        "hidden_sizes": list(config.hidden_sizes),
        "train": asdict(config.train),
        "seed": config.seed,
        "train_on_noisy": config.train_on_noisy,
    }
    if config.train_on_noisy:
        fields["noise_dir"] = config.noise_dir
        fields["noise_categories"] = list(noise_categories)
        fields["snrs_db"] = list(config.snrs_db)
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def train_model(config: RunConfig, progress=None) -> Path:
    """Pretrain the RBM stack on the training features, fine-tune, save the model."""
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
    log(f"pretraining layers {[features.shape[1], *config.hidden_sizes]}")
    model = pretrain_dbn(features, config.hidden_sizes, config.train, config.seed)
    log(f"fine-tuning for {config.train.epochs_finetune} epochs")
    model = fine_tune(model, features, labels, config.train, config.seed)
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
    log(f"evaluating {len(test_entries)} utterances: clean and {len(categories)} noise "
        f"categories x {len(config.snrs_db)} SNRs")
    reports = evaluate(model, test_entries, config, {c: load_noise(config, c) for c in categories})
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
