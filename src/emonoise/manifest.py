"""Corpus manifest: the labelled WAV listing, its train/test split and manifest.csv.

This module and ``config`` import the standard library only, so the
``prepare`` stage, which needs nothing else, starts without loading numpy.

``split`` shuffles with a Fisher-Yates pass that draws only through
``random.Random(seed).random()``, whose sequence for a given seed Python's
``random`` documentation ("Notes on Reproducibility") keeps the same across
releases; it promises no such thing of ``shuffle`` or ``randrange``. So no
Python or numpy release can move a split and orphan the ``model.key`` of a
model trained on it. The shuffle has no item cap. It replaced a pure-Python
replay of numpy's ``default_rng(seed).permutation``, so every split changed
once then: an older ``manifest.csv`` keeps its split until ``prepare`` runs
again, after which evaluation refuses the old model until ``train`` runs again.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, replace
from enum import IntEnum
from pathlib import Path

from ._files import atomic_open
from .config import RunConfig


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


def build_manifest(clean_dir):
    """One entry per Berlin-named WAV file under clean_dir, sorted by filename, untagged."""
    root = Path(clean_dir)
    if not root.is_dir():
        raise ValueError(f"clean_dir {clean_dir!r} is not a directory")
    names = sorted(p.name for p in root.iterdir() if p.suffix.lower() == ".wav")
    if not names:
        raise ValueError(f"no WAV files found under {clean_dir!r}")
    return [
        ManifestEntry(str(root / name), emodb_label_rule(name), emodb_speaker_rule(name))
        for name in names
    ]


def _shuffled(n: int, rng: random.Random) -> list[int]:
    """``range(n)`` shuffled from the last item down: item i swaps with int(rng.random() * (i + 1))."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        order[i], order[j] = order[j], order[i]
    return order


def split(manifest, strategy: str, test_fraction: float, seed: int):
    """Assign train/test tags; deterministic given the seed.

    stratified_random shuffles each label's utterances and sends the last
    ceil(fraction * n) to test; it refuses a label that this would leave
    with none for training. leave_speakers_out assigns whole speakers
    to test until the fraction is reached; it refuses a split that leaves
    a label with no training utterance. Both shuffle with one
    ``random.Random(seed)``, once per label in label order, or once over the
    sorted speakers, through ``_shuffled``; see the module docstring for why
    only ``random()`` is drawn. ``strategy`` is one of these two and
    ``test_fraction`` lies in (0, 1), as ``RunConfig`` requires.
    """
    if not manifest:
        raise ValueError("manifest is empty")
    rng = random.Random(seed)
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
            order = _shuffled(len(members), rng)
            n_test = math.ceil(test_fraction * len(members))
            if n_test == len(members):
                raise ValueError(
                    f"label {label.name.lower()} has {len(members)} utterances; "
                    f"test_fraction {test_fraction} sends all of them to test"
                )
            test_idx.update(members[i] for i in order[len(members) - n_test :])
    else:  # leave_speakers_out
        speakers = sorted({e.speaker for e in manifest})
        order = _shuffled(len(speakers), rng)
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
        trained = {e.label for i, e in enumerate(manifest) if i not in test_idx}
        untrained = sorted({e.label for e in manifest} - trained)
        if untrained:
            raise ValueError(
                f"label {untrained[0].name.lower()} is spoken only by test speakers; "
                "leave_speakers_out leaves it no training utterance"
            )

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
    """Entries of a manifest CSV; a malformed row is a ValueError naming its line."""
    entries = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["path", "label", "speaker", "split"]:
            raise ValueError(f"{path}: not a manifest CSV (bad header)")
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != 4:
                raise ValueError(f"{where}: expected 4 fields, found {len(row)}")
            if row[1].upper() not in Label.__members__:
                raise ValueError(f"{where}: unknown label {row[1]!r}")
            if row[3] not in ("train", "test"):
                raise ValueError(f"{where}: split {row[3]!r} is neither 'train' nor 'test'")
            entries.append(ManifestEntry(row[0], Label[row[1].upper()], row[2], row[3]))
    return entries


def manifest_path(config: RunConfig) -> Path:
    return Path(config.work_dir) / "manifest.csv"


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
