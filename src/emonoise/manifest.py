"""Corpus manifest: the labelled WAV listing, its train/test split and manifest.csv.

This module and ``config`` import the standard library only, so the
``prepare`` stage, which needs nothing else, starts without loading numpy.

``split`` shuffles with ``_Pcg64``, a pure-Python copy of the generator
behind ``numpy.random.default_rng(seed)``: the PCG64 XSL-RR bit generator
(O'Neill, *PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation*, 2014) seeded through numpy's
``SeedSequence``, and ``Generator.permutation``'s Fisher-Yates shuffle with
masked rejection. It replays that stream draw for draw, so every split is
the one numpy draws for the same seed. Carrying its own copy also keeps the
split fixed if numpy's ``Generator`` stream changes, which NumPy's RNG
policy (NEP 19) allows between releases: a new split would no longer match
the ``model.key`` of a model trained on the old one.
"""

from __future__ import annotations

import csv
import math
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


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for a nonnegative int ``seed``.

    The seed is cut into little-endian 32-bit words, hashed into a pool of
    four words, and the pool mixed so that every word affects every other;
    words past the fourth are mixed into each pool word in turn.
    """
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class _Pcg64:
    """``numpy.random.default_rng(seed)``, reduced to the draws ``permutation`` makes."""

    def __init__(self, seed: int):
        state = _seed_state(seed)
        self._inc = (state[2] << 64 | state[3]) << 1 & _MASK128 | 1
        self._state = 0
        self._step()
        self._state = (self._state + (state[0] << 64 | state[1])) & _MASK128
        self._step()
        self._high_half = None  # the unused upper half of the last 64-bit draw

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128

    def _next64(self) -> int:
        """XSL-RR: the state's halves xor-ed, rotated right by its top six bits."""
        self._step()
        word = (self._state >> 64 ^ self._state) & _MASK64
        rot = self._state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        """The low half of a fresh 64-bit draw, or the high half of the previous one."""
        if self._high_half is not None:
            half, self._high_half = self._high_half, None
            return half
        word = self._next64()
        self._high_half = word >> 32
        return word & _MASK32

    def permutation(self, n: int) -> list[int]:
        """A shuffled ``range(n)``: Fisher-Yates from the last item, each index by masked rejection."""
        if n > 1 << 32:  # numpy draws 64-bit words for such an n, which this omits
            raise ValueError(f"cannot permute {n} items")
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self._next32() & mask) > i:
                pass
            order[i], order[j] = order[j], order[i]
        return order


def split(manifest, strategy: str, test_fraction: float, seed: int):
    """Assign train/test tags; deterministic given the seed.

    stratified_random shuffles each label's utterances and sends the last
    ceil(fraction * n) to test; it refuses a label that this would leave
    with none for training. leave_speakers_out assigns whole speakers
    to test until the fraction is reached; it refuses a split that leaves
    a label with no training utterance. Both shuffle with ``_Pcg64(seed)``,
    one permutation per label in label order, or one of the sorted speakers.
    ``strategy`` is one of these two and ``test_fraction`` lies in (0, 1),
    as ``RunConfig`` requires.
    """
    if not manifest:
        raise ValueError("manifest is empty")
    rng = _Pcg64(seed)
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
            if n_test == len(members):
                raise ValueError(
                    f"label {label.name.lower()} has {len(members)} utterances; "
                    f"test_fraction {test_fraction} sends all of them to test"
                )
            test_idx.update(members[i] for i in order[len(members) - n_test :])
    else:  # leave_speakers_out
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
