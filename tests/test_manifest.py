"""Golden values of the split's shuffle.

``split`` draws only through ``random.Random(seed).random()``, whose sequence
for a given seed Python keeps across releases. These literals pin that
stream and the shuffle built on it, so any change to either, on any Python,
fails here rather than silently moving every manifest.
"""

import random

import pytest

from emonoise.manifest import Label, ManifestEntry, _shuffled, split


def test_random_stream_is_pinned():
    rng = random.Random(42)
    assert [int(rng.random() * (i + 1)) for i in range(9, 0, -1)] == [6, 0, 2, 1, 4, 3, 3, 0, 0]


def test_shuffle_is_pinned():
    assert _shuffled(10, random.Random(42)) == [9, 7, 8, 5, 3, 4, 1, 2, 0, 6]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 1000])
def test_shuffle_is_a_permutation(n):
    assert sorted(_shuffled(n, random.Random(n))) == list(range(n))


def manifest_of(counts, n_speakers):
    """``counts[label]`` utterances of each label, spread over ``n_speakers`` speakers."""
    return [ManifestEntry(f"{i % n_speakers + 1:02d}x{label.name}{i}.wav", label,
                          f"{i % n_speakers + 1:02d}")
            for label, count in zip(Label, counts) for i in range(count)]


# 24 utterances, uneven over the labels (fear has none) and the four speakers
SMALL = manifest_of([4, 5, 3, 0, 6, 2, 4], n_speakers=4)


@pytest.mark.parametrize("strategy, test_indices", [
    ("stratified_random", [2, 5, 6, 9, 12, 13, 19, 22]),
    ("leave_speakers_out", [1, 5, 10, 13, 17, 19, 21]),
])
def test_split_is_pinned(strategy, test_indices):
    tagged = split(SMALL, strategy, 0.25, seed=42)
    assert [i for i, e in enumerate(tagged) if e.split == "test"] == test_indices
    assert [e.split for e in tagged].count("train") == len(SMALL) - len(test_indices)
