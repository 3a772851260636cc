import random

import numpy as np
import pytest

from _oracles import reference_split
from emonoise.manifest import Label, ManifestEntry, _Pcg64, split

# at and around the 32-bit word boundaries where SeedSequence cuts a seed,
# and past its four-word pool, whose extra words are mixed in separately
BOUNDARY_SEEDS = [0, 1, 2, 42, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 12345,
                  2**96 + 7, 2**128 - 1, 2**128, 2**160 + 3]


def seeds(count: int, salt: int) -> list[int]:
    """The boundary seeds, then ``count`` drawn at widths from 1 to 200 bits."""
    draw = random.Random(salt)
    widths = [1, 8, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129, 200]
    return BOUNDARY_SEEDS + [draw.getrandbits(widths[i % len(widths)]) for i in range(count)]


class TestPcg64:
    # consecutive permutations from one generator: a permutation that leaves
    # an odd number of 32-bit draws hands the upper half of its last 64-bit
    # draw to the next one
    SIZES = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 17, 31, 32, 33, 100, 257, 1000, 3, 4099, 2]

    @pytest.mark.parametrize("seed", seeds(16, salt=1))
    def test_permutations_replay_numpy(self, seed):
        ours, numpy_rng = _Pcg64(seed), np.random.default_rng(seed)
        halves_carried = 0
        for n in self.SIZES:
            halves_carried += ours._high_half is not None
            assert ours.permutation(n) == numpy_rng.permutation(n).tolist(), n
        assert halves_carried > 0

    def test_more_items_than_32_bit_draws_can_index_are_refused(self):
        with pytest.raises(ValueError, match="cannot permute"):
            _Pcg64(0).permutation(2**32 + 1)


def manifest_of(counts, n_speakers):
    """``counts[label]`` utterances of each label, spread over ``n_speakers`` speakers."""
    return [ManifestEntry(f"{i % n_speakers + 1:02d}x{label.name}{i}.wav", label,
                          f"{i % n_speakers + 1:02d}")
            for label, count in zip(Label, counts) for i in range(count)]


# (utterances per label, speakers, test fraction): even; ragged with two
# labels missing; the smallest corpus both strategies take; uneven over ten
# speakers; and a larger uneven one of 161. leave_speakers_out refuses
# some seeds of the second and fourth, so refusals are compared too.
SHAPES = [
    ([10] * 7, 5, 0.2),
    ([3, 0, 12, 5, 2, 0, 40], 7, 0.25),
    ([2] * 7, 2, 0.5),
    ([4, 9, 2, 7, 3, 6, 5], 10, 0.34),
    ([25, 27, 15, 23, 24, 26, 21], 10, 0.2),
]


class TestSplitAgainstNumpy:
    @pytest.mark.parametrize("strategy", ["stratified_random", "leave_speakers_out"])
    @pytest.mark.parametrize("counts, n_speakers, fraction", SHAPES)
    def test_split_equals_the_numpy_reference(self, counts, n_speakers, fraction, strategy):
        manifest = manifest_of(counts, n_speakers)
        for seed in seeds(200, salt=2):
            try:
                want = reference_split(manifest, strategy, fraction, seed)
            except ValueError as exc:
                with pytest.raises(ValueError) as refused:
                    split(manifest, strategy, fraction, seed)
                assert str(refused.value) == str(exc), seed
            else:
                assert split(manifest, strategy, fraction, seed) == want, seed
