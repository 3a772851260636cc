import wave

import numpy as np
import pytest

from emonoise.audio import FULL_SCALE, AudioClip
from emonoise.manifest import Label

# label index -> Berlin filename emotion letter
EMOTION_LETTERS = "WLEAFNT"


def write_wav(clip: AudioClip, path) -> None:
    """Write a clip as PCM 16-bit mono little-endian WAV.

    Samples are clamped to [-1, 1] and quantized with round-half-away-from-
    zero at full scale 32768 (the +1.0 code saturates to 32767), which keeps
    read_wav(write_wav(clip)) within one quantization step and makes a second
    round trip bit-exact.
    """
    clamped = np.clip(clip.samples, -1.0, 1.0) * FULL_SCALE
    quantized = np.where(clamped >= 0.0, np.floor(clamped + 0.5), np.ceil(clamped - 0.5))
    with open(path, "wb") as fh, wave.open(fh, "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(clip.sample_rate_hz)
        writer.writeframes(np.clip(quantized, -32768, 32767).astype(np.int16).tobytes())


def tone_utterance(label: int, rng: np.random.Generator, sample_rate=16000, duration=0.6,
                   floor_db=None):
    """A three-harmonic tone complex; the fundamental encodes the class.

    With ``floor_db``, white noise that many dB below the tone's RMS is
    added, drawn from ``rng`` after the tone, as the benchmark corpus does.
    """
    f0 = 150.0 * (1.3**label)
    t = np.arange(int(sample_rate * duration)) / sample_rate
    x = np.zeros_like(t)
    for harmonic in (1, 2, 3):
        x += np.sin(2.0 * np.pi * f0 * harmonic * t + rng.uniform(0, 2 * np.pi)) / harmonic
    x *= (0.25 + 0.05 * rng.random()) / np.abs(x).max()
    if floor_db is not None:
        floor = np.sqrt(np.mean(np.square(x))) * 10.0 ** (floor_db / 20.0)
        x += floor * rng.standard_normal(t.size)
    return AudioClip(x, sample_rate)


def build_tone_corpus(root, n_speakers=10, sample_rate=16000, duration=0.6, seed=1234,
                      floor_db=None):
    """Synthetic corpus in the Berlin filename convention plus a white-noise dir.

    One utterance per (speaker, emotion): filenames like 01a01Wa.wav, each
    with a white floor ``floor_db`` below it if given (see ``tone_utterance``).
    Returns (clean_dir, noise_dir).
    """
    clean_dir = root / "clean"
    clean_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for label in Label:
        letter = EMOTION_LETTERS[int(label)]
        for speaker in range(1, n_speakers + 1):
            clip = tone_utterance(int(label), rng, sample_rate, duration, floor_db)
            write_wav(clip, clean_dir / f"{speaker:02d}a01{letter}a.wav")

    white_dir = root / "noise" / "white"
    white_dir.mkdir(parents=True, exist_ok=True)
    noise = 0.3 * rng.standard_normal(int(sample_rate * 3.0))
    write_wav(AudioClip(np.clip(noise, -0.95, 0.95), sample_rate), white_dir / "ch01.wav")
    return clean_dir, root / "noise"


@pytest.fixture(scope="session")
def tone_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("tone_corpus")
    return build_tone_corpus(root)
