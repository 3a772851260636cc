"""Workload definitions and the seeded input generator.

Each workload is a synthetic corpus plus one INI config. The corpus follows
the Berlin (EmoDB) filename convention, ``<speaker:2><text:3><emotion:1>
<version:1>.wav``, with a three-harmonic tone whose fundamental encodes the
emotion, so the classifier has something to learn. Noise is white, pink or
babble, written at the rate the workload needs. Everything is a pure
function of the seed, and WAVs are written with the standard library, so a
change to the program under test cannot change its inputs.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# label index -> Berlin emotion letter (anger, boredom, disgust, fear, joy,
# neutral, sadness), the order of emonoise's Label enum
EMOTION_LETTERS = "WLEAFNT"
SPEECH_RATE_HZ = 16000
PROGRAM_SEED = 42
FLOOR_DB = -35.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_speakers: int
    utterance_s: float
    noise_rate_hz: int
    noise_s: float
    categories: tuple[str, ...]
    snrs_db: tuple[float, ...]
    hidden_sizes: tuple[int, ...]
    epochs_pretrain: int
    epochs_finetune: int
    learning_rate_pretrain_gaussian: float = 0.001
    learning_rate_pretrain: float = 0.01
    learning_rate_finetune: float = 0.01
    test_fraction: float = 0.2
    train_on_noisy: bool = False

    @property
    def n_conditions(self) -> int:
        """Rows of report.csv: the clean baseline plus every category x SNR."""
        return 1 + len(self.categories) * len(self.snrs_db)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-paper",
            why="paper topology 13-1000-1000-2000 trained on clean speech: dbn "
            "pretraining and fine-tuning dominate, dsp and audio do little",
            n_speakers=76,
            utterance_s=2.7,
            noise_rate_hz=SPEECH_RATE_HZ,
            noise_s=10.0,
            categories=("white",),
            snrs_db=(0.0, 20.0),
            hidden_sizes=(1000, 1000, 2000),
            epochs_pretrain=5,
            epochs_finetune=3,
        ),
        Workload(
            name="noise-sweep",
            why="narrow net, 3 noise kinds x 5 SNRs: inference only, so MFCC on "
            "noisy audio and SNR mixing dominate and dbn does little",
            n_speakers=40,
            utterance_s=2.0,
            noise_rate_hz=SPEECH_RATE_HZ,
            noise_s=10.0,
            categories=("babble", "pink", "white"),
            snrs_db=(-5.0, 0.0, 5.0, 10.0, 20.0),
            hidden_sizes=(256, 256, 512),
            epochs_pretrain=5,
            epochs_finetune=10,
            learning_rate_pretrain_gaussian=0.01,
            learning_rate_pretrain=0.1,
            learning_rate_finetune=0.1,
        ),
        Workload(
            name="noisy-train-44k",
            why="training on noisy speech with 44.1 kHz noise: the only workload "
            "that resamples, and it loads noise once per training utterance",
            n_speakers=14,
            utterance_s=2.0,
            noise_rate_hz=44100,
            noise_s=0.6,
            categories=("babble", "white"),
            snrs_db=(10.0, 20.0),
            hidden_sizes=(256, 256, 512),
            epochs_pretrain=20,
            epochs_finetune=20,
            learning_rate_pretrain_gaussian=0.01,
            learning_rate_pretrain=0.1,
            learning_rate_finetune=0.1,
            test_fraction=0.5,
            train_on_noisy=True,
        ),
    )
}


def write_wav(samples: np.ndarray, rate_hz: int, path: Path) -> None:
    """16-bit PCM mono WAV, samples clipped to [-1, 1]."""
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate_hz)
        fh.writeframes(pcm.tobytes())


def tone_utterance(label: int, speaker_scale: float, duration_s: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Three harmonics of f0 = 150 Hz * 1.3^label, shifted by the speaker.

    A white floor FLOOR_DB below the tone stands in for a recording's noise
    floor, so no mel band of a clean utterance is empty.
    """
    f0 = 150.0 * 1.3**label * speaker_scale
    t = np.arange(int(SPEECH_RATE_HZ * duration_s)) / SPEECH_RATE_HZ
    x = np.zeros_like(t)
    for harmonic in (1, 2, 3):
        x += np.sin(2.0 * np.pi * f0 * harmonic * t + rng.uniform(0.0, 2.0 * np.pi)) / harmonic
    x *= (0.25 + 0.05 * rng.random()) / np.abs(x).max()
    floor = np.sqrt(np.mean(np.square(x))) * 10.0 ** (FLOOR_DB / 20.0)
    return x + floor * rng.standard_normal(t.size)


def _normalize(x: np.ndarray, rms: float = 0.2) -> np.ndarray:
    x = x * (rms / np.sqrt(np.mean(np.square(x))))
    return np.clip(x, -0.95, 0.95)


def white_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    return _normalize(rng.standard_normal(n))


def pink_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    """White noise shaped to a 1/f power spectrum."""
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.arange(spectrum.size, dtype=np.float64)
    freqs[0] = 1.0
    return _normalize(np.fft.irfft(spectrum / np.sqrt(freqs), n))


def babble_noise(n: int, rate_hz: int, rng: np.random.Generator, talkers: int = 6) -> np.ndarray:
    """Several voiced talkers with drifting pitch and syllable-rate envelopes."""
    t = np.arange(n) / rate_hz
    out = np.zeros(n)
    for _ in range(talkers):
        f0 = rng.uniform(100.0, 250.0) * (1.0 + 0.1 * np.sin(2.0 * np.pi * rng.uniform(0.2, 0.8) * t))
        phase = 2.0 * np.pi * np.cumsum(f0) / rate_hz
        voice = sum(np.sin(k * phase) / k for k in range(1, 6))
        envelope = 0.5 * (1.0 + np.sin(2.0 * np.pi * rng.uniform(3.0, 5.0) * t + rng.uniform(0, 6.3)))
        out += voice * envelope
    return _normalize(out)


def generate(workload: Workload, seed: int, root: Path) -> tuple[Path, Path]:
    """Write the workload's clean corpus and noise tree; return (clean_dir, noise_dir)."""
    rng = np.random.default_rng([seed, 1603_05901])
    clean_dir = root / "clean"
    clean_dir.mkdir(parents=True)
    speaker_scales = rng.uniform(0.97, 1.03, workload.n_speakers)
    for speaker in range(workload.n_speakers):
        for label, letter in enumerate(EMOTION_LETTERS):
            x = tone_utterance(label, speaker_scales[speaker], workload.utterance_s, rng)
            write_wav(x, SPEECH_RATE_HZ, clean_dir / f"{speaker + 1:02d}a01{letter}a.wav")

    noise_dir = root / "noise"
    n = int(workload.noise_rate_hz * workload.noise_s)
    makers = {
        "white": lambda: white_noise(n, rng),
        "pink": lambda: pink_noise(n, rng),
        "babble": lambda: babble_noise(n, workload.noise_rate_hz, rng),
    }
    for category in workload.categories:
        folder = noise_dir / category
        folder.mkdir(parents=True)
        write_wav(makers[category](), workload.noise_rate_hz, folder / "ch01.wav")
    return clean_dir, noise_dir


def config_text(workload: Workload, clean_dir: Path, noise_dir: Path, work_dir: Path) -> str:
    """The INI the stages read; keys are the program's documented config keys.

    The program's master seed (split, initialisation, minibatch order, noise
    windows) is the same for every benchmark seed, which varies the audio only:
    whether a net this size learns depends on its initialisation, and the
    accuracy metrics should compare programs, not initialisations.
    """
    return "\n".join(
        [
            "[pipeline]",
            f"clean_dir = {clean_dir}",
            f"noise_dir = {noise_dir}",
            f"work_dir = {work_dir}",
            f"sample_rate_hz = {SPEECH_RATE_HZ}",
            f"noise_categories = {', '.join(workload.categories)}",
            f"train_on_noisy = {'true' if workload.train_on_noisy else 'false'}",
            "delta_mode = relative",
            f"test_fraction = {workload.test_fraction!r}",
            f"seed = {PROGRAM_SEED}",
            "",
            "[audio]",
            f"snrs_db = {', '.join(repr(s) for s in workload.snrs_db)}",
            "",
            "[dbn]",
            f"hidden_sizes = {', '.join(str(h) for h in workload.hidden_sizes)}",
            f"epochs_pretrain = {workload.epochs_pretrain}",
            f"epochs_finetune = {workload.epochs_finetune}",
            f"learning_rate_pretrain_gaussian = {workload.learning_rate_pretrain_gaussian!r}",
            f"learning_rate_pretrain = {workload.learning_rate_pretrain!r}",
            f"learning_rate_finetune = {workload.learning_rate_finetune!r}",
            "",
        ]
    )
