"""MFCC front end: framing, power spectrum, mel filterbank, cepstral transform.

The pipeline per frame is: pre-emphasis, Hamming window, zero-pad to the
FFT size, ``np.fft.rfft`` (``frame_spectra``), power through the triangular
mel filterbank (``mel_energies``), log with a floor and the orthonormal
DCT-II keeping the first ``n_ceps`` coefficients, C0 kept (``cepstra``).
``mfcc`` is their composition. Frame rows are then averaged into
fixed-length segments for the classifier.

Everything up to the spectra is linear in the samples: pre-emphasis is a
linear filter, the window a fixed per-sample weight and the DFT linear
(Oppenheim & Schafer, *Discrete-Time Signal Processing*). So the spectra
of clean + g*w are S_clean + g*S_w, and a caller that has the spectra of a
signal and of one of its mixtures can derive the mel energies of every
rescaled mixture without another FFT.

Everything is a pure function, and the cached filterbank and DCT matrices
are read-only, so distinct utterances can be featurized on parallel
threads without coordination. ``pipeline.evaluate`` featurizes its test
split that way.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .audio import AudioClip
from .config import MfccConfig, SegmentConfig


def frame_signal(samples, frame_len: int, hop: int) -> np.ndarray:
    """Slice a signal into frames starting at 0, hop, 2*hop, ...

    Returns a read-only (n_frames, frame_len) view of the float64 samples:
    frames overlap in memory and nothing is copied, so a caller that wants
    to write copies first. The tail that does not fill a whole frame is
    dropped (no zero padding). Shorter-than-one-frame input yields zero
    frames. ``frame_len`` and ``hop`` are at least 1, as ``MfccConfig``
    requires.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < frame_len:
        frames = np.empty((0, frame_len))
        frames.flags.writeable = False
        return frames
    return np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]


def hz_to_mel(f):
    """Mel scale: m = 2595 * log10(1 + f/700), elementwise over nonnegative frequencies."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    """Inverse mel scale: f = 700 * (10^(m/2595) - 1), elementwise over nonnegative mels."""
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=32)
def mel_filterbank(cfg: MfccConfig, sample_rate_hz: int) -> np.ndarray:
    """Triangular mel filters as a read-only (n_mels, fft_size/2 + 1) weight matrix.

    Corner frequencies are n_mels + 2 mel-equally-spaced points between
    fmin and fmax; each filter rises linearly in Hz to weight 1 at its
    center and falls to 0 at its neighbours' centers. No area normalization.
    The matrix is cached per (cfg, sample_rate_hz).
    """
    fmax = sample_rate_hz / 2.0 if cfg.fmax_hz is None else cfg.fmax_hz
    if fmax > sample_rate_hz / 2.0:
        raise ValueError(f"fmax_hz {fmax} exceeds Nyquist {sample_rate_hz / 2.0}")
    corners = mel_to_hz(np.linspace(hz_to_mel(cfg.fmin_hz), hz_to_mel(fmax), cfg.n_mels + 2))
    bin_freqs = np.arange(cfg.fft_size // 2 + 1) * (sample_rate_hz / cfg.fft_size)

    lower = corners[:-2, None]
    center = corners[1:-1, None]
    upper = corners[2:, None]
    rising = (bin_freqs - lower) / (center - lower)
    falling = (upper - bin_freqs) / (upper - center)
    weights = np.maximum(0.0, np.minimum(rising, falling))

    empty = np.flatnonzero(weights.max(axis=1) <= 0.0)
    if empty.size:
        raise ValueError(
            f"mel filter {empty[0]} has zero support; lower n_mels or raise fft_size"
        )
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=32)
def _dct2_matrix(n: int, n_out: int) -> np.ndarray:
    """Read-only (n_out, n) orthonormal DCT-II basis: x @ M.T keeps the first n_out coefficients."""
    j = np.arange(n)
    k = np.arange(n_out)[:, None]
    basis = np.cos(np.pi * k * (2 * j + 1) / (2 * n))
    scale = np.full(n_out, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    basis *= scale[:, None]
    basis.flags.writeable = False
    return basis


def frame_spectra(samples, cfg: MfccConfig) -> np.ndarray:
    """Complex ``rfft`` of each pre-emphasized, Hamming-windowed frame.

    Shape (n_frames, fft_size/2 + 1). Raises ValueError when the signal is
    shorter than one frame. Pre-emphasis is per frame: each frame's first
    sample is kept as it is. The signal is pre-emphasized once, and the
    frames of that are windowed straight into one zero-padded
    (n_frames, fft_size) buffer; column 0 then gets the raw first samples,
    windowed, so each element is computed as a per-frame filter would.
    """
    x = np.asarray(samples, dtype=np.float64)
    raw = frame_signal(x, cfg.frame_len, cfg.hop)
    if raw.shape[0] == 0:
        raise ValueError(
            f"clip of {len(samples)} samples is shorter than one frame ({cfg.frame_len})"
        )
    emphasized = x.copy()
    emphasized[1:] -= cfg.preemph * x[:-1]

    n = cfg.frame_len
    if n > 1:
        window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))
    else:
        window = np.ones(1)
    padded = np.zeros((raw.shape[0], cfg.fft_size))
    np.multiply(frame_signal(emphasized, n, cfg.hop), window, out=padded[:, :n])
    np.multiply(raw[:, 0], window[0], out=padded[:, 0])
    return np.fft.rfft(padded)


def mel_energies(a, b, cfg: MfccConfig, sample_rate_hz: int) -> np.ndarray:
    """Mel-filtered cross power M Re(a conj(b)) / fft_size of two frame-spectra arrays.

    With ``b`` equal to ``a`` this is each frame's mel filterbank energy.
    It is bilinear, so the energies of a + r*d follow from those of the pairs
    (a, a), (a, d) and (d, d) for any real r.
    """
    cross = (a.real * b.real + a.imag * b.imag) / cfg.fft_size
    return cross @ mel_filterbank(cfg, sample_rate_hz).T


def cepstra(energies, cfg: MfccConfig) -> np.ndarray:
    """MFCC rows from mel energies, shape (..., n_ceps).

    The log with a floor, then the first ``n_ceps`` coefficients of the
    orthonormal DCT-II over the last axis, which holds the ``n_mels`` bands.
    """
    return np.log(np.maximum(energies, cfg.log_floor)) @ _dct2_matrix(cfg.n_mels, cfg.n_ceps).T


def mfcc(clip: AudioClip, cfg: MfccConfig) -> np.ndarray:
    """Per-frame MFCC rows for a clip, shape (n_frames, n_ceps).

    Raises ValueError when the clip is shorter than one frame.
    """
    spectra = frame_spectra(clip.samples, cfg)
    return cepstra(mel_energies(spectra, spectra, cfg, clip.sample_rate_hz), cfg)


def segment_features(frames, scfg: SegmentConfig) -> np.ndarray:
    """Average frame rows into segment-level vectors, shape (n_segments, n_ceps).

    Segment s covers rows [s*seg_hop, s*seg_hop + seg_frames); only fully
    contained segments are emitted. An utterance shorter than one segment
    collapses to a single mean over all its frames.
    """
    mat = np.asarray(frames, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise ValueError("feature matrix must be nonempty with one row per frame")
    n = mat.shape[0]
    if n < scfg.seg_frames:
        return mat.mean(axis=0, keepdims=True)
    starts = range(0, n - scfg.seg_frames + 1, scfg.seg_hop)
    return np.stack([mat[s : s + scfg.seg_frames].mean(axis=0) for s in starts])

