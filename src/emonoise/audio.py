"""WAV audio reading, resampling, and SNR-controlled noise mixing.

Clips are immutable values and every operation returns a new clip, so
everything here is safe to share read-only across concurrent workers.
Only PCM 16-bit RIFF/WAVE files are handled; multi-channel files are
reduced to channel 0 on read.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass

import numpy as np

FULL_SCALE = 32768.0  # one int16 quantization step is 1/32768

# Windowed-sinc resampler: 64 zero-crossing-spaced taps at unit rate ratio.
# The support widens by source/target when downsampling so the anti-alias
# cutoff stays at the output Nyquist.
_KERNEL_TAPS = 64
# Bytes of each float64 (rows x taps) temporary that one gather of outputs, or
# one build step of phase-table rows, makes: 184 rows at 178 taps, whatever the
# clip length or the number of phases. Chunks this size also stay in cache.
_RESAMPLE_CHUNK_BYTES = 1 << 18


class WavFormatError(ValueError):
    """File is not in the PCM 16-bit RIFF/WAVE layout this library reads."""


@dataclass(frozen=True)
class AudioClip:
    """Mono sample buffer (float64, nominal range [-1, 1]) plus sample rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("AudioClip samples must be one-dimensional")
        if samples.size and not np.isfinite(samples).all():
            raise ValueError("AudioClip samples must be finite")
        if int(self.sample_rate_hz) <= 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", int(self.sample_rate_hz))

    def __len__(self) -> int:
        return self.samples.size


def read_wav(path) -> AudioClip:
    """Read a PCM 16-bit RIFF/WAVE file into an AudioClip.

    The standard library's ``wave`` walks the chunks and skips unknown ones;
    a width other than 2 bytes, a 0 Hz rate and a short data chunk are
    refused here. Every refusal is a WavFormatError naming the path. A
    WAVE_FORMAT_EXTENSIBLE header with the PCM subformat reads as a plain one
    on Python 3.12 and later and is refused on 3.10 and 3.11. Samples are
    scaled by 1/32768 into [-1, 1); multi-channel data keeps channel 0 only.
    """
    try:
        with open(path, "rb") as fh, wave.open(fh) as reader:
            width, n_channels = reader.getsampwidth(), reader.getnchannels()
            sample_rate, n_frames = reader.getframerate(), reader.getnframes()
            if width != 2:
                raise WavFormatError(f"{path}: unsupported sample width ({8 * width}-bit, want 16)")
            if sample_rate < 1:
                raise WavFormatError(f"{path}: fmt chunk declares a 0 Hz sample rate")
            raw = reader.readframes(n_frames)
    except wave.Error as exc:
        raise WavFormatError(f"{path}: {exc}") from exc
    except EOFError as exc:
        raise WavFormatError(f"{path}: truncated header") from exc
    if len(raw) != n_frames * n_channels * 2:
        raise WavFormatError(f"{path}: truncated data chunk")
    return AudioClip(np.frombuffer(raw, dtype=np.int16)[::n_channels] / FULL_SCALE, sample_rate)


def resample(clip: AudioClip, target_rate_hz: int) -> AudioClip:
    """Band-limited polyphase resampling with a Hann-windowed sinc kernel.

    The kernel spans 64 zero crossings of the sinc at unit ratio; when
    downsampling it widens by source/target so the cutoff sits at the output
    Nyquist (178 taps at 44.1 -> 16 kHz, 65 when upsampling). With
    up/down = target/source in lowest terms, output n sits at the exact
    source position n*down/up, so its kernel depends only on the phase
    (n*down) % up: one table row is built per phase and reused. Samples
    outside the clip count as zero. Memory is bounded by the phase table
    plus a few temporaries of _RESAMPLE_CHUNK_BYTES each, whatever the clip
    length and the number of phases. Each output is the same dot product of
    its window and its phase's row, whatever the chunk size.

    Output length is round(len * target/source). Equal rates return the
    input samples unchanged.
    """
    if target_rate_hz <= 0:
        raise ValueError("target_rate_hz must be positive")
    source_rate = clip.sample_rate_hz
    if target_rate_hz == source_rate:
        return AudioClip(clip.samples.copy(), source_rate)

    ratio = target_rate_hz / source_rate
    out_len = int(math.floor(len(clip) * ratio + 0.5))
    if out_len == 0 or len(clip) == 0:
        return AudioClip(np.zeros(out_len), target_rate_hz)

    g = math.gcd(target_rate_hz, source_rate)
    up, down = target_rate_hz // g, source_rate // g
    cutoff = min(1.0, ratio)  # relative to the source Nyquist
    half_width = (_KERNEL_TAPS / 2) / cutoff
    taps = np.arange(int(math.ceil(2 * half_width)) + 1)
    chunk = max(1, _RESAMPLE_CHUNK_BYTES // (8 * taps.size))

    # row p serves every output n with n % n_phases == p
    n_phases = min(up, out_len)
    frac = (np.arange(n_phases) * down % up) / up  # position past floor(n*down/up)
    lead = np.ceil(frac - half_width).astype(np.int64)  # first tap, relative to the floor
    table = np.empty((n_phases, taps.size))
    for start in range(0, n_phases, chunk):
        rows = slice(start, start + chunk)
        delta = frac[rows, None] - (lead[rows, None] + taps[None, :])
        window = np.where(
            np.abs(delta) <= half_width, 0.5 * (1.0 + np.cos(np.pi * delta / half_width)), 0.0
        )
        table[rows] = cutoff * np.sinc(cutoff * delta) * window

    pad_left = -int(lead.min())
    last = (out_len - 1) * down // up + int(lead.max()) + taps.size
    x = np.pad(clip.samples, (pad_left, max(0, last - len(clip))))
    windows = np.lib.stride_tricks.sliding_window_view(x, taps.size)
    lead += pad_left
    out = np.empty(out_len)
    for start in range(0, out_len, chunk):
        n = np.arange(start, min(start + chunk, out_len))
        row = n % n_phases
        out[n] = np.einsum("ij,ij->i", windows[n * down // up + lead[row]], table[row])
    return AudioClip(out, target_rate_hz)


def rms(samples) -> float:
    """Root mean square of a nonempty amplitude sequence."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("rms of an empty sequence is undefined")
    return float(np.sqrt(np.mean(np.square(arr))))


def noise_window(noise: AudioClip, length: int, offset: int) -> np.ndarray:
    """A new array of the ``length`` >= 0 noise samples from ``offset`` on, looping if short.

    Sample i is ``noise.samples[(offset + i) % len(noise)]``, for any integer
    ``offset``, negative ones included (Python's ``%``). The window is
    one slice copy when it does not wrap, and otherwise the noise's tail
    from ``offset % len(noise)``, any whole repeats and its head, joined.
    """
    n = len(noise)
    if n == 0:
        raise ValueError("noise recording is empty")
    samples = noise.samples
    start = offset % n
    if start + length <= n:
        return samples[start:start + length].copy()
    repeats, head = divmod(length - (n - start), n)
    return np.concatenate([samples[start:], *([samples] * repeats), samples[:head]])


def mix_at_snr(clean: AudioClip, noise: AudioClip, snr_db: float,
               noise_offset: int = 0) -> AudioClip:
    """Add a gain-adjusted noise window to the clean clip at an exact SNR.

    The window is the ``len(clean)`` noise samples starting at
    ``noise_offset``, wrapping around if the noise is shorter (``noise_window``).
    The gain g = rms(clean) / (rms(window) * 10^(snr_db/20)) makes
    20*log10(rms(clean)/rms(g*window)) equal the finite ``snr_db`` up to
    float rounding. Output has the clean clip's length and rate.
    """
    if not math.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    if clean.sample_rate_hz != noise.sample_rate_hz:
        raise ValueError(
            f"sample rate mismatch: clean {clean.sample_rate_hz} Hz vs noise {noise.sample_rate_hz} Hz"
        )
    window = noise_window(noise, len(clean), noise_offset)
    clean_rms = rms(clean.samples)
    if clean_rms == 0.0:
        raise ValueError("clean clip is silent; SNR is undefined")
    window_rms = rms(window)
    if window_rms == 0.0:
        raise ValueError("selected noise window is silent; SNR is undefined")
    gain = clean_rms / (window_rms * 10.0 ** (snr_db / 20.0))
    return AudioClip(clean.samples + gain * window, clean.sample_rate_hz)
