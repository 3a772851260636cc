"""WAV audio I/O, resampling, and SNR-controlled noise mixing.

Clips are immutable values and every operation returns a new clip, so
everything here is safe to share read-only across concurrent workers.
Only PCM 16-bit RIFF/WAVE files are handled; multi-channel files are
reduced to channel 0 on read.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

FULL_SCALE = 32768.0  # one int16 quantization step is 1/32768

# Windowed-sinc resampler: 64 zero-crossing-spaced taps at unit rate ratio.
# The support widens by source/target when downsampling so the anti-alias
# cutoff stays at the output Nyquist.
_KERNEL_TAPS = 64
_RESAMPLE_CHUNK = 1 << 16


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


@dataclass(frozen=True)
class MixSpec:
    """How to corrupt one clean clip: target SNR plus the noise window choice.

    ``noise_offset`` indexes into the noise recording, wrapping around if the
    noise is shorter than the clean clip.
    """

    snr_db: float
    noise_offset: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite")
        if self.noise_offset < 0:
            raise ValueError("noise_offset must be nonnegative")


def read_wav(path) -> AudioClip:
    """Read a PCM 16-bit RIFF/WAVE file into an AudioClip.

    Samples are scaled by 1/32768 into [-1, 1). Unknown chunks are skipped;
    multi-channel data keeps channel 0 only.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    n_channels = sample_rate = None
    pos = 12
    while pos + 8 <= len(blob):
        chunk_id = blob[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", blob, pos + 4)
        body = pos + 8
        if chunk_id == b"fmt ":
            if chunk_size < 16 or body + 16 > len(blob):
                raise WavFormatError(f"{path}: truncated fmt chunk")
            fmt_code, n_channels, sample_rate, _, _, bits = struct.unpack_from(
                "<HHIIHH", blob, body
            )
            if fmt_code != 1:
                raise WavFormatError(
                    f"{path}: unsupported encoding (format code {fmt_code}, want PCM)"
                )
            if bits != 16:
                raise WavFormatError(f"{path}: unsupported sample width ({bits}-bit, want 16)")
            if n_channels < 1:
                raise WavFormatError(f"{path}: fmt chunk declares zero channels")
        elif chunk_id == b"data":
            if n_channels is None:
                raise WavFormatError(f"{path}: data chunk appears before fmt chunk")
            if body + chunk_size > len(blob):
                raise WavFormatError(f"{path}: truncated data chunk")
            raw = np.frombuffer(blob, dtype="<i2", count=chunk_size // 2, offset=body)
            frames = raw[: (raw.size // n_channels) * n_channels]
            mono = frames[::n_channels] if n_channels > 1 else frames
            return AudioClip(mono.astype(np.float64) / FULL_SCALE, sample_rate)
        pos = body + chunk_size + (chunk_size & 1)
    raise WavFormatError(f"{path}: missing data chunk")


def write_wav(clip: AudioClip, path) -> None:
    """Write a clip as PCM 16-bit mono little-endian WAV.

    Samples are clamped to [-1, 1] and quantized with round-half-away-from-
    zero at full scale 32768 (the +1.0 code saturates to 32767), which keeps
    read_wav(write_wav(clip)) within one quantization step and makes a second
    round trip bit-exact.
    """
    clamped = np.clip(clip.samples, -1.0, 1.0) * FULL_SCALE
    quantized = np.where(clamped >= 0.0, np.floor(clamped + 0.5), np.ceil(clamped - 0.5))
    payload = np.clip(quantized, -32768, 32767).astype("<i2").tobytes()

    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, 1, 1, clip.sample_rate_hz, clip.sample_rate_hz * 2, 2, 16),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        if len(payload) & 1:  # RIFF chunks are even-padded; unreachable for 16-bit
            fh.write(b"\x00")


def resample(clip: AudioClip, target_rate_hz: int) -> AudioClip:
    """Band-limited resampling with a 64-tap Hann-windowed sinc kernel.

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

    x = clip.samples
    cutoff = min(1.0, ratio)  # relative to the source Nyquist
    half_width = (_KERNEL_TAPS / 2) / cutoff
    taps = np.arange(int(math.ceil(2 * half_width)) + 1)
    out = np.empty(out_len)
    for start in range(0, out_len, _RESAMPLE_CHUNK):
        n = np.arange(start, min(start + _RESAMPLE_CHUNK, out_len))
        t = n / ratio  # output sample positions in source units
        first = np.ceil(t - half_width).astype(np.int64)
        idx = first[:, None] + taps[None, :]
        delta = t[:, None] - idx
        window = np.where(
            np.abs(delta) <= half_width, 0.5 * (1.0 + np.cos(np.pi * delta / half_width)), 0.0
        )
        kernel = cutoff * np.sinc(cutoff * delta) * window
        inside = (idx >= 0) & (idx < x.size)
        values = np.where(inside, x[np.clip(idx, 0, x.size - 1)], 0.0)
        out[n] = np.einsum("ij,ij->i", values, kernel)
    return AudioClip(out, target_rate_hz)


def rms(samples) -> float:
    """Root mean square of a nonempty amplitude sequence."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("rms of an empty sequence is undefined")
    return float(np.sqrt(np.mean(np.square(arr))))


def noise_window(noise: AudioClip, length: int, offset: int) -> np.ndarray:
    """Select ``length`` noise samples starting at ``offset``, looping if short."""
    if len(noise) == 0:
        raise ValueError("noise recording is empty")
    if offset < 0:
        raise ValueError("noise offset must be nonnegative")
    idx = (offset + np.arange(length)) % len(noise)
    return noise.samples[idx]


def mix_at_snr(clean: AudioClip, noise: AudioClip, spec: MixSpec) -> AudioClip:
    """Add a gain-adjusted noise window to the clean clip at an exact SNR.

    The gain g = rms(clean) / (rms(window) * 10^(snr_db/20)) makes
    20*log10(rms(clean)/rms(g*window)) equal spec.snr_db up to float
    rounding. Output has the clean clip's length and rate.
    """
    if clean.sample_rate_hz != noise.sample_rate_hz:
        raise ValueError(
            f"sample rate mismatch: clean {clean.sample_rate_hz} Hz vs noise {noise.sample_rate_hz} Hz"
        )
    window = noise_window(noise, len(clean), spec.noise_offset)
    clean_rms = rms(clean.samples)
    if clean_rms == 0.0:
        raise ValueError("clean clip is silent; SNR is undefined")
    window_rms = rms(window)
    if window_rms == 0.0:
        raise ValueError("selected noise window is silent; SNR is undefined")
    gain = clean_rms / (window_rms * 10.0 ** (spec.snr_db / 20.0))
    return AudioClip(clean.samples + gain * window, clean.sample_rate_hz)
