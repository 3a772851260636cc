import re
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from emonoise import audio
from emonoise.audio import (
    AudioClip,
    WavFormatError,
    mix_at_snr,
    noise_window,
    read_wav,
    resample,
    rms,
)

from _oracles import reference_noise_window, reference_resample
from conftest import write_wav


WAVE_FORMAT_EXTENSIBLE = 0xFFFE
KSDATAFORMAT_SUBTYPE_PCM = bytes.fromhex("0100000000001000800000aa00389b71")


def riff(*chunks):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def make_wav_bytes(samples_int16, sample_rate=16000, n_channels=1, fmt_code=1, bits=16,
                   extra_chunk=None):
    payload = struct.pack(f"<{len(samples_int16)}h", *samples_int16)
    fmt = struct.pack(
        "<HHIIHH",
        fmt_code,
        n_channels,
        sample_rate,
        sample_rate * n_channels * bits // 8,
        n_channels * bits // 8,
        bits,
    )
    if fmt_code == WAVE_FORMAT_EXTENSIBLE:
        # cbSize, valid bits, channel mask (front centre), then the subformat GUID
        fmt += struct.pack("<HHI", 22, bits, 4) + KSDATAFORMAT_SUBTYPE_PCM
    chunks = b"" if extra_chunk is None else extra_chunk
    chunks += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    return riff(chunks)


_BLOB = make_wav_bytes([1, 2, 3, 4])
_FMT, _DATA = _BLOB[12:36], _BLOB[36:]
MALFORMED_WAVS = {
    "not-riff": b"JUNK" + _BLOB[4:],
    "empty-file": b"",
    "not-pcm": make_wav_bytes([0, 1], fmt_code=3),
    "8-bit": make_wav_bytes([0, 1], bits=8),
    "zero-channels": make_wav_bytes([0, 1], n_channels=0),
    "0-hz": make_wav_bytes([0, 1], sample_rate=0),
    "truncated-fmt": riff(b"fmt " + struct.pack("<I", 14) + _FMT[8:22], _DATA),
    "data-before-fmt": riff(_DATA, _FMT),
    "missing-data": riff(_FMT),
    "truncated-data": _BLOB[:-4],
}


class TestReadWav:
    def test_scaling_convention(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(make_wav_bytes([0, 32767, -32768]))
        clip = read_wav(path)
        assert clip.sample_rate_hz == 16000
        np.testing.assert_allclose(clip.samples, [0.0, 32767 / 32768, -1.0], rtol=0, atol=0)

    def test_empty_data_chunk(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(make_wav_bytes([]))
        assert len(read_wav(path)) == 0

    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"JUNK" + make_wav_bytes([0])[4:])
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "float.wav"
        path.write_bytes(make_wav_bytes([0, 1], fmt_code=3))
        with pytest.raises(WavFormatError, match="unknown format: 3"):
            read_wav(path)

    def test_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "w8.wav"
        path.write_bytes(make_wav_bytes([0, 1], bits=8))
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_unknown_chunks_skipped(self, tmp_path):
        junk = b"LIST" + struct.pack("<I", 5) + b"abcde" + b"\x00"  # odd size, padded
        path = tmp_path / "chunky.wav"
        path.write_bytes(make_wav_bytes([100, -100], extra_chunk=junk))
        np.testing.assert_allclose(read_wav(path).samples, [100 / 32768, -100 / 32768])

    def test_multichannel_keeps_channel_zero(self, tmp_path):
        # interleaved stereo: L0 R0 L1 R1
        path = tmp_path / "st.wav"
        path.write_bytes(make_wav_bytes([10, 99, 20, 98], n_channels=2))
        np.testing.assert_allclose(read_wav(path).samples, [10 / 32768, 20 / 32768])

    def test_zero_sample_rate_names_the_file(self, tmp_path):
        path = tmp_path / "still.wav"
        path.write_bytes(make_wav_bytes([0, 1], sample_rate=0))
        with pytest.raises(WavFormatError) as excinfo:
            read_wav(path)
        assert str(excinfo.value) == f"{path}: fmt chunk declares a 0 Hz sample rate"

    def test_truncated_data(self, tmp_path):
        blob = make_wav_bytes([1, 2, 3, 4])
        path = tmp_path / "trunc.wav"
        path.write_bytes(blob[:-4])
        with pytest.raises(WavFormatError, match="truncated"):
            read_wav(path)

    @pytest.mark.parametrize("case", list(MALFORMED_WAVS))
    def test_every_refusal_names_the_path(self, tmp_path, case):
        path = tmp_path / f"{case}.wav"
        path.write_bytes(MALFORMED_WAVS[case])
        with pytest.raises(WavFormatError, match=f"^{re.escape(str(path))}: "):
            read_wav(path)

    def test_extensible_pcm_header(self, tmp_path):
        # the standard library's wave reads format 0xFFFE from Python 3.12 on
        plain, extensible = tmp_path / "plain.wav", tmp_path / "extensible.wav"
        plain.write_bytes(make_wav_bytes([5, -7, 32767, -32768]))
        extensible.write_bytes(make_wav_bytes([5, -7, 32767, -32768], fmt_code=WAVE_FORMAT_EXTENSIBLE))
        if sys.version_info >= (3, 12):
            clip = read_wav(extensible)
            assert clip.sample_rate_hz == 16000
            np.testing.assert_array_equal(clip.samples, read_wav(plain).samples)
        else:
            with pytest.raises(WavFormatError, match=f"^{re.escape(str(extensible))}: "):
                read_wav(extensible)


class TestWriteWav:
    """The test helper that writes every corpus the tests read."""

    @pytest.mark.parametrize("samples,codes", [
        ([], []),
        ([0.5, -0.25, 1.0, -1.0, 0.3], [16384, -8192, 32767, -32768, 9830]),
    ])
    def test_canonical_header_then_payload(self, tmp_path, samples, codes):
        path = tmp_path / "h.wav"
        write_wav(AudioClip(np.array(samples, dtype=np.float64), 22050), path)
        payload = struct.pack(f"<{len(codes)}h", *codes)
        header = (
            b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 22050, 2 * 22050, 2, 16)
            + b"data" + struct.pack("<I", len(payload))
        )
        assert path.read_bytes() == header + payload

    def test_zero_clip_writes_zero_codes(self, tmp_path):
        path = tmp_path / "z.wav"
        write_wav(AudioClip(np.zeros(8), 16000), path)
        blob = path.read_bytes()
        assert blob[-16:] == b"\x00" * 16

    def test_out_of_range_clamps_to_full_scale(self, tmp_path):
        path = tmp_path / "c.wav"
        write_wav(AudioClip(np.array([2.0, -2.0, 1.0, -1.0]), 16000), path)
        codes = np.frombuffer(path.read_bytes()[-8:], dtype="<i2")
        np.testing.assert_array_equal(codes, [32767, -32768, 32767, -32768])

    def test_round_trip_within_one_quantization_step(self, tmp_path):
        rng = np.random.default_rng(7)
        clip = AudioClip(rng.uniform(-1.0, 1.0, 5000), 16000)
        path = tmp_path / "rt.wav"
        write_wav(clip, path)
        back = read_wav(path)
        assert back.sample_rate_hz == clip.sample_rate_hz
        assert np.abs(back.samples - clip.samples).max() <= 1.0 / 32768

    def test_second_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        first, second = tmp_path / "1.wav", tmp_path / "2.wav"
        write_wav(AudioClip(rng.uniform(-1.2, 1.2, 3000), 16000), first)
        write_wav(read_wav(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestResample:
    def test_identity_rate(self):
        clip = AudioClip(np.random.default_rng(0).standard_normal(100) * 0.1, 16000)
        out = resample(clip, 16000)
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_output_length_formula(self):
        clip = AudioClip(np.zeros(16000), 48000)
        assert len(resample(clip, 16000)) == 5333  # round(16000 / 3)

    def test_tone_frequency_preserved(self):
        # oracle: dominant rfft bin of the resampled tone stays at 1 kHz
        sr_in, sr_out, freq = 48000, 16000, 1000.0
        t = np.arange(sr_in) / sr_in
        clip = AudioClip(0.5 * np.sin(2 * np.pi * freq * t), sr_in)
        out = resample(clip, sr_out)
        spectrum = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spectrum) * sr_out / len(out)
        assert abs(peak_hz - freq) < 2.0

    def test_upsample_then_peak_survives(self):
        sr_in, sr_out, freq = 16000, 48000, 440.0
        t = np.arange(sr_in // 2) / sr_in
        out = resample(AudioClip(0.4 * np.sin(2 * np.pi * freq * t), sr_in), sr_out)
        spectrum = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spectrum) * sr_out / len(out)
        assert abs(peak_hz - freq) < 3.0

    def test_empty_clip(self):
        assert len(resample(AudioClip(np.array([]), 48000), 16000)) == 0

    @staticmethod
    def assert_matches_reference(x, source, target):
        out = resample(AudioClip(x, source), target).samples
        assert len(out) == int(np.floor(len(x) * target / source + 0.5))
        m = len(out)
        rng = np.random.default_rng(source + target)
        ns = sorted(set(range(min(50, m))) | set(range(max(0, m - 50), m))
                    | set(rng.integers(0, m, 200).tolist()))
        np.testing.assert_allclose(out[ns], reference_resample(x, source, target, ns),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "source,target,seconds",
        [(44100, 16000, 1.0), (22050, 16000, 1.0), (48000, 16000, 1.0), (8000, 16000, 1.0),
         (16000, 44100, 1.0), (44101, 16000, 1.0), (44100, 16000, 30.0)],
    )
    def test_matches_reference(self, source, target, seconds):
        rng = np.random.default_rng(source)
        self.assert_matches_reference(rng.uniform(-1.0, 1.0, int(source * seconds)), source, target)

    def test_clip_shorter_than_kernel(self):
        self.assert_matches_reference(np.array([0.5, -0.25, 1.0, 0.0, -0.75]), 44100, 16000)

    @pytest.mark.parametrize("source,target", [(16000, 44100), (44101, 16000)])
    def test_fewer_outputs_than_phases(self, source, target):
        # 441 phases up from 16 kHz, 16000 down from 44101 Hz; 300 samples give fewer outputs
        x = np.random.default_rng(3).uniform(-1.0, 1.0, 300)
        self.assert_matches_reference(x, source, target)

    def test_peak_memory_is_bounded(self):
        # 44 101 Hz gives 16000 phases: the phase table alone is about 23 MB
        for rate, bound_mib in ((44100, 32), (44101, 64)):
            clip = AudioClip(np.random.default_rng(4).uniform(-1.0, 1.0, 3 * rate), rate)
            tracemalloc.start()
            try:
                resample(clip, 16000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound_mib * 2**20, rate

    def test_peak_memory_of_one_second_at_44k(self):
        # the gathered windows and table rows of one chunk dominate: two 5.8 MB
        # arrays when a chunk was 4096 outputs, two 256 KB arrays now; the
        # padded input and the output take 0.5 MB
        clip = AudioClip(np.random.default_rng(5).uniform(-1.0, 1.0, 44100), 44100)
        tracemalloc.start()
        try:
            resample(clip, 16000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("source,target", [(44100, 16000), (16000, 44100), (44101, 16000)])
    def test_output_does_not_depend_on_the_chunk_size(self, source, target, monkeypatch):
        clip = AudioClip(np.random.default_rng(6).uniform(-1.0, 1.0, source // 2), source)
        want = resample(clip, target).samples
        for chunk_bytes in (1 << 14, 1 << 25):
            monkeypatch.setattr(audio, "_RESAMPLE_CHUNK_BYTES", chunk_bytes)
            np.testing.assert_array_equal(resample(clip, target).samples, want)

    def test_bad_target_rate(self):
        with pytest.raises(ValueError):
            resample(AudioClip(np.zeros(10), 16000), 0)


class TestRms:
    def test_alternating_ones(self):
        assert rms([1.0, -1.0, 1.0, -1.0]) == 1.0

    def test_zeros(self):
        assert rms(np.zeros(5)) == 0.0

    def test_three_four(self):
        assert rms([3.0, 4.0]) == pytest.approx(np.sqrt(12.5), rel=1e-15)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            rms([])


class TestMixAtSnr:
    def test_unit_gain_at_zero_db(self):
        clean = AudioClip(np.array([1.0, -1.0, 1.0, -1.0]), 16000)
        noise = AudioClip(np.array([1.0, 1.0, 1.0, 1.0]), 16000)
        out = mix_at_snr(clean, noise, 0.0)
        np.testing.assert_allclose(out.samples, clean.samples + noise.samples, atol=1e-15)

    def test_tenth_gain_at_twenty_db(self):
        clean = AudioClip(np.array([1.0, -1.0, 1.0, -1.0]), 16000)
        noise = AudioClip(np.array([1.0, 1.0, 1.0, 1.0]), 16000)
        out = mix_at_snr(clean, noise, 20.0)
        np.testing.assert_allclose(out.samples - clean.samples, 0.1 * noise.samples, atol=1e-15)

    def test_silent_noise_window_rejected(self):
        clean = AudioClip(np.ones(4), 16000)
        noise = AudioClip(np.zeros(4), 16000)
        with pytest.raises(ValueError, match="silent"):
            mix_at_snr(clean, noise, 0.0)

    def test_silent_clean_rejected(self):
        clean = AudioClip(np.zeros(4), 16000)
        noise = AudioClip(np.ones(4), 16000)
        with pytest.raises(ValueError, match="silent"):
            mix_at_snr(clean, noise, 0.0)

    def test_rate_mismatch_rejected(self):
        clean = AudioClip(np.ones(4), 16000)
        noise = AudioClip(np.ones(4), 48000)
        with pytest.raises(ValueError, match="mismatch"):
            mix_at_snr(clean, noise, 0.0)

    @pytest.mark.parametrize("snr_db", [-5.0, 0.0, 3.7, 10.0, 20.0])
    def test_achieved_snr_is_exact(self, snr_db):
        rng = np.random.default_rng(int(snr_db * 10) + 100)
        clean = AudioClip(rng.standard_normal(4000) * 0.2, 16000)
        noise = AudioClip(rng.standard_normal(6000) * 0.4, 16000)
        out = mix_at_snr(clean, noise, snr_db, 123)
        added = out.samples - clean.samples
        achieved = 20.0 * np.log10(rms(clean.samples) / rms(added))
        assert abs(achieved - snr_db) < 1e-6

    def test_deterministic_given_spec(self):
        rng = np.random.default_rng(5)
        clean = AudioClip(rng.standard_normal(500) * 0.1, 16000)
        noise = AudioClip(rng.standard_normal(800) * 0.1, 16000)
        a = mix_at_snr(clean, noise, 10.0, 40)
        b = mix_at_snr(clean, noise, 10.0, 40)
        assert np.array_equal(a.samples, b.samples)

    def test_short_noise_wraps_around(self):
        clean = AudioClip(np.ones(6) * 0.5, 16000)
        noise = AudioClip(np.array([0.1, 0.2, 0.3]), 16000)
        window = noise_window(noise, 6, 1)
        np.testing.assert_allclose(window, [0.2, 0.3, 0.1, 0.2, 0.3, 0.1])
        out = mix_at_snr(clean, noise, 0.0, 1)
        assert len(out) == len(clean)

    def test_output_length_matches_clean(self):
        clean = AudioClip(np.ones(100) * 0.3, 16000)
        noise = AudioClip(np.random.default_rng(1).standard_normal(5000) * 0.2, 16000)
        assert len(mix_at_snr(clean, noise, 5.0, 4000)) == 100

    def test_rejects_nonfinite_snr(self):
        clean = AudioClip(np.ones(4), 16000)
        noise = AudioClip(np.ones(4), 16000)
        for snr_db in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                mix_at_snr(clean, noise, snr_db)


# window lengths and offsets, as functions of the noise length n, around where it wraps
_WINDOW_LENGTHS = {"0": lambda n: 0, "1": lambda n: 1, "n-1": lambda n: n - 1,
                   "n": lambda n: n, "n+1": lambda n: n + 1, "3n+2": lambda n: 3 * n + 2}
_WINDOW_OFFSETS = {"0": lambda n: 0, "n-1": lambda n: n - 1, "n": lambda n: n,
                   "2n+3": lambda n: 2 * n + 3, "-1": lambda n: -1}


class TestNoiseWindow:
    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("length", list(_WINDOW_LENGTHS))
    @pytest.mark.parametrize("offset", list(_WINDOW_OFFSETS))
    def test_matches_gather_reference(self, n, length, offset):
        noise = AudioClip(np.random.default_rng(n).standard_normal(n), 16000)
        length, offset = _WINDOW_LENGTHS[length](n), _WINDOW_OFFSETS[offset](n)
        window = noise_window(noise, length, offset)
        assert window.dtype == np.float64
        np.testing.assert_array_equal(window, reference_noise_window(noise, length, offset))

    @pytest.mark.parametrize("length, offset", [(3, 1), (12, 2)])
    def test_returns_a_new_array(self, length, offset):
        noise = AudioClip(np.arange(5.0), 16000)
        window = noise_window(noise, length, offset)
        assert not np.shares_memory(window, noise.samples)
        window[:] = -1.0
        np.testing.assert_array_equal(noise.samples, np.arange(5.0))


class TestAudioClip:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([0.0, np.nan]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioClip(np.zeros(4), 0)
