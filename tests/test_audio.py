import struct

import numpy as np
import pytest

from emonoise.audio import (
    AudioClip,
    MixSpec,
    WavFormatError,
    mix_at_snr,
    noise_window,
    read_wav,
    resample,
    rms,
    write_wav,
)


def make_wav_bytes(samples_int16, sample_rate=16000, n_channels=1, fmt_code=1, bits=16,
                   extra_chunk=None):
    payload = struct.pack(f"<{len(samples_int16)}h", *samples_int16)
    chunks = b""
    if extra_chunk is not None:
        chunks += extra_chunk
    chunks += (
        b"fmt "
        + struct.pack("<I", 16)
        + struct.pack(
            "<HHIIHH",
            fmt_code,
            n_channels,
            sample_rate,
            sample_rate * n_channels * bits // 8,
            n_channels * bits // 8,
            bits,
        )
    )
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


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
        with pytest.raises(WavFormatError, match="encoding"):
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

    def test_truncated_data(self, tmp_path):
        blob = make_wav_bytes([1, 2, 3, 4])
        path = tmp_path / "trunc.wav"
        path.write_bytes(blob[:-4])
        with pytest.raises(WavFormatError, match="truncated"):
            read_wav(path)


class TestWriteWav:
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
        out = mix_at_snr(clean, noise, MixSpec(snr_db=0.0))
        np.testing.assert_allclose(out.samples, clean.samples + noise.samples, atol=1e-15)

    def test_tenth_gain_at_twenty_db(self):
        clean = AudioClip(np.array([1.0, -1.0, 1.0, -1.0]), 16000)
        noise = AudioClip(np.array([1.0, 1.0, 1.0, 1.0]), 16000)
        out = mix_at_snr(clean, noise, MixSpec(snr_db=20.0))
        np.testing.assert_allclose(out.samples - clean.samples, 0.1 * noise.samples, atol=1e-15)

    def test_silent_noise_window_rejected(self):
        clean = AudioClip(np.ones(4), 16000)
        noise = AudioClip(np.zeros(4), 16000)
        with pytest.raises(ValueError, match="silent"):
            mix_at_snr(clean, noise, MixSpec(snr_db=0.0))

    def test_silent_clean_rejected(self):
        clean = AudioClip(np.zeros(4), 16000)
        noise = AudioClip(np.ones(4), 16000)
        with pytest.raises(ValueError, match="silent"):
            mix_at_snr(clean, noise, MixSpec(snr_db=0.0))

    def test_rate_mismatch_rejected(self):
        clean = AudioClip(np.ones(4), 16000)
        noise = AudioClip(np.ones(4), 48000)
        with pytest.raises(ValueError, match="mismatch"):
            mix_at_snr(clean, noise, MixSpec(snr_db=0.0))

    @pytest.mark.parametrize("snr_db", [-5.0, 0.0, 3.7, 10.0, 20.0])
    def test_achieved_snr_is_exact(self, snr_db):
        rng = np.random.default_rng(int(snr_db * 10) + 100)
        clean = AudioClip(rng.standard_normal(4000) * 0.2, 16000)
        noise = AudioClip(rng.standard_normal(6000) * 0.4, 16000)
        spec = MixSpec(snr_db=snr_db, noise_offset=123)
        out = mix_at_snr(clean, noise, spec)
        added = out.samples - clean.samples
        achieved = 20.0 * np.log10(rms(clean.samples) / rms(added))
        assert abs(achieved - snr_db) < 1e-6

    def test_deterministic_given_spec(self):
        rng = np.random.default_rng(5)
        clean = AudioClip(rng.standard_normal(500) * 0.1, 16000)
        noise = AudioClip(rng.standard_normal(800) * 0.1, 16000)
        spec = MixSpec(snr_db=10.0, noise_offset=40)
        a = mix_at_snr(clean, noise, spec)
        b = mix_at_snr(clean, noise, spec)
        assert np.array_equal(a.samples, b.samples)

    def test_short_noise_wraps_around(self):
        clean = AudioClip(np.ones(6) * 0.5, 16000)
        noise = AudioClip(np.array([0.1, 0.2, 0.3]), 16000)
        window = noise_window(noise, 6, 1)
        np.testing.assert_allclose(window, [0.2, 0.3, 0.1, 0.2, 0.3, 0.1])
        out = mix_at_snr(clean, noise, MixSpec(snr_db=0.0, noise_offset=1))
        assert len(out) == len(clean)

    def test_output_length_matches_clean(self):
        clean = AudioClip(np.ones(100) * 0.3, 16000)
        noise = AudioClip(np.random.default_rng(1).standard_normal(5000) * 0.2, 16000)
        assert len(mix_at_snr(clean, noise, MixSpec(snr_db=5.0, noise_offset=4000))) == 100


class TestAudioClip:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([0.0, np.nan]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioClip(np.zeros(4), 0)

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            MixSpec(snr_db=0.0, noise_offset=-1)

    def test_rejects_nonfinite_snr(self):
        with pytest.raises(ValueError):
            MixSpec(snr_db=float("inf"))
