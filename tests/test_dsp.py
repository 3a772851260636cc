import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import naive_dft, reference_frame_spectra
from emonoise.audio import AudioClip
from emonoise.dsp import (
    MfccConfig,
    SegmentConfig,
    _dct2_matrix,
    cepstra,
    frame_signal,
    frame_spectra,
    hz_to_mel,
    mel_energies,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    segment_features,
)


def dct2(v, n_out):
    """Orthonormal DCT-II of the last axis, keeping the first n_out coefficients."""
    v = np.asarray(v, dtype=np.float64)
    return v @ _dct2_matrix(v.shape[-1], n_out).T


def naive_dft_mfcc(clip, cfg):
    """mfcc() rebuilt step by step, with the O(N^2) oracle DFT as its spectrum."""
    frames = frame_signal(clip.samples, cfg.frame_len, cfg.hop)
    emphasized = frames.copy()
    emphasized[:, 1:] -= cfg.preemph * frames[:, :-1]
    n = cfg.frame_len
    window = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(n) / (n - 1))
    padded = np.zeros((frames.shape[0], cfg.fft_size))
    padded[:, :n] = emphasized * window
    power = np.abs(naive_dft(padded)[:, : cfg.fft_size // 2 + 1]) ** 2 / cfg.fft_size
    energies = power @ mel_filterbank(cfg, clip.sample_rate_hz).T
    return dct2(np.log(np.maximum(energies, cfg.log_floor)), cfg.n_ceps)


def scaled_config(fft_size):
    """Frame length, hop and mel count scaled with the FFT size; 512 is the default."""
    n_mels = max(1, min(26, fft_size // 8))
    return MfccConfig(
        frame_len=fft_size * 25 // 32, hop=max(1, fft_size * 5 // 16),
        fft_size=fft_size, n_mels=n_mels, n_ceps=min(13, n_mels),
    )


class TestFft:
    """The spectrum inside mfcc, checked through the coefficients it produces."""

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_matches_naive_dft_across_sizes(self, n):
        cfg = scaled_config(n)
        clip = AudioClip(np.random.default_rng(n).uniform(-1, 1, 4000), 16000)
        assert np.abs(mfcc(clip, cfg) - naive_dft_mfcc(clip, cfg)).max() < 1e-9

    def test_random_length_eight_matches_naive_dft(self):
        # one unpadded random frame of length 8: every DFT bin comes from the samples
        cfg = MfccConfig(frame_len=8, hop=8, fft_size=8, n_mels=1, n_ceps=1)
        clip = AudioClip(np.random.default_rng(7).standard_normal(8), 16000)
        coeffs = mfcc(clip, cfg)
        assert coeffs.shape == (1, 1)
        np.testing.assert_allclose(coeffs, naive_dft_mfcc(clip, cfg), rtol=0, atol=1e-9)

    def test_impulse_is_flat(self):
        # without pre-emphasis an impulse frame has the flat power spectrum w[k]^2 / N
        cfg = MfccConfig(preemph=0.0)
        k = 123
        samples = np.zeros(cfg.frame_len)
        samples[k] = 1.0
        window = 0.54 - 0.46 * np.cos(2 * np.pi * k / (cfg.frame_len - 1))
        energies = window**2 / cfg.fft_size * mel_filterbank(cfg, 16000).sum(axis=1)
        expected = dct2(np.log(energies), cfg.n_ceps)
        np.testing.assert_allclose(mfcc(AudioClip(samples, 16000), cfg), [expected], atol=1e-9)

    def test_batch_matches_per_row(self):
        cfg = MfccConfig()
        samples = np.random.default_rng(3).uniform(-1, 1, 4000)
        batch = mfcc(AudioClip(samples, 16000), cfg)
        rows = np.vstack([
            mfcc(AudioClip(samples[i * cfg.hop : i * cfg.hop + cfg.frame_len], 16000), cfg)
            for i in range(batch.shape[0])
        ])
        np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [0, 3, 6, 12])
    def test_non_power_of_two_rejected(self, n):
        with pytest.raises(ValueError, match="power of two"):
            MfccConfig(frame_len=1, fft_size=n)


class TestFrameSignal:
    def test_count_matches_enumeration(self):
        # oracle: enumerate frame starts 0, 160, ..., while start+400 <= 16000
        starts = [s for s in range(0, 16000, 160) if s + 400 <= 16000]
        assert len(starts) == 98
        frames = frame_signal(np.zeros(16000), 400, 160)
        assert frames.shape == (98, 400)

    def test_exact_fit_gives_one_frame(self):
        x = np.arange(400.0)
        frames = frame_signal(x, 400, 160)
        assert frames.shape == (1, 400)
        np.testing.assert_array_equal(frames[0], x)

    def test_short_input_gives_zero_frames(self):
        assert frame_signal(np.zeros(399), 400, 160).shape[0] == 0

    def test_frame_contents_follow_hops(self):
        x = np.arange(20.0)
        frames = frame_signal(x, 6, 4)
        np.testing.assert_array_equal(frames[1], x[4:10])
        np.testing.assert_array_equal(frames[2], x[8:14])

    def test_frames_are_a_read_only_view(self):
        x = np.arange(20.0)
        frames = frame_signal(x, 6, 4)
        assert np.shares_memory(frames, x)
        for got in (frames, frame_signal(x[:5], 6, 4)):
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[...] = 0.0

    @given(length=st.integers(0, 300), frame_len=st.integers(1, 60), hop=st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_count_formula_property(self, length, frame_len, hop):
        expected = sum(1 for s in range(0, max(length, 1), hop) if s + frame_len <= length)
        assert frame_signal(np.zeros(length), frame_len, hop).shape[0] == expected


class TestFrameSpectra:
    @pytest.mark.parametrize("cfg, length", [
        (MfccConfig(), 16000),
        (MfccConfig(frame_len=512), 4000),
        (MfccConfig(frame_len=100, hop=250, fft_size=128), 4000),
        (MfccConfig(frame_len=1, hop=3, fft_size=4), 100),
        (MfccConfig(), 400),
    ], ids=["default", "frame_len_is_fft_size", "hop_beyond_frame", "one_sample_frames",
            "one_frame"])
    def test_matches_copy_based_reference_bit_for_bit(self, cfg, length):
        x = np.random.default_rng(length).uniform(-1, 1, length)
        got = frame_spectra(x, cfg)
        assert got.shape == (len(frame_signal(x, cfg.frame_len, cfg.hop)), cfg.fft_size // 2 + 1)
        np.testing.assert_array_equal(got, reference_frame_spectra(x, cfg))


class TestMelScale:
    def test_zero_maps_to_zero(self):
        assert hz_to_mel(0.0) == 0.0
        assert mel_to_hz(0.0) == 0.0

    def test_seven_hundred_hz(self):
        assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0), rel=1e-12)

    def test_round_trip(self):
        f = np.linspace(1.0, 8000.0, 1000)
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-9)

    def test_negative_rejected(self):
        # mel_filterbank, the only caller, converts the corners of an MfccConfig
        for fmin_hz, fmax_hz in ((-1.0, None), (0.0, -1.0)):
            with pytest.raises(ValueError, match="need 0 <= fmin_hz < fmax_hz"):
                MfccConfig(fmin_hz=fmin_hz, fmax_hz=fmax_hz)


class TestMelFilterbank:
    def test_default_shape(self):
        fb = mel_filterbank(MfccConfig(), 16000)
        assert fb.shape == (26, 257)

    def test_row_maxima_in_unit_interval(self):
        fb = mel_filterbank(MfccConfig(), 16000)
        maxima = fb.max(axis=1)
        assert np.all(maxima > 0.0) and np.all(maxima <= 1.0)

    def test_center_on_bin_gets_weight_one(self):
        # choose fmax so the single filter's center lands exactly on the 1 kHz bin
        target_mel = 2.0 * hz_to_mel(1000.0)
        cfg = MfccConfig(n_mels=1, n_ceps=1, fmin_hz=0.0, fmax_hz=mel_to_hz(target_mel))
        fb = mel_filterbank(cfg, 16000)
        bin_1khz = int(1000.0 / (16000 / 512))
        assert bin_1khz * 16000 / 512 == 1000.0
        assert fb[0, bin_1khz] == pytest.approx(1.0, abs=1e-9)

    def test_interior_bins_are_covered(self):
        cfg = MfccConfig()
        fb = mel_filterbank(cfg, 16000)
        corners = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(8000.0), 28))
        freqs = np.arange(257) * 16000 / 512
        interior = (freqs > corners[1]) & (freqs < corners[-2])
        assert np.all(fb[:, interior].sum(axis=0) > 0.0)

    def test_fmax_above_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            mel_filterbank(MfccConfig(fmax_hz=9000.0), 16000)

    def test_too_many_filters_rejected(self):
        for _ in range(2):  # a failed build is not cached
            with pytest.raises(ValueError, match="support"):
                mel_filterbank(MfccConfig(n_mels=400, n_ceps=13), 16000)

    def test_cached_and_read_only(self):
        fb = mel_filterbank(MfccConfig(n_mels=20), 16000)
        assert mel_filterbank(MfccConfig(n_mels=20), 16000) is fb
        assert not fb.flags.writeable
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0


class TestDct2:
    def test_constant_input_only_first_coefficient(self):
        out = dct2(np.full(26, 3.0), 26)
        assert out[0] == pytest.approx(np.sqrt(26) * 3.0, rel=1e-12)
        np.testing.assert_allclose(out[1:], 0.0, atol=1e-12)

    def test_two_point_example(self):
        np.testing.assert_allclose(dct2([1.0, 0.0], 2), [np.sqrt(0.5), np.sqrt(0.5)], rtol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(21)
        v = rng.standard_normal(64)
        y = dct2(v, 64)
        assert abs(np.sum(y**2) - np.sum(v**2)) < 1e-9

    def test_orthonormal_inverse_recovers_input(self):
        rng = np.random.default_rng(22)
        v = rng.standard_normal(40)
        y = dct2(v, 40)
        # analytic inverse of an orthonormal transform is its transpose
        j = np.arange(40)
        k = np.arange(40)[:, None]
        basis = np.cos(np.pi * k * (2 * j + 1) / 80.0)
        scale = np.full(40, np.sqrt(2.0 / 40))
        scale[0] = np.sqrt(1.0 / 40)
        recovered = (basis * scale[:, None]).T @ y
        np.testing.assert_allclose(recovered, v, atol=1e-9)

    def test_n_out_too_large_rejected(self):
        # cepstra keeps n_ceps of n_mels coefficients
        with pytest.raises(ValueError, match="need 0 < n_ceps <= n_mels"):
            MfccConfig(n_mels=4, n_ceps=5)


def tone_clip(freq_hz=1000.0, sample_rate=16000, seconds=1.0, amplitude=0.5):
    t = np.arange(int(sample_rate * seconds)) / sample_rate
    return AudioClip(amplitude * np.sin(2 * np.pi * freq_hz * t), sample_rate)


class TestMfcc:
    def test_thirteen_columns(self):
        feats = mfcc(tone_clip(), MfccConfig())
        assert feats.shape[1] == 13
        assert feats.shape[0] == 98

    def test_silence_rows_identical_and_only_c0(self):
        cfg = MfccConfig()
        feats = mfcc(AudioClip(np.zeros(16000), 16000), cfg)
        np.testing.assert_array_equal(feats, np.tile(feats[0], (feats.shape[0], 1)))
        expected_c0 = np.sqrt(cfg.n_mels) * np.log(cfg.log_floor)
        assert feats[0, 0] == pytest.approx(expected_c0, rel=1e-12)
        np.testing.assert_allclose(feats[0, 1:], 0.0, atol=1e-9)

    def test_all_finite_for_random_input(self):
        rng = np.random.default_rng(31)
        feats = mfcc(AudioClip(rng.uniform(-1, 1, 8000), 16000), MfccConfig())
        assert np.isfinite(feats).all()

    def test_tone_hits_nearest_filter(self):
        cfg = MfccConfig()
        clip = tone_clip(1000.0)
        # inspect the filterbank energies directly (numpy rfft as the spectral oracle)
        fb = mel_filterbank(cfg, clip.sample_rate_hz)
        frames = frame_signal(clip.samples, cfg.frame_len, cfg.hop)
        emphasized = frames.copy()
        emphasized[:, 1:] -= cfg.preemph * frames[:, :-1]
        window = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(cfg.frame_len) / (cfg.frame_len - 1))
        spectra = np.abs(np.fft.rfft(emphasized * window, cfg.fft_size)) ** 2 / cfg.fft_size
        energies = (spectra @ fb.T).mean(axis=0)
        corners = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(8000.0), cfg.n_mels + 2))
        nearest = int(np.argmin(np.abs(corners[1:-1] - 1000.0)))
        assert int(np.argmax(energies)) == nearest

    def test_too_short_clip_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            mfcc(AudioClip(np.zeros(100), 16000), MfccConfig())

    def test_peak_memory_is_a_few_frame_matrices(self):
        # mfcc runs once per training utterance; each extra frame-sized copy
        # is memory the allocator may hand back to the OS and fault in again
        cfg = MfccConfig()
        clip = AudioClip(np.random.default_rng(7).uniform(-1, 1, 32000), 16000)
        mfcc(clip, cfg)  # builds the cached filterbank and DCT matrix outside the trace
        frame_bytes = frame_signal(clip.samples, cfg.frame_len, cfg.hop).nbytes
        assert frame_bytes == 198 * 400 * 8
        tracemalloc.start()
        try:
            mfcc(clip, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * frame_bytes

    def test_composes_spectra_energies_and_cepstra(self):
        cfg = MfccConfig()
        rng = np.random.default_rng(5)
        x, w = rng.uniform(-1, 1, 8000), rng.uniform(-1, 1, 8000)
        spectra = frame_spectra(x, cfg)
        np.testing.assert_array_equal(
            cepstra(mel_energies(spectra, spectra, cfg, 16000), cfg), mfcc(AudioClip(x, 16000), cfg)
        )
        # the spectra are linear in the samples and the energies bilinear in the spectra
        diff = frame_spectra(x + 0.3 * w, cfg) - spectra
        np.testing.assert_allclose(diff, 0.3 * frame_spectra(w, cfg), rtol=0.0, atol=1e-12)
        mixed = spectra + 0.5 * diff
        np.testing.assert_allclose(
            mel_energies(mixed, mixed, cfg, 16000),
            mel_energies(spectra, spectra, cfg, 16000)
            + 2 * 0.5 * mel_energies(spectra, diff, cfg, 16000)
            + 0.5**2 * mel_energies(diff, diff, cfg, 16000),
            rtol=1e-12,
        )

    def test_scaling_shifts_rows_by_constant_dct(self):
        cfg = MfccConfig()
        rng = np.random.default_rng(41)
        x = 0.3 * rng.standard_normal(8000) + 0.1 * np.sin(
            2 * np.pi * 440 * np.arange(8000) / 16000
        )
        alpha = 3.0
        base = mfcc(AudioClip(x, 16000), cfg)
        scaled = mfcc(AudioClip(alpha * x, 16000), cfg)
        shift = dct2(np.full(cfg.n_mels, np.log(alpha**2)), cfg.n_ceps)
        np.testing.assert_allclose(scaled - base, np.tile(shift, (base.shape[0], 1)), atol=1e-6)


class TestSegmentFeatures:
    def test_three_segments_from_98_frames(self):
        # oracle: starts 0, 25, 50 fit; 75 + 25 > 98
        frames = np.arange(98 * 13, dtype=float).reshape(98, 13)
        segs = segment_features(frames, SegmentConfig(seg_frames=25, seg_hop=25))
        assert segs.shape == (3, 13)
        np.testing.assert_allclose(segs[1], frames[25:50].mean(axis=0))

    def test_identical_frames_give_identical_segments(self):
        frames = np.tile(np.arange(13.0), (60, 1))
        segs = segment_features(frames, SegmentConfig())
        for seg in segs:
            np.testing.assert_array_equal(seg, frames[0])

    def test_short_utterance_collapses_to_one_mean(self):
        frames = np.random.default_rng(5).standard_normal((10, 13))
        segs = segment_features(frames, SegmentConfig(seg_frames=25, seg_hop=25))
        assert segs.shape == (1, 13)
        np.testing.assert_allclose(segs[0], frames.mean(axis=0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            segment_features(np.empty((0, 13)), SegmentConfig())

    @given(n=st.integers(1, 200), seg=st.integers(1, 40), hop=st.integers(1, 40))
    @settings(max_examples=120, deadline=None)
    def test_count_matches_enumeration(self, n, seg, hop):
        expected = sum(1 for s in range(0, n, hop) if s + seg <= n) if n >= seg else 1
        frames = np.zeros((n, 13))
        assert segment_features(frames, SegmentConfig(seg_frames=seg, seg_hop=hop)).shape[0] == expected


class TestMfccConfigValidation:
    def test_non_power_of_two_fft(self):
        with pytest.raises(ValueError):
            MfccConfig(fft_size=500)

    def test_fft_smaller_than_frame(self):
        with pytest.raises(ValueError):
            MfccConfig(frame_len=600, fft_size=512)

    def test_more_ceps_than_mels(self):
        with pytest.raises(ValueError):
            MfccConfig(n_mels=10, n_ceps=13)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["fmin_hz", "fmax_hz", "log_floor"])
    def test_nonfinite_value_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            MfccConfig(**{name: value})
