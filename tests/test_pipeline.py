import contextlib
import math
import shutil
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emonoise import _blas, pipeline
from emonoise.audio import AudioClip
from emonoise.config import RunConfig
from emonoise.dbn import Dbn, Layer, TrainConfig, fit_standardization, forward, load_model
from emonoise.dsp import MfccConfig, SegmentConfig, mfcc
from _oracles import reference_condition_segments, reference_evaluate, reference_forward
from conftest import EMOTION_LETTERS, build_tone_corpus, tone_utterance, write_wav
from emonoise.manifest import (
    Label,
    ManifestEntry,
    build_manifest,
    emodb_label_rule,
    emodb_speaker_rule,
    manifest_path,
    prepare,
    read_manifest,
    split,
    write_manifest,
)
from emonoise.pipeline import (
    EvalReport,
    accuracy_delta,
    band,
    evaluate,
    evaluate_experiment,
    majority_vote,
    read_report,
    run_experiment,
    train_model,
    write_report,
)


class TestLabelRules:
    def test_reference_filename(self):
        assert emodb_label_rule("03a01Fa.wav") == Label.JOY
        assert emodb_speaker_rule("03a01Fa.wav") == "03"

    @pytest.mark.parametrize(
        "letter,label",
        [("W", Label.ANGER), ("L", Label.BOREDOM), ("E", Label.DISGUST),
         ("A", Label.FEAR), ("F", Label.JOY), ("N", Label.NEUTRAL), ("T", Label.SADNESS)],
    )
    def test_all_seven_codes(self, letter, label):
        assert emodb_label_rule(f"10b02{letter}b.wav") == label

    def test_unmappable_filename(self):
        with pytest.raises(ValueError, match="junk.wav"):
            emodb_label_rule("junk.wav")

    def test_label_order_is_fixed(self):
        assert [l.name.lower() for l in Label] == [
            "anger", "boredom", "disgust", "fear", "joy", "neutral", "sadness"
        ]


def write_noise_clip(path, seconds=0.5, seed=0, sample_rate=16000):
    rng = np.random.default_rng(seed)
    clip = AudioClip(0.3 * rng.uniform(-1, 1, int(sample_rate * seconds)), sample_rate)
    write_wav(clip, path)
    return clip


class TestBuildManifest:
    def test_entries_sorted_and_labeled(self, tmp_path):
        for name in ["10a01Na.wav", "03a01Fa.wav", "08b01Wa.wav"]:
            write_noise_clip(tmp_path / name, seed=hash(name) % 100)
        manifest = build_manifest(tmp_path)
        assert [e.speaker for e in manifest] == ["03", "08", "10"]
        assert [e.label for e in manifest] == [Label.JOY, Label.ANGER, Label.NEUTRAL]
        assert all(e.split == "" for e in manifest)
        assert len({e.path for e in manifest}) == 3

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no WAV"):
            build_manifest(tmp_path)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a directory"):
            build_manifest(tmp_path / "nope")

    def test_unmappable_file_rejected(self, tmp_path):
        write_noise_clip(tmp_path / "junk.wav")
        with pytest.raises(ValueError, match="junk.wav"):
            build_manifest(tmp_path)


def synthetic_manifest(per_label=10, n_speakers=5):
    entries = []
    for label in Label:
        for i in range(per_label):
            speaker = f"{(i % n_speakers) + 1:02d}"
            entries.append(
                ManifestEntry(f"{speaker}x{label.name}{i}.wav", label, speaker)
            )
    return entries


class TestSplit:
    def test_stratified_counts(self):
        manifest = synthetic_manifest(per_label=10)
        tagged = split(manifest, "stratified_random", 0.2, seed=1)
        for label in Label:
            rows = [e for e in tagged if e.label == label]
            assert sum(e.split == "test" for e in rows) == 2
            assert sum(e.split == "train" for e in rows) == 8

    def test_same_seed_same_split(self):
        manifest = synthetic_manifest()
        a = split(manifest, "stratified_random", 0.25, seed=9)
        b = split(manifest, "stratified_random", 0.25, seed=9)
        assert a == b

    def test_different_seed_usually_differs(self):
        manifest = synthetic_manifest()
        a = split(manifest, "stratified_random", 0.5, seed=1)
        b = split(manifest, "stratified_random", 0.5, seed=2)
        assert a != b

    def test_tiny_class_rejected(self):
        manifest = synthetic_manifest(per_label=10)[:-9]  # sadness keeps 1 utterance
        with pytest.raises(ValueError, match="sadness"):
            split(manifest, "stratified_random", 0.2, seed=1)

    @pytest.mark.parametrize("per_label, fraction", [(2, 0.6), (10, 0.95)])
    def test_label_left_without_training_rejected(self, per_label, fraction):
        # ceil(fraction * n) == n would keep the label out of training altogether
        manifest = synthetic_manifest(per_label=per_label)
        with pytest.raises(ValueError, match=f"anger .*test_fraction {fraction}"):
            split(manifest, "stratified_random", fraction, seed=1)

    def test_leave_speakers_out_is_disjoint(self):
        manifest = synthetic_manifest(per_label=10, n_speakers=5)
        tagged = split(manifest, "leave_speakers_out", 0.2, seed=3)
        train_speakers = {e.speaker for e in tagged if e.split == "train"}
        test_speakers = {e.speaker for e in tagged if e.split == "test"}
        assert test_speakers and train_speakers
        assert not (train_speakers & test_speakers)

    def test_leave_speakers_out_label_left_without_training_rejected(self):
        # anger is spoken by 01 alone and sadness by 02 alone; whichever
        # speaker is drawn first fills the test half, and takes its label with it
        manifest = [ManifestEntry(f"{speaker}x{label.name}{i}.wav", label, speaker)
                    for speaker, own in (("01", Label.ANGER), ("02", Label.SADNESS))
                    for label in (own, Label.NEUTRAL) for i in range(6)]
        refusal = "label (anger|sadness) is spoken only by test speakers"
        for seed in range(20):
            with pytest.raises(ValueError, match=refusal):
                split(manifest, "leave_speakers_out", 0.5, seed=seed)

    # split takes its strategy and fraction from a RunConfig, which refuses bad ones
    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="test_fraction must lie in"):
            RunConfig(test_fraction=1.5)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="split_strategy must be one of"):
            RunConfig(split_strategy="bogus")


class TestManifestCsv:
    def test_round_trip(self, tmp_path):
        manifest = split(synthetic_manifest(per_label=3), "stratified_random", 0.34, seed=2)
        path = tmp_path / "manifest.csv"
        write_manifest(manifest, path)
        assert path.read_text().splitlines()[0] == "path,label,speaker,split"
        assert read_manifest(path) == manifest

    def test_failed_write_keeps_previous_file(self, tmp_path):
        manifest = split(synthetic_manifest(per_label=3), "stratified_random", 0.34, seed=2)
        path = tmp_path / "manifest.csv"
        write_manifest(manifest, path)
        before = path.read_bytes()
        broken = manifest[:2] + [ManifestEntry("x.wav", "not a label", "01", "train")]
        with pytest.raises(AttributeError):
            write_manifest(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.csv"]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_manifest(path)

    @pytest.mark.parametrize(
        "row,problem",
        [("03a01Wa.wav,anger,03", "expected 4 fields"), ("03a01Wa.wav,angry,03,train", "'angry'"),
         ("03a01Wa.wav,anger,03,tset", "split 'tset'")],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row, problem):
        path = tmp_path / "manifest.csv"
        path.write_text(f"path,label,speaker,split\n03a01Fa.wav,joy,03,test\n{row}\n")
        with pytest.raises(ValueError, match=problem) as exc:
            read_manifest(path)
        assert f"{path}, line 3" in str(exc.value)


class TestStandardization:
    def test_constant_dimension_clamped(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.warns(UserWarning, match="constant"):
            mean, std = fit_standardization(x)
        assert std[0] == 1.0
        np.testing.assert_array_equal((x[:, 0] - mean[0]) / std[0], np.zeros(10))

    def test_already_standardized_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((500, 4))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        mean, std = fit_standardization(x)
        np.testing.assert_allclose(mean, 0.0, atol=1e-9)
        np.testing.assert_allclose(std, 1.0, atol=1e-9)

    def test_two_point_population_convention(self):
        mean, std = fit_standardization(np.array([[-1.0], [1.0]]))
        assert mean[0] == 0.0
        assert std[0] == 1.0  # population, not sample, std

    def test_zscored_train_features_are_normalized(self):
        rng = np.random.default_rng(4)
        x = 3.0 * rng.standard_normal((200, 13)) + 5.0
        mean, std = fit_standardization(x)
        z = (x - mean) / std
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)


class TestMajorityVote:
    def test_plain_majority(self):
        assert majority_vote([2, 2, 5]) == 2

    def test_tie_breaks_low(self):
        assert majority_vote([1, 3]) == 1

    def test_single_vote(self):
        assert majority_vote([4]) == 4


class TestDeltaAndBand:
    def test_ten_percent_drop(self):
        assert accuracy_delta(0.70, 0.63) == pytest.approx(10.0)

    def test_equal_accuracies(self):
        assert accuracy_delta(0.5, 0.5) == 0.0

    def test_improvement_is_negative(self):
        assert accuracy_delta(0.70, 0.77) == pytest.approx(-10.0)

    def test_zero_clean_rejected(self):
        with pytest.raises(ValueError):
            accuracy_delta(0.0, 0.5)

    @pytest.mark.parametrize(
        "delta,expected",
        [(8.0, "<10"), (25.0, "20-30"), (-3.0, "improved"), (0.0, "<10"),
         (10.0, "10-20"), (19.999, "10-20"), (20.0, "20-30"), (30.0, ">=30"), (95.0, ">=30")],
    )
    def test_band_rules(self, delta, expected):
        assert band(delta) == expected

    @given(st.floats(0.001, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_no_change_lands_in_lowest_band(self, acc):
        assert band(accuracy_delta(acc, acc)) == "<10"


def constant_predictor(label: int, n_in=13):
    """A model that always predicts ``label`` regardless of input."""
    rng = np.random.default_rng(123)
    layer = Layer((0.01 * rng.standard_normal((n_in, 4))).astype(np.float32),
                  np.zeros(4, np.float32))
    bias = np.zeros(7, np.float32)
    bias[label] = 10.0
    return Dbn([layer], np.zeros((4, 7), np.float32), bias, input_mean=np.zeros(n_in),
               input_std=np.ones(n_in))


def make_test_entries(tmp_path, labelled_names):
    entries = []
    for i, (name, label) in enumerate(labelled_names):
        write_noise_clip(tmp_path / name, seed=50 + i)
        entries.append(ManifestEntry(str(tmp_path / name), label, name[:2], "test"))
    return entries


class TestEvaluate:
    def test_two_right_one_wrong_is_two_thirds(self, tmp_path):
        entries = make_test_entries(
            tmp_path,
            [("01a01Wa.wav", Label.ANGER), ("02a01Wa.wav", Label.ANGER),
             ("03a01Fa.wav", Label.JOY)],
        )
        report = evaluate(constant_predictor(Label.ANGER), entries, RunConfig(), {})[0]
        assert report.utterance_accuracy == pytest.approx(2 / 3)
        assert report.confusion[Label.ANGER, Label.ANGER] == 2
        assert report.confusion[Label.JOY, Label.ANGER] == 1
        assert report.confusion.sum() == 3

    def test_constant_model_scores_support_share(self, tmp_path):
        entries = make_test_entries(
            tmp_path,
            [("01a01Wa.wav", Label.ANGER), ("02a01Fa.wav", Label.JOY),
             ("03a01Na.wav", Label.NEUTRAL), ("04a01Ta.wav", Label.SADNESS)],
        )
        report = evaluate(constant_predictor(Label.JOY), entries, RunConfig(), {})[0]
        assert report.utterance_accuracy == pytest.approx(1 / 4)
        assert report.segment_accuracy == pytest.approx(1 / 4)

    def test_confusion_row_sums_equal_supports(self, tmp_path):
        entries = make_test_entries(
            tmp_path,
            [("01a01Wa.wav", Label.ANGER), ("02a01Wa.wav", Label.ANGER),
             ("03a01Fa.wav", Label.JOY), ("04a01Na.wav", Label.NEUTRAL)],
        )
        report = evaluate(constant_predictor(Label.DISGUST), entries, RunConfig(), {})[0]
        np.testing.assert_array_equal(
            report.confusion.sum(axis=1),
            [2, 0, 0, 0, 1, 1, 0],
        )

    def test_order_invariance_under_noise(self, tmp_path):
        entries = make_test_entries(
            tmp_path,
            [("01a01Wa.wav", Label.ANGER), ("02a01Fa.wav", Label.JOY),
             ("03a01Na.wav", Label.NEUTRAL)],
        )
        noise = AudioClip(0.2 * np.random.default_rng(9).standard_normal(8000), 16000)
        model = constant_predictor(Label.ANGER)
        config = RunConfig(snrs_db=(0.0,))
        forward_report = evaluate(model, entries, config, {"white": noise})[1]
        reverse_report = evaluate(model, list(reversed(entries)), config, {"white": noise})[1]
        assert forward_report.utterance_accuracy == reverse_report.utterance_accuracy
        assert forward_report.segment_accuracy == reverse_report.segment_accuracy
        np.testing.assert_array_equal(forward_report.confusion, reverse_report.confusion)

    def test_clean_condition_is_its_own_baseline(self, tmp_path):
        entries = make_test_entries(tmp_path, [("01a01Wa.wav", Label.ANGER)])
        report = evaluate(constant_predictor(Label.ANGER), entries, RunConfig(), {})[0]
        assert report.clean_accuracy == report.utterance_accuracy
        assert report.delta_percent == 0.0
        assert report.band == "<10"

    def test_conditions_come_clean_first_then_each_category_by_snr(self, tmp_path):
        entries = make_test_entries(
            tmp_path,
            [("01a01Wa.wav", Label.ANGER), ("02a01Fa.wav", Label.JOY)],
        )
        rng = np.random.default_rng(10)
        noises = {name: AudioClip(0.2 * rng.standard_normal(8000), 16000)
                  for name in ("white", "babble")}
        reports = evaluate(constant_predictor(Label.ANGER), entries,
                           RunConfig(snrs_db=(10.0, 0.0)), noises)
        assert [(r.condition, r.snr_db) for r in reports] == [
            ("clean", None), ("white", 0.0), ("white", 10.0), ("babble", 0.0), ("babble", 10.0),
        ]
        assert all(r.clean_accuracy == reports[0].utterance_accuracy for r in reports)
        assert reports[0].delta_percent == 0.0


def write_tone_entries(tmp_path, labels, seed=20):
    """Test entries whose WAVs are tone utterances of the given labels, 0.6 s at 16 kHz."""
    rng = np.random.default_rng(seed)
    entries = []
    for i, label in enumerate(labels):
        path = tmp_path / f"{i + 1:02d}a01{EMOTION_LETTERS[label]}a.wav"
        write_wav(tone_utterance(int(label), rng), path)
        entries.append(ManifestEntry(str(path), Label(label), path.name[:2], "test"))
    return entries


def two_noises(n_samples, seed=11):
    rng = np.random.default_rng(seed)
    hum = 0.1 * np.sin(2 * np.pi * 120.0 * np.arange(n_samples) / 16000)
    return {"white": AudioClip(0.2 * rng.standard_normal(n_samples), 16000),
            "hum": AudioClip(hum + 0.02 * rng.standard_normal(n_samples), 16000)}


class TestSpectralMixing:
    """evaluate derives every SNR from one time-domain mixture per category."""

    @pytest.mark.parametrize("snrs_db, noise_samples", [
        ((10.0, -5.0, 0.0, 3.5), 3000),  # unsorted and negative; noise shorter than the clip
        ((0.0,), 20000),
        ((20.0, -10.0), 9600),  # noise as long as the clip: the window wraps unless at offset 0
    ])
    def test_segments_match_time_domain_reference(self, snrs_db, noise_samples):
        config = RunConfig(snrs_db=snrs_db, seed=3)
        noises = two_noises(noise_samples)
        for label, name in ((0, "01a01Wa.wav"), (4, "07b02Fb.wav")):
            clip = tone_utterance(label, np.random.default_rng(label))
            got = pipeline._condition_segments(config, clip, name, noises, sorted(snrs_db))
            want = reference_condition_segments(config, clip, name, noises)
            assert got.shape == (1 + 2 * len(snrs_db), *want[0].shape)
            for got_condition, want_condition in zip(got, want):
                np.testing.assert_allclose(got_condition, want_condition, rtol=0.0, atol=1e-10)

    def test_confusions_and_segment_accuracies_equal_reference(self, tmp_path):
        entries = write_tone_entries(tmp_path, [0, 1, 2, 3, 4, 5, 6, 2, 5])
        # absolute deltas, so a clean accuracy of 0 is no error
        config = RunConfig(snrs_db=(20.0, -5.0, 5.0), seed=8, delta_mode="absolute")
        noises = two_noises(4000)
        rng = np.random.default_rng(4)
        # standardize on clean segments, so the model's inputs are of order 1
        clean = [reference_condition_segments(config, tone_utterance(label, rng), "x", {})[0]
                 for label in range(7)]
        mean, std = fit_standardization(np.vstack(clean))
        f32 = np.float32
        layer = Layer(rng.standard_normal((13, 10)).astype(f32),
                      (0.1 * rng.standard_normal(10)).astype(f32))
        model = Dbn([layer], (3.0 * rng.standard_normal((10, 7))).astype(f32), np.zeros(7, f32),
                    input_mean=mean, input_std=std)

        reports = evaluate(model, entries, config, noises)
        confusions, segment_accuracies = reference_evaluate(model, entries, config, noises)
        # the model is not constant: it predicts several labels, and noise changes its votes
        assert np.count_nonzero(confusions.sum(axis=(0, 1))) > 1
        assert any((c != confusions[0]).any() for c in confusions[1:])
        assert len(reports) == len(confusions)
        for report, confusion, segment_accuracy in zip(reports, confusions, segment_accuracies):
            np.testing.assert_array_equal(report.confusion, confusion)
            assert report.segment_accuracy == segment_accuracy

    def test_work_per_utterance(self, tmp_path, monkeypatch):
        # one time-domain mixture per category and 1 + K FFT passes per
        # utterance, whatever the number of SNRs, and one forward call per
        # slice of _SCORE_BLOCK_ROWS rows: the three short utterances' 63 rows make one
        calls = []  # appended to from every pool thread
        for name in ("forward", "mix_at_snr", "frame_spectra", "mfcc"):
            def counted(*args, _name=name, _real=getattr(pipeline, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, counted)
        entries = write_tone_entries(tmp_path, [0, 3, 6])
        reports = evaluate(constant_predictor(Label.ANGER), entries,
                           RunConfig(snrs_db=(0.0, 5.0, 10.0)), two_noises(8000))
        assert len(reports) == 1 + 2 * 3
        assert Counter(calls) == {"forward": 1, "mix_at_snr": 3 * 2,
                                  "frame_spectra": 3 * (1 + 2)}

    def test_reports_do_not_depend_on_the_row_block(self, learned_run, monkeypatch):
        config, model, entries, noises = learned_run
        sizes = [s[..., 0].size for s in segments_of(config, entries, noises)]
        n_rows, ends = sum(sizes), set(np.cumsum(sizes).tolist())
        calls = []  # rows of each forward call, appended to from every pool thread

        def scored(block_rows):
            monkeypatch.setattr(pipeline, "_SCORE_BLOCK_ROWS", block_rows)
            calls.clear()
            reports = evaluate(model, entries, config, noises)
            assert len(calls) == math.ceil(n_rows / block_rows)
            assert sum(calls) == n_rows
            return reports

        def counted(model, rows, _real=pipeline.forward):
            calls.append(len(rows))
            return _real(model, rows)

        monkeypatch.setattr(pipeline, "forward", counted)
        want = scored(10**9)  # the whole split in one call
        # the trained model's votes vary, so a misplaced row would show
        assert np.count_nonzero(sum(r.confusion for r in want).sum(axis=0)) > 1
        # 7 rows a call puts a slice boundary inside an utterance's rows
        assert any(k not in ends for k in range(7, n_rows, 7))
        for block_rows in (1, 7, 20):
            got = scored(block_rows)
            for a, b in zip(got, want, strict=True):
                np.testing.assert_array_equal(a.confusion, b.confusion)
                assert replace(a, confusion=None) == replace(b, confusion=None)

    @pytest.mark.parametrize("samples, noise, problem", [
        (np.zeros(9600), AudioClip(np.ones(8000), 16000), "clean clip is silent"),
        (0.1 * np.ones(399), AudioClip(np.ones(8000), 16000), "shorter than one frame"),
        (0.1 * np.ones(9600), AudioClip(np.zeros(8000), 16000), "noise window is silent"),
        (0.1 * np.ones(9600), AudioClip(np.ones(8000), 8000), "sample rate mismatch"),
    ], ids=["silent_clip", "short_clip", "silent_noise", "noise_rate"])
    def test_mixing_errors_surface(self, tmp_path, samples, noise, problem):
        entries = write_tone_entries(tmp_path, [0])
        write_wav(AudioClip(samples, 16000), entries[0].path)
        with pytest.raises(ValueError, match=problem):
            evaluate(constant_predictor(Label.ANGER), entries, RunConfig(snrs_db=(0.0, 10.0)),
                     {"white": noise})


@pytest.fixture(scope="module")
def learned_run(tone_corpus, tmp_path_factory):
    """(config, model, test entries, noises) of a tone-corpus model whose votes vary."""
    clean_dir, noise_dir = tone_corpus
    config = RunConfig(
        clean_dir=str(clean_dir), noise_dir=str(noise_dir),
        work_dir=str(tmp_path_factory.mktemp("learned")), snrs_db=(0.0, 10.0),
        hidden_sizes=(32, 32),
        train=TrainConfig(epochs_pretrain=5, epochs_finetune=100, batch_size=16,
                          learning_rate_pretrain_gaussian=0.01, learning_rate_pretrain=0.1,
                          learning_rate_finetune=0.1),
    )
    model = load_model(train_model(config))
    entries = [e for e in read_manifest(manifest_path(config)) if e.split == "test"]
    return config, model, entries, {"white": pipeline.load_noise(config, "white")}


def segments_of(config, entries, noises):
    """``_condition_segments`` of each entry, in entry order, computed on the calling thread."""
    return [pipeline._condition_segments(config, pipeline._load_utterance(config, e.path),
                                         Path(e.path).name, noises, sorted(config.snrs_db))
            for e in entries]


def openblas_threads():
    """(get, set) of OpenBLAS's thread count; skips the test where no OpenBLAS is found."""
    blas = _blas._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS found in this process")
    return blas.get_threads, blas.set_threads


class TestTwoPhaseEvaluate:
    """evaluate featurizes and classifies on one pool as large as OpenBLAS's thread count.

    OpenBLAS is pinned to one thread while the pool runs.
    """

    def test_report_bytes_do_not_depend_on_the_blas_threads(self, learned_run, monkeypatch):
        config = learned_run[0]
        threads = set()  # idents of the threads that featurized

        def featurized(*args, _real=pipeline._condition_segments):
            threads.add(threading.get_ident())
            return _real(*args)

        monkeypatch.setattr(pipeline, "_condition_segments", featurized)
        get, put = openblas_threads()
        before = get()
        reports = []
        try:
            for n_threads in (1, 2):
                put(n_threads)
                had = get()  # OpenBLAS may cap the count it is set to
                threads.clear()
                reports.append(evaluate_experiment(config).read_bytes())
                assert threading.get_ident() not in threads  # the calling thread waits
                assert 1 <= len(threads) <= had  # exactly one at one OpenBLAS thread
                assert get() == had
        finally:
            put(before)
        assert reports[0] == reports[1]

    def test_blas_threads_restored_and_first_short_utterance_named(self, tmp_path):
        # a thread's exception that escaped would fail the test: the suite
        # turns pytest's unhandled-thread-exception warning into an error
        clean_dir, noise_dir = build_tone_corpus(tmp_path / "corpus", n_speakers=3)
        config = RunConfig(
            clean_dir=str(clean_dir), noise_dir=str(noise_dir), work_dir=str(tmp_path / "work"),
            snrs_db=(0.0,), hidden_sizes=(8,),
            train=TrainConfig(epochs_pretrain=0, epochs_finetune=0),
        )
        train_model(config)
        tests = [e.path for e in read_manifest(manifest_path(config))
                 if e.split == "test"]
        get, put = openblas_threads()
        before = get()
        try:
            for n_threads in (1, 2):
                put(n_threads)
                had = get()
                evaluate_experiment(config)
                assert get() == had
            for path in (tests[1], tests[4]):
                write_wav(AudioClip(np.full(100, 0.1), 16000), path)
            for n_threads in (1, 2):
                put(n_threads)
                had = get()
                with pytest.raises(ValueError) as refused:
                    evaluate_experiment(config)
                assert str(refused.value) == (
                    f"{tests[1]}: clip of 100 samples is shorter than one frame (400)")
                assert get() == had
        finally:
            put(before)

    def test_every_entry_is_featurized_once_under_contention(self, monkeypatch):
        # four threads, switching as often as the interpreter allows: a lost
        # claim would skip an entry or featurize one twice
        calls = []
        stacked = []  # the rows of each forward call

        def featurized(config, clip, name, noises, snrs_db):
            calls.append(name)
            time.sleep(0)  # lets another thread run, as numpy's transforms do
            return np.full((1, 1, 13), float(name[:4]))  # one row that holds the entry index

        def classified(model, rows):
            stacked.append(rows[:, 0].copy())
            return np.full((len(rows), 7), 1 / 7)

        monkeypatch.setattr(pipeline, "_load_utterance", lambda config, path: path)
        monkeypatch.setattr(pipeline, "_condition_segments", featurized)
        monkeypatch.setattr(pipeline, "forward", classified)
        # one forward call, so it sees the rows as stacked
        monkeypatch.setattr(pipeline, "_SCORE_BLOCK_ROWS", 10**9)
        entries = [ManifestEntry(f"{k:04d}a01Wa.wav", Label.ANGER, "01", "test")
                   for k in range(2000)]
        get, put = openblas_threads()
        before, interval = get(), sys.getswitchinterval()
        try:
            put(4)
            sys.setswitchinterval(1e-6)
            evaluate(None, entries, RunConfig(), {})
        finally:
            sys.setswitchinterval(interval)
            put(before)
        assert len(stacked) == 1
        np.testing.assert_array_equal(stacked[0], np.arange(len(entries)))  # entry order
        assert sorted(calls) == [e.path for e in entries]

    def test_first_failure_in_entry_order_is_raised(self, monkeypatch):
        # entry 1 fails only after entry 3 has failed; the error must still
        # name entry 1, and no pool thread may outlive the call
        later_failed = threading.Event()

        def featurized(config, clip, name, noises, snrs_db):
            if name == "0001a01Wa.wav":
                assert later_failed.wait(timeout=10)
                raise ValueError(name)
            if name == "0003a01Wa.wav":
                later_failed.set()
                raise ValueError(name)
            return np.zeros((1, 1, 13))

        @contextlib.contextmanager
        def two_threads():
            yield 2

        monkeypatch.setattr(_blas, "pinned", two_threads)
        monkeypatch.setattr(pipeline, "_load_utterance", lambda config, path: path)
        monkeypatch.setattr(pipeline, "_condition_segments", featurized)
        entries = [ManifestEntry(f"{k:04d}a01Wa.wav", Label.ANGER, "01", "test")
                   for k in range(6)]
        active = threading.active_count()
        with pytest.raises(ValueError, match="^0001a01Wa.wav$"):
            evaluate(constant_predictor(Label.ANGER), entries, RunConfig(), {})
        assert later_failed.is_set()
        assert threading.active_count() == active

    def test_classification_runs_on_pool_threads_with_blas_pinned(self, learned_run, monkeypatch):
        config, model, entries, noises = learned_run
        get, put = openblas_threads()
        seen = []  # (OpenBLAS threads, thread ident) inside each forward call

        def classified(model, rows, _real=pipeline.forward):
            seen.append((get(), threading.get_ident()))
            return _real(model, rows)

        monkeypatch.setattr(pipeline, "forward", classified)
        monkeypatch.setattr(pipeline, "_SCORE_BLOCK_ROWS", 7)  # many slices in flight
        # the second model's input width does not match, so forward raises on a pool thread
        runs = [(model, contextlib.nullcontext()),
                (constant_predictor(Label.ANGER, n_in=5),
                 pytest.raises(ValueError, match="input rows have 13 entries, want 5"))]
        before, active = get(), threading.active_count()
        try:
            put(2)
            had = get()  # OpenBLAS may cap the count it is set to
            for scored_by, outcome in runs:
                seen.clear()
                with outcome:
                    evaluate(scored_by, entries, config, noises)
                assert seen and {n for n, _ in seen} == {1}
                assert threading.get_ident() not in {t for _, t in seen}  # the calling thread waits
                assert get() == had
                assert threading.active_count() == active
        finally:
            put(before)

    def test_reports_do_not_depend_on_the_scoring_workers(self, learned_run, monkeypatch):
        config, model, entries, noises = learned_run
        pinned = _blas.pinned
        monkeypatch.setattr(pipeline, "_SCORE_BLOCK_ROWS", 7)  # many slices in flight
        reports = []
        for n_workers in (1, 2):
            @contextlib.contextmanager
            def workers(n_workers=n_workers):
                with pinned():
                    yield n_workers

            monkeypatch.setattr(_blas, "pinned", workers)
            reports.append(evaluate(model, entries, config, noises))
        for a, b in zip(*reports, strict=True):
            np.testing.assert_array_equal(a.confusion, b.confusion)
            assert replace(a, confusion=None) == replace(b, confusion=None)

    def test_float32_forward_matches_a_float64_reference(self, learned_run):
        config, model, entries, noises = learned_run
        segments = segments_of(config, entries, noises)
        rows = np.concatenate([s.reshape(-1, s.shape[-1]) for s in segments])
        got, want = forward(model, rows), reference_forward(model, rows)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))
        # float32 layers and head: the largest probability error here is 2.8e-7
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)
        np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-9)


CLEAN_ROW = "clean,,0.9,0.9,0.9,0.0,<10\n"


def dummy_report(condition, snr, acc, clean_acc):
    delta = accuracy_delta(clean_acc, acc)
    return EvalReport(
        condition=condition, snr_db=snr, segment_accuracy=acc, utterance_accuracy=acc,
        clean_accuracy=clean_acc, delta_percent=delta, band=band(delta),
        confusion=np.zeros((7, 7), dtype=np.int64),
    )


class TestReportCsv:
    def test_order_and_format(self, tmp_path):
        reports = [
            dummy_report("white", 0.0, 0.5, 0.8),
            dummy_report("car", 10.0, 0.7, 0.8),
            dummy_report("clean", None, 0.8, 0.8),
            dummy_report("car", 0.0, 0.6, 0.8),
        ]
        path = tmp_path / "report.csv"
        write_report(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "condition,snr_db,segment_accuracy,utterance_accuracy,"
            "clean_utterance_accuracy,delta_percent,band"
        )
        assert lines[1].startswith("clean,,0.800000,0.800000,0.800000,0.000000,<10")
        assert lines[2].startswith("car,0.000000,")
        assert lines[3].startswith("car,10.000000,")
        assert lines[4].startswith("white,0.000000,")

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report([dummy_report("clean", None, 0.9, 0.9)], path)
        before = path.read_bytes()
        broken = dummy_report("white", 0.0, 0.5, 0.9)
        broken.snr_db = "zero"  # fails to format after the clean row is written
        with pytest.raises(ValueError):
            write_report([dummy_report("clean", None, 0.8, 0.8), broken], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    def test_read_round_trip(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report([dummy_report("clean", None, 0.9, 0.9)], path)
        rows = read_report(path)
        assert rows[0]["condition"] == "clean"
        assert rows[0]["snr_db"] == ""
        assert rows[0]["utterance_accuracy"] == "0.900000"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "nope.csv"
        path.write_text("x,y\n")
        with pytest.raises(ValueError, match="header"):
            read_report(path)

    @pytest.mark.parametrize("body, line, found", [
        ("clean,,0.5\n", 2, 3),
        ("clean,,0.9,0.9,0.9,0.0,<10\n\n", 3, 0),
        ("clean,,0.9,0.9,0.9,0.0,<10,extra\n", 2, 8),
    ], ids=["short", "blank", "long"])
    def test_malformed_row_names_file_and_line(self, tmp_path, body, line, found):
        path = tmp_path / "report.csv"
        path.write_text(",".join(pipeline.REPORT_COLUMNS) + "\n" + body)
        with pytest.raises(ValueError, match=f"report.csv, line {line}: expected 7 fields, "
                                             f"found {found}"):
            read_report(path)

    @pytest.mark.parametrize("body, line, problem", [
        ("", 2, "no condition rows"),
        ("white,0.000000,0.5,0.5,0.9,44.4,>=30\n", 2, "expected the clean row"),
        ("clean,0.000000,0.9,0.9,0.9,0.0,<10\n", 2, "expected the clean row"),
        (CLEAN_ROW + "clean,,0.9,0.9,0.9,0.0,<10\n", 3, "expected a noise row"),
        (CLEAN_ROW + "white,,0.5,0.5,0.9,44.4,>=30\n", 3, "expected a noise row"),
        (CLEAN_ROW + "white,abc,0.5,0.5,0.9,44.4,>=30\n", 3, "snr_db 'abc' is not a finite"),
        (CLEAN_ROW + "white,inf,0.5,0.5,0.9,44.4,>=30\n", 3, "snr_db 'inf' is not a finite"),
        (CLEAN_ROW + "white,0.000000,0.5,0.5,0.9,nan,>=30\n", 3, "delta_percent 'nan'"),
        ("clean,,0.9,0.9,0.9,x,<10\n", 2, "delta_percent 'x'"),
        ("clean,,1.5,0.9,0.9,0.0,<10\n", 2, r"segment_accuracy '1.5' is not .* in \[0, 1\]"),
        (CLEAN_ROW + "white,0.000000,0.5,-0.1,0.9,44.4,>=30\n", 3, "utterance_accuracy '-0.1'"),
        ("clean,,0.9,0.9,,0.0,<10\n", 2, "clean_utterance_accuracy ''"),
        ("clean,,0.9,0.9,0.9,0.0,??\n", 2, r"unknown band '\?\?'"),
    ], ids=["no_rows", "noise_first", "clean_with_snr", "second_clean", "noise_without_snr",
            "snr_text", "snr_inf", "delta_nan", "delta_text", "accuracy_above_one",
            "accuracy_negative", "accuracy_empty", "unknown_band"])
    def test_invalid_row_names_file_and_line(self, tmp_path, body, line, problem):
        path = tmp_path / "report.csv"
        path.write_text(",".join(pipeline.REPORT_COLUMNS) + "\n" + body)
        with pytest.raises(ValueError, match=f"report.csv, line {line}: {problem}"):
            read_report(path)

    def test_every_band_reads_back(self, tmp_path):
        path = tmp_path / "report.csv"
        accs = {"improved": 0.9, "<10": 0.75, "10-20": 0.7, "20-30": 0.6, ">=30": 0.4}
        write_report([dummy_report("clean", None, 0.8, 0.8)]
                     + [dummy_report(name, 0.0, acc, 0.8) for name, acc in accs.items()], path)
        assert sorted(row["band"] for row in read_report(path)[1:]) == sorted(accs)
        # the band is that of the unrounded delta: 9.999999999999998 prints as 10.000000
        write_report([dummy_report("clean", None, 1.0, 1.0), dummy_report("white", 0.0, 0.9, 1.0)],
                     path)
        assert read_report(path)[1]["delta_percent"] == "10.000000"
        assert read_report(path)[1]["band"] == "<10"


class TestExperimentStages:
    def test_missing_noise_category_fails_before_training(self, tmp_path, tone_corpus):
        clean_dir, noise_dir = tone_corpus
        work = tmp_path / "work"
        config = RunConfig(
            clean_dir=str(clean_dir), noise_dir=str(noise_dir), work_dir=str(work),
            noise_categories=("white", "missing_category"), snrs_db=(0.0,),
        )
        with pytest.raises(ValueError, match="missing_category"):
            run_experiment(config)
        assert not (work / "manifest.csv").exists()
        assert not (work / "model.dbn").exists()

    @pytest.mark.parametrize("listed", [("white", "clean"), ()], ids=["listed", "discovered"])
    def test_noise_category_named_clean_fails_before_training(self, tmp_path, tone_corpus,
                                                              listed):
        # the report's clean row is the condition "clean"; a noise category of
        # that name would reach write_report only after the whole model trained
        clean_dir, noise_dir = tone_corpus
        noise_root = tmp_path / "noise"
        for name in ("clean", "white"):
            (noise_root / name).mkdir(parents=True)
            shutil.copy(noise_dir / "white" / "ch01.wav", noise_root / name / "ch01.wav")
        work = tmp_path / "work"
        config = RunConfig(
            clean_dir=str(clean_dir), noise_dir=str(noise_root), work_dir=str(work),
            noise_categories=listed, snrs_db=(0.0,), hidden_sizes=(8,),
            train=TrainConfig(epochs_pretrain=0, epochs_finetune=0),
        )
        with pytest.raises(ValueError, match="noise category 'clean'"):
            run_experiment(config)
        assert not (work / "manifest.csv").exists()
        assert not (work / "model.dbn").exists()

    @pytest.mark.parametrize("n_samples, rate", [(0, 16000), (1, 44100)],
                             ids=["empty", "empty_after_resampling"])
    def test_noise_file_without_samples_is_refused(self, tmp_path, n_samples, rate):
        path = tmp_path / "noise" / "hum" / "ch01.wav"
        path.parent.mkdir(parents=True)
        write_wav(AudioClip(np.full(n_samples, 0.1), rate), path)
        config = RunConfig(noise_dir=str(tmp_path / "noise"))
        with pytest.raises(ValueError, match=f"noise file {path} has no samples at 16000 Hz"):
            pipeline.load_noise(config, "hum")

    def test_noisy_training_loads_each_noise_once(self, tmp_path, tone_corpus, monkeypatch):
        clean_dir, noise_dir = tone_corpus
        noise_root = tmp_path / "noise"
        for name in ("pink", "white"):
            (noise_root / name).mkdir(parents=True)
            shutil.copy(noise_dir / "white" / "ch01.wav", noise_root / name / "ch01.wav")
        calls = []
        real_load_noise = pipeline.load_noise

        def counting_load_noise(config, category):
            calls.append(category)
            return real_load_noise(config, category)

        monkeypatch.setattr(pipeline, "load_noise", counting_load_noise)
        config = RunConfig(
            clean_dir=str(clean_dir), noise_dir=str(noise_root), work_dir=str(tmp_path / "work"),
            snrs_db=(0.0, 10.0), train_on_noisy=True, hidden_sizes=(8,),
            train=TrainConfig(epochs_pretrain=0, epochs_finetune=0),
        )
        train_model(config)
        assert sorted(calls) == ["pink", "white"]

    def test_small_end_to_end_run(self, tmp_path, tone_corpus):
        clean_dir, noise_dir = tone_corpus
        work = tmp_path / "work"
        config = RunConfig(
            clean_dir=str(clean_dir), noise_dir=str(noise_dir), work_dir=str(work),
            snrs_db=(0.0,), hidden_sizes=(16, 16, 24),
            train=TrainConfig(epochs_pretrain=1, epochs_finetune=3, batch_size=32),
            seed=5,
        )
        report_file = run_experiment(config)
        rows = read_report(report_file)
        assert [r["condition"] for r in rows] == ["clean", "white"]
        assert rows[0]["snr_db"] == ""
        assert rows[1]["snr_db"] == "0.000000"
        assert (work / "model.dbn").exists()
        manifest = read_manifest(work / "manifest.csv")
        assert len(manifest) == 70
        assert sum(e.split == "test" for e in manifest) == 14

    def test_model_trained_under_another_config_is_refused(self, tmp_path, tone_corpus):
        clean_dir, noise_dir = tone_corpus
        config = RunConfig(
            clean_dir=str(clean_dir), noise_dir=str(noise_dir), work_dir=str(tmp_path / "work"),
            snrs_db=(0.0,), hidden_sizes=(8,),
            train=TrainConfig(epochs_pretrain=0, epochs_finetune=0),
        )
        train_model(config)
        # settings training never reads leave the model usable
        other_noise = tmp_path / "other_noise"
        shutil.copytree(noise_dir, other_noise)
        evaluate_experiment(replace(config, snrs_db=(5.0, 10.0), delta_mode="absolute",
                                    noise_dir=str(other_noise)))
        for stale in (
            replace(config, mfcc=replace(config.mfcc, hop=80)),
            replace(config, mfcc=replace(config.mfcc, fmax_hz=4000.0)),
            replace(config, hidden_sizes=(64, 64)),
            replace(config, seed=config.seed + 1),
        ):
            with pytest.raises(ValueError, match="run the train stage"):
                evaluate_experiment(stale)

    def test_noisy_model_refused_under_another_noise_dir(self, tmp_path, tone_corpus):
        clean_dir, noise_dir = tone_corpus
        config = RunConfig(
            clean_dir=str(clean_dir), noise_dir=str(noise_dir), work_dir=str(tmp_path / "work"),
            snrs_db=(0.0,), train_on_noisy=True, hidden_sizes=(8,),
            train=TrainConfig(epochs_pretrain=0, epochs_finetune=0),
        )
        train_model(config)
        evaluate_experiment(config)
        # the same category name holding different noise
        other_white = tmp_path / "other_noise" / "white"
        other_white.mkdir(parents=True)
        noise = 0.1 * np.random.default_rng(5).standard_normal(16000)
        write_wav(AudioClip(noise, 16000), other_white / "ch01.wav")
        with pytest.raises(ValueError, match="run the train stage"):
            evaluate_experiment(replace(config, noise_dir=str(other_white.parent)))

    def test_model_trained_on_another_split_is_refused(self, tmp_path, tone_corpus):
        clean_dir, noise_dir = tone_corpus
        config = RunConfig(
            clean_dir=str(clean_dir), noise_dir=str(noise_dir), work_dir=str(tmp_path / "work"),
            snrs_db=(0.0,), hidden_sizes=(8,),
            train=TrainConfig(epochs_pretrain=0, epochs_finetune=0),
        )
        train_model(config)
        # the same split written again keeps the model usable
        prepare(config)
        evaluate_experiment(config)
        # a larger test split takes in utterances the model was trained on
        resplit = replace(config, test_fraction=0.5)
        prepare(resplit)
        for current in (config, resplit):
            with pytest.raises(ValueError, match="another split.*run the train stage"):
                evaluate_experiment(current)

    def test_model_without_key_is_refused(self, tmp_path, tone_corpus):
        clean_dir, noise_dir = tone_corpus
        config = RunConfig(
            clean_dir=str(clean_dir), noise_dir=str(noise_dir), work_dir=str(tmp_path / "work"),
            snrs_db=(0.0,), hidden_sizes=(8,),
            train=TrainConfig(epochs_pretrain=0, epochs_finetune=0),
        )
        model_bytes = train_model(config).read_bytes()
        (tmp_path / "work" / "model.key").unlink()
        with pytest.raises(ValueError, match="model.key not found.*run the train stage"):
            evaluate_experiment(config)
        # the key is a separate file: model.dbn holds the parameters alone
        assert train_model(config).read_bytes() == model_bytes


def learning_rows(corpus, work_dir, train_on_noisy, snrs_db=(0.0,)):
    """Report rows of one run at the noise-sweep benchmark's training settings."""
    clean_dir, noise_dir = corpus
    config = RunConfig(
        clean_dir=str(clean_dir), noise_dir=str(noise_dir), work_dir=str(work_dir),
        snrs_db=snrs_db, hidden_sizes=(256, 256, 512), train_on_noisy=train_on_noisy,
        train=TrainConfig(
            epochs_pretrain=5, epochs_finetune=10, learning_rate_pretrain_gaussian=0.01,
            learning_rate_pretrain=0.1, learning_rate_finetune=0.1,
        ),
    )
    return read_report(run_experiment(config))


@pytest.fixture(scope="module")
def learning_corpus(tmp_path_factory):
    # with 20 speakers the same settings stay at chance (1/7); white noise, no floor
    return build_tone_corpus(tmp_path_factory.mktemp("learning"), n_speakers=40, duration=1.0)


@pytest.fixture(scope="module")
def clean_trained_rows(learning_corpus, tmp_path_factory):
    return learning_rows(learning_corpus, tmp_path_factory.mktemp("clean_work"), False)


class TestLearning:
    def test_clean_accuracy_well_above_chance(self, clean_trained_rows):
        assert clean_trained_rows[0]["condition"] == "clean"
        assert float(clean_trained_rows[0]["utterance_accuracy"]) >= 0.5

    def test_training_on_noisy_speech_helps_at_0db(self, learning_corpus, clean_trained_rows,
                                                    tmp_path):
        # training on speech mixed at the test SNR, the protocol's lever for robustness
        noisy_rows = learning_rows(learning_corpus, tmp_path / "work", True)
        (clean_0db,) = [r for r in clean_trained_rows if r["condition"] != "clean"]
        (noisy_0db,) = [r for r in noisy_rows if r["condition"] != "clean"]
        assert float(clean_0db["snr_db"]) == float(noisy_0db["snr_db"]) == 0.0
        noisy_acc = float(noisy_0db["utterance_accuracy"])
        assert noisy_acc >= 0.5
        assert noisy_acc >= float(clean_0db["utterance_accuracy"]) + 0.25

    def test_30db_beats_0db_on_a_floored_corpus(self, tmp_path):
        # the noisy half of the gate, on the benchmark corpus's -35 dB floor: a
        # floorless tone leaves mel bands empty that even 30 dB noise fills
        corpus = build_tone_corpus(tmp_path, n_speakers=40, duration=1.0, floor_db=-35.0)
        rows = learning_rows(corpus, tmp_path / "work", False, (0.0, 30.0))
        accuracy = {float(r["snr_db"]): float(r["utterance_accuracy"])
                    for r in rows if r["condition"] != "clean"}
        assert accuracy[30.0] >= 0.5
        assert accuracy[30.0] >= accuracy[0.0] + 0.25
