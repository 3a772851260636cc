import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emonoise import pipeline
from emonoise.audio import AudioClip, read_wav, write_wav
from emonoise.config import RunConfig
from emonoise.dbn import BERNOULLI, GAUSSIAN, Dbn, Rbm, TrainConfig
from emonoise.dsp import MfccConfig, SegmentConfig, mfcc
from conftest import build_tone_corpus
from emonoise.pipeline import (
    EvalReport,
    Label,
    ManifestEntry,
    accuracy_delta,
    band,
    build_manifest,
    emodb_label_rule,
    emodb_speaker_rule,
    evaluate,
    evaluate_experiment,
    fit_standardization,
    majority_vote,
    prepare,
    read_manifest,
    read_report,
    run_experiment,
    split,
    train_model,
    write_manifest,
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

    def test_leave_speakers_out_is_disjoint(self):
        manifest = synthetic_manifest(per_label=10, n_speakers=5)
        tagged = split(manifest, "leave_speakers_out", 0.2, seed=3)
        train_speakers = {e.speaker for e in tagged if e.split == "train"}
        test_speakers = {e.speaker for e in tagged if e.split == "test"}
        assert test_speakers and train_speakers
        assert not (train_speakers & test_speakers)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            split(synthetic_manifest(), "stratified_random", 1.5, seed=0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            split(synthetic_manifest(), "bogus", 0.2, seed=0)


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

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_standardization(np.empty((0, 13)))


class TestMajorityVote:
    def test_plain_majority(self):
        assert majority_vote([2, 2, 5]) == 2

    def test_tie_breaks_low(self):
        assert majority_vote([1, 3]) == 1

    def test_single_vote(self):
        assert majority_vote([4]) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_vote([])


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

    def test_band_rejects_nan(self):
        with pytest.raises(ValueError):
            band(float("nan"))

    @given(st.floats(0.001, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_no_change_lands_in_lowest_band(self, acc):
        assert band(accuracy_delta(acc, acc)) == "<10"


def constant_predictor(label: int, n_in=13):
    """A model that always predicts ``label`` regardless of input."""
    rng = np.random.default_rng(123)
    rbm = Rbm(0.01 * rng.standard_normal((n_in, 4)), np.zeros(n_in), np.zeros(4), GAUSSIAN)
    bias = np.zeros(7)
    bias[label] = 10.0
    return Dbn([rbm], np.zeros((4, 7)), bias, input_mean=np.zeros(n_in), input_std=np.ones(n_in))


def load_clips(entries):
    return {e.path: read_wav(e.path) for e in entries}


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
        report = evaluate(constant_predictor(Label.ANGER), entries, load_clips(entries), RunConfig())
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
        report = evaluate(constant_predictor(Label.JOY), entries, load_clips(entries), RunConfig())
        assert report.utterance_accuracy == pytest.approx(1 / 4)
        assert report.segment_accuracy == pytest.approx(1 / 4)

    def test_confusion_row_sums_equal_supports(self, tmp_path):
        entries = make_test_entries(
            tmp_path,
            [("01a01Wa.wav", Label.ANGER), ("02a01Wa.wav", Label.ANGER),
             ("03a01Fa.wav", Label.JOY), ("04a01Na.wav", Label.NEUTRAL)],
        )
        report = evaluate(constant_predictor(Label.DISGUST), entries, load_clips(entries),
                          RunConfig())
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
        clips = load_clips(entries)
        forward_report = evaluate(model, entries, clips, RunConfig(), condition="white",
                                  noise=noise, snr_db=0.0)
        reverse_report = evaluate(model, list(reversed(entries)), clips, RunConfig(),
                                  condition="white", noise=noise, snr_db=0.0)
        assert forward_report.utterance_accuracy == reverse_report.utterance_accuracy
        assert forward_report.segment_accuracy == reverse_report.segment_accuracy
        np.testing.assert_array_equal(forward_report.confusion, reverse_report.confusion)

    def test_clean_condition_is_its_own_baseline(self, tmp_path):
        entries = make_test_entries(tmp_path, [("01a01Wa.wav", Label.ANGER)])
        report = evaluate(constant_predictor(Label.ANGER), entries, load_clips(entries), RunConfig())
        assert report.clean_accuracy == report.utterance_accuracy
        assert report.delta_percent == 0.0
        assert report.band == "<10"

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            evaluate(constant_predictor(0), [], {}, RunConfig())


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
        evaluate_experiment(replace(config, snrs_db=(5.0, 10.0), delta_mode="absolute"))
        for stale in (
            replace(config, mfcc=replace(config.mfcc, hop=80)),
            replace(config, mfcc=replace(config.mfcc, fmax_hz=4000.0)),
            replace(config, hidden_sizes=(64, 64)),
            replace(config, seed=config.seed + 1),
        ):
            with pytest.raises(ValueError, match="run the train stage"):
                evaluate_experiment(stale)

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


class TestLearning:
    def test_clean_accuracy_well_above_chance(self, tmp_path):
        # the noise-sweep benchmark settings; with 20 speakers the same
        # settings stay at chance (1/7)
        clean_dir, noise_dir = build_tone_corpus(tmp_path / "corpus", n_speakers=40, duration=1.0)
        config = RunConfig(
            clean_dir=str(clean_dir), noise_dir=str(noise_dir), work_dir=str(tmp_path / "work"),
            snrs_db=(0.0,), hidden_sizes=(256, 256, 512),
            train=TrainConfig(
                epochs_pretrain=5, epochs_finetune=10, learning_rate_pretrain_gaussian=0.01,
                learning_rate_pretrain=0.1, learning_rate_finetune=0.1,
            ),
        )
        rows = read_report(run_experiment(config))
        assert rows[0]["condition"] == "clean"
        assert float(rows[0]["utterance_accuracy"]) >= 0.5
