import os
import platform
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import emonoise
from emonoise import cli, pipeline
from emonoise.audio import AudioClip
from emonoise.cli import dispatch, main, parse_args
from emonoise.config import _SCHEMA, RunConfig, load_config
from emonoise.dbn import load_model, save_model
from emonoise.manifest import read_manifest

from conftest import build_tone_corpus, write_wav


class TestParseArgs:
    def test_defaults(self):
        args, config = parse_args(["run"])
        assert args.command == "run"
        assert config == RunConfig()

    def test_flag_overrides_config_file(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("[pipeline]\nseed = 3\nclean_dir = /data/clean\n")
        _, config = parse_args(["run", "--config", str(cfg_file), "--seed", "7"])
        assert config.seed == 7
        assert config.clean_dir == "/data/clean"

    def test_nested_flags(self):
        _, config = parse_args(
            ["train", "--epochs-pretrain", "2", "--epochs-finetune", "4",
             "--hidden-sizes", "8,8,16", "--snrs", "0,5.5"]
        )
        assert config.train.epochs_pretrain == 2
        assert config.train.epochs_finetune == 4
        assert config.hidden_sizes == (8, 8, 16)
        assert config.snrs_db == (0.0, 5.5)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_config_file_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--config", "/nonexistent/exp.cfg"])
        assert exc.value.code == 2

    def test_config_directory_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["prepare", "--config", str(tmp_path)])
        assert exc.value.code == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_malformed_config_reports_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("[pipeline]\nthis line has no equals sign\n")
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--config", str(cfg_file)])
        assert exc.value.code == 2
        assert "line" in capsys.readouterr().err.lower()

    def test_unknown_config_key_exits_two(self, tmp_path):
        cfg_file = tmp_path / "odd.cfg"
        cfg_file.write_text("[pipeline]\nwat = 1\n")
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--config", str(cfg_file)])
        assert exc.value.code == 2

    def test_workdir_env_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("EMONOISE_WORKDIR", str(tmp_path / "envwork"))
        _, config = parse_args(["run"])
        assert config.work_dir == str(tmp_path / "envwork")
        _, config = parse_args(["run", "--work-dir", "explicit"])
        assert config.work_dir == "explicit"

    @pytest.mark.parametrize(
        "flag,section,key,text",
        [
            ("--clean-dir", "pipeline", "clean_dir", "/data/clean"),
            ("--noise-dir", "pipeline", "noise_dir", "/data/noise"),
            ("--work-dir", "pipeline", "work_dir", "/data/work"),
            ("--seed", "pipeline", "seed", "7"),
            ("--snrs", "audio", "snrs_db", "-5, 0"),
            ("--categories", "pipeline", "noise_categories", "white, pink"),
            ("--split-strategy", "pipeline", "split_strategy", "leave_speakers_out"),
            ("--test-fraction", "pipeline", "test_fraction", "0.3"),
            ("--delta-mode", "pipeline", "delta_mode", "absolute"),
            ("--sample-rate", "pipeline", "sample_rate_hz", "8000"),
            ("--epochs-pretrain", "dbn", "epochs_pretrain", "2"),
            ("--epochs-finetune", "dbn", "epochs_finetune", "4"),
            ("--hidden-sizes", "dbn", "hidden_sizes", "8,8,16"),
        ],
    )
    def test_flag_matches_config_key(self, tmp_path, monkeypatch, flag, section, key, text):
        monkeypatch.delenv("EMONOISE_WORKDIR", raising=False)
        cfg_file = tmp_path / "one.cfg"
        cfg_file.write_text(f"[{section}]\n{key} = {text}\n")
        from_file = load_config(cfg_file)
        assert from_file != RunConfig()
        assert parse_args(["train", flag, text])[1] == from_file

    @pytest.mark.parametrize(
        "flag,text",
        [("--seed", "x"), ("--snrs", "0,abc"), ("--split-strategy", "bogus"),
         ("--hidden-sizes", ""), ("--snrs", "nan"), ("--snrs", "0,inf"),
         ("--hidden-sizes", "0"), ("--snrs", "0,10,0"), ("--snrs", "0,-0"),
         ("--categories", "white,pink,white"), ("--seed", "-1")],
    )
    def test_bad_flag_value_exits_two(self, flag, text, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", flag, text])
        assert exc.value.code == 2
        assert "error: command line: " in capsys.readouterr().err

    @pytest.mark.parametrize("text, repeated", [
        ("[audio]\nsnrs_db = 0, 10, 0\n", "snrs_db lists 0.0 more than once"),
        ("[pipeline]\nnoise_categories = white, pink, white\n",
         "noise_categories lists white more than once"),
        ("[dsp]\nfft_size = 500\n", "fft_size must be a power of two"),
        ("[dbn]\nlearning_rate_finetune = nan\n", "learning_rate_finetune must be finite"),
        ("[pipeline]\nseed = -1\n", "seed must be nonnegative"),
        ("[dsp]\nhop = 0\n", "frame_len and hop must be at least 1"),
    ], ids=["snrs_db", "noise_categories", "fft_size", "learning_rate_finetune", "seed", "hop"])
    def test_repeated_config_value_exits_two(self, tmp_path, text, repeated, capsys):
        # also a value a nested config refuses; either way the message names the file
        cfg_file = tmp_path / "twice.cfg"
        cfg_file.write_text(text)
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--config", str(cfg_file)])
        assert exc.value.code == 2
        assert f"{cfg_file}: {repeated}" in capsys.readouterr().err


class TestConfigFile:
    def test_values_parse_into_their_fields(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "[pipeline]\nseed = 11\ntest_fraction = 0.3\n"
            "[audio]\nsnrs_db = -5, 0, 12.5\n"
            "[dsp]\nn_mels = 30\nfmax_hz =\n"
            "[dbn]\nhidden_sizes = 64, 64, 128\nmomentum = 0.85\n"
        )
        config = load_config(cfg_file)
        assert config.snrs_db == (-5.0, 0.0, 12.5)
        assert config.mfcc.n_mels == 30
        assert config.mfcc.fmax_hz is None
        assert config.train.momentum == 0.85

    def test_empty_config_is_reference_protocol(self, tmp_path):
        cfg_file = tmp_path / "empty.cfg"
        cfg_file.write_text("")
        assert load_config(cfg_file) == RunConfig()

    def test_every_settable_field_has_exactly_one_key(self):
        nested = ("mfcc", "segment", "train")
        config = RunConfig()
        settable = {f.name for f in fields(config) if f.name not in nested}
        for block in nested:
            settable |= {f"{block}.{f.name}" for f in fields(getattr(config, block))}
        targets = [target for keys in _SCHEMA.values() for target, _ in keys.values()]
        assert len(targets) == len(set(targets))
        assert set(targets) == settable


@pytest.fixture()
def tiny_run_args(tmp_path, tone_corpus):
    clean_dir, noise_dir = tone_corpus
    work = tmp_path / "work"
    return [
        "--clean-dir", str(clean_dir),
        "--noise-dir", str(noise_dir),
        "--work-dir", str(work),
        "--snrs", "0",
        "--hidden-sizes", "12,12,16",
        "--epochs-pretrain", "1",
        "--epochs-finetune", "2",
    ], work


class TestDispatch:
    def test_successful_run_exits_zero(self, tiny_run_args, capsys):
        extra, work = tiny_run_args
        assert main(["run", *extra]) == 0
        assert (work / "report.csv").exists()
        captured = capsys.readouterr()
        assert captured.out == ""  # progress goes to stderr only
        assert "report" in captured.err

    def test_missing_clean_dir_exits_one(self, tmp_path, capsys):
        code = main(
            ["prepare", "--clean-dir", str(tmp_path / "absent"),
             "--work-dir", str(tmp_path / "w")]
        )
        assert code == 1
        assert "absent" in capsys.readouterr().err

    def test_report_print_writes_stdout(self, tiny_run_args, capsys):
        extra, work = tiny_run_args
        assert main(["run", *extra]) == 0
        capsys.readouterr()
        assert main(["report", "--print", *extra]) == 0
        out = capsys.readouterr().out
        assert out.startswith("condition,snr_db,")

    def test_report_without_file_exits_one(self, tmp_path, capsys):
        code = main(["report", "--work-dir", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_report_in_missing_work_dir_creates_nothing(self, tmp_path, capsys):
        work = tmp_path / "missing"
        assert main(["report", "--work-dir", str(work)]) == 1
        assert "error" in capsys.readouterr().err
        assert not work.exists()

    def test_report_with_malformed_row_exits_one(self, tmp_path, capsys):
        (tmp_path / "report.csv").write_text(
            "condition,snr_db,segment_accuracy,utterance_accuracy,"
            "clean_utterance_accuracy,delta_percent,band\nclean,,0.5\n\n"
        )
        assert main(["report", "--work-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 2: expected 7 fields, found 3" in err

    def test_report_without_a_valid_clean_row_exits_one(self, tmp_path, capsys):
        (tmp_path / "report.csv").write_text(
            "condition,snr_db,segment_accuracy,utterance_accuracy,"
            "clean_utterance_accuracy,delta_percent,band\nwhite,abc,x,y,z,w,??\n"
        )
        assert main(["report", "--work-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 2: expected the clean row" in err

    def test_train_on_malformed_manifest_exits_one(self, tmp_path, capsys):
        (tmp_path / "manifest.csv").write_text("path,label,speaker,split\nx.wav,ANGRY,03,train\n")
        assert main(["train", "--work-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown label 'ANGRY'" in err

    def test_evaluate_with_nonfinite_model_exits_one(self, tiny_run_args, capsys):
        extra, work = tiny_run_args
        assert main(["prepare", *extra]) == 0
        assert main(["train", *extra]) == 0
        model = load_model(work / "model.dbn")
        model.softmax_weights[0, 0] = np.nan
        model.input_std = np.zeros_like(model.input_std)
        save_model(model, work / "model.dbn")
        capsys.readouterr()
        assert main(["evaluate", *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "softmax head must be finite" in err
        assert not (work / "report.csv").exists()

    def test_evaluate_with_nine_label_model_exits_one(self, tiny_run_args, capsys):
        # a well-formed model file, next to a matching model.key, whose head scores
        # 9 classes and predicts the last, which a 7x7 confusion matrix has no column for
        extra, work = tiny_run_args
        assert main(["train", *extra]) == 0
        model = load_model(work / "model.dbn")
        top = model.softmax_weights.shape[0]
        save_model(replace(model, softmax_weights=np.zeros((top, 9), np.float32),
                           softmax_bias=np.eye(9, dtype=np.float32)[8]), work / "model.dbn")
        capsys.readouterr()
        assert main(["evaluate", *extra]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {work / 'model.dbn'}: model has no layers or not 7 labels")
        assert not (work / "report.csv").exists()

    @pytest.mark.parametrize("stage, split, noise_file, message", [
        ("train", "test", "ch01.wav", "manifest has no training utterances"),
        ("evaluate", "train", "ch01.wav", "manifest has no test utterances"),
        ("evaluate", "test", "notes.txt", "noise category 'hum' contains no WAV files"),
    ], ids=["no_train_rows", "no_test_rows", "no_noise_wav"])
    def test_unusable_input_exits_one(self, tmp_path, capsys, stage, split, noise_file, message):
        # each refusal is raised before any WAV is read
        (tmp_path / "manifest.csv").write_text(
            f"path,label,speaker,split\nx.wav,anger,03,{split}\n")
        (tmp_path / "noise" / "hum").mkdir(parents=True)
        (tmp_path / "noise" / "hum" / noise_file).write_bytes(b"")
        assert main([stage, "--work-dir", str(tmp_path),
                     "--noise-dir", str(tmp_path / "noise")]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"

    @pytest.mark.parametrize("split, stage", [("train", "train"), ("test", "evaluate")])
    def test_short_utterance_error_names_its_wav(self, tmp_path, capsys, split, stage):
        clean_dir, noise_dir = build_tone_corpus(tmp_path / "corpus", n_speakers=2)
        work = tmp_path / "work"
        extra = ["--clean-dir", str(clean_dir), "--noise-dir", str(noise_dir),
                 "--work-dir", str(work), "--snrs", "0", "--hidden-sizes", "8",
                 "--epochs-pretrain", "0", "--epochs-finetune", "0"]
        assert main(["train", *extra]) == 0
        short = next(e.path for e in read_manifest(work / "manifest.csv") if e.split == split)
        write_wav(AudioClip(np.full(100, 0.1), 16000), short)
        capsys.readouterr()
        assert main([stage, *extra]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {short}: clip of 100 samples is shorter than one frame (400)"
        )

    def test_empty_noise_file_exits_one(self, tiny_run_args, tmp_path, capsys):
        extra, work = tiny_run_args
        empty = tmp_path / "noise" / "silence" / "ch01.wav"
        empty.parent.mkdir(parents=True)
        write_wav(AudioClip(np.zeros(0), 16000), empty)
        assert main(["run", *extra, "--noise-dir", str(tmp_path / "noise")]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"error: noise file {empty} has no samples at 16000 Hz"
        assert not (work / "report.csv").exists()

    def test_evaluate_without_model_exits_one(self, tiny_run_args, capsys):
        extra, work = tiny_run_args
        code = main(["evaluate", *extra])
        assert code == 1
        assert "train" in capsys.readouterr().err


# 40 two-second clips through the MFCC front end; prints the minor faults the loop took
_MFCC_LOOP = """
import resource, sys
import numpy as np
from emonoise import cli
from emonoise.audio import AudioClip
from emonoise.dsp import MfccConfig, mfcc
if sys.argv[1] == "keep":
    cli._keep_freed_heap()
rng = np.random.default_rng(0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(40):
    mfcc(AudioClip(0.1 * rng.standard_normal(32000), 16000), MfccConfig())
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestAllocator:
    def test_main_sets_the_thresholds_before_parsing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_heap", lambda: calls.append(True))
        with pytest.raises(SystemExit):
            main(["--no-such-flag"])
        assert calls == [True]

    @pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                        reason="sets glibc's allocator thresholds")
    def test_fresh_process_reuses_its_freed_heap(self):
        # with glibc's starting thresholds, each clip's freed arrays are trimmed
        # off the heap and faulted back in for the next clip
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = str(Path(emonoise.__file__).resolve().parents[1])
        faults = {
            mode: int(subprocess.run([sys.executable, "-c", _MFCC_LOOP, mode], env=env,
                                     capture_output=True, text=True, check=True).stdout)
            for mode in ("keep", "default")
        }
        assert faults["keep"] * 4 < faults["default"], faults


def run_without_site_packages(*args, cwd):
    """``python -S -m emonoise.cli ARGS``: with no site-packages on the path, numpy cannot load."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(Path(emonoise.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-S", "-m", "emonoise.cli", *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


class TestStagesWithoutNumpy:
    def test_prepare_writes_the_in_process_manifest(self, tone_corpus, tmp_path):
        clean_dir, _ = tone_corpus
        done = run_without_site_packages("prepare", "--clean-dir", str(clean_dir),
                                         "--work-dir", str(tmp_path / "cli"), cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        pipeline.prepare(RunConfig(clean_dir=str(clean_dir), work_dir=str(tmp_path / "lib")))
        written = (tmp_path / "cli" / "manifest.csv").read_bytes()
        assert written == (tmp_path / "lib" / "manifest.csv").read_bytes()

    def test_help_exits_zero(self, tmp_path):
        done = run_without_site_packages("--help", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert "prepare" in done.stdout

    def test_missing_config_file_exits_two(self, tmp_path):
        done = run_without_site_packages("prepare", "--config", str(tmp_path / "absent.ini"),
                                         cwd=tmp_path)
        assert done.returncode == 2, done.stderr
        assert "cannot read config file" in done.stderr
