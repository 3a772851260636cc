import pytest

from emonoise.cli import dispatch, main, parse_args
from emonoise.config import RunConfig, load_config, save_config, serialize_config


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
         ("--hidden-sizes", "")],
    )
    def test_bad_flag_value_exits_two(self, flag, text, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", flag, text])
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err


class TestConfigFile:
    def test_parse_serialize_parse_is_fixed_point(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "[pipeline]\nseed = 11\ntest_fraction = 0.3\n"
            "[audio]\nsnrs_db = -5, 0, 12.5\n"
            "[dsp]\nn_mels = 30\nfmax_hz =\n"
            "[dbn]\nhidden_sizes = 64, 64, 128\nmomentum = 0.85\n"
        )
        first = load_config(cfg_file)
        out_file = tmp_path / "round.cfg"
        save_config(first, out_file)
        second = load_config(out_file)
        assert first == second
        assert second.snrs_db == (-5.0, 0.0, 12.5)
        assert second.mfcc.n_mels == 30
        assert second.mfcc.fmax_hz is None
        assert second.train.momentum == 0.85

    def test_empty_config_is_reference_protocol(self, tmp_path):
        cfg_file = tmp_path / "empty.cfg"
        cfg_file.write_text("")
        assert load_config(cfg_file) == RunConfig()

    def test_serialize_mentions_every_section(self):
        text = serialize_config(RunConfig())
        for section in ("[pipeline]", "[audio]", "[dsp]", "[dbn]"):
            assert section in text


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

    def test_evaluate_without_model_exits_one(self, tiny_run_args, capsys):
        extra, work = tiny_run_args
        code = main(["evaluate", *extra])
        assert code == 1
        assert "train" in capsys.readouterr().err
