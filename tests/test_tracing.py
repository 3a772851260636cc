"""The benchmark tracer still finds every name it wraps, and every span it records.

``perfbench/tracing.py`` wraps functions by module-global name and reads
some of their arguments by position, so a rename or a changed signature
would silently drop per-layer metrics. This test only reads that file.
"""

import importlib.util
from pathlib import Path

from conftest import build_tone_corpus
from emonoise import dbn, pipeline
from emonoise.config import RunConfig
from emonoise.dbn import TrainConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_records_every_span(tmp_path, monkeypatch):
    tracing = load_tracing()
    modules = {"pipeline": pipeline, "dbn": dbn}
    for module_name, attr, _, _ in tracing.TRACE_POINTS:
        # registered with monkeypatch so the wrappers are undone afterwards
        if hasattr(modules[module_name], attr):
            monkeypatch.setattr(modules[module_name], attr, getattr(modules[module_name], attr))
    tracer = tracing.Tracer()
    tracer.install(modules)

    # 22.05 kHz audio, so loading resamples to the 16 kHz pipeline rate
    clean_dir, noise_dir = build_tone_corpus(tmp_path / "corpus", n_speakers=3,
                                             sample_rate=22050, duration=0.3)
    config = RunConfig(
        clean_dir=str(clean_dir), noise_dir=str(noise_dir), work_dir=str(tmp_path / "work"),
        snrs_db=(0.0,), hidden_sizes=(4, 4), seed=1,
        train=TrainConfig(epochs_pretrain=1, epochs_finetune=1),
    )
    pipeline.run_experiment(config)

    assert tracer.absent == []
    recorded = {span["name"] for span in tracer.spans}
    assert {name for _, _, name, _ in tracing.TRACE_POINTS} <= recorded
    assert [span["name"] for span in tracer.spans if span.get("attrs_missing")] == []
