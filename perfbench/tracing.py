"""Span tracing for the benchmark's traced runs, and the launcher that uses it.

Run as ``python3 perfbench/tracing.py SPANS_JSON STAGE [cli args...]``: it
wraps the public functions of ``audio``, ``dsp``, ``dbn`` and ``pipeline``
where they are called, runs ``emonoise.cli.main`` on the remaining
arguments, and writes the recorded spans to SPANS_JSON when the stage ends.

``pipeline`` binds ``mfcc``, ``resample``, ``forward`` and the rest by name
at import, so they are wrapped in the ``pipeline`` namespace; wrapping
``dsp.mfcc`` alone would see nothing. Inside ``dbn`` only ``train_rbm`` and
``cd_update`` are wrapped, because ``pretrain_dbn`` and ``train_rbm`` call
them by their module-global names. A name that no longer exists is recorded
as absent rather than raising.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps


# (module, attribute, span name, attrs(args, result) -> dict)
TRACE_POINTS = (
    ("pipeline", "prepare", "pipeline.prepare", None),
    ("pipeline", "train_model", "pipeline.train_model", None),
    ("pipeline", "evaluate_experiment", "pipeline.evaluate_experiment", None),
    ("pipeline", "evaluate", "pipeline.evaluate", None),
    ("pipeline", "load_noise", "pipeline.load_noise", lambda a, r: {"category": a[1]}),
    ("pipeline", "read_wav", "audio.read_wav", None),
    ("pipeline", "resample", "audio.resample", lambda a, r: {"out_samples": len(r)}),
    ("pipeline", "mix_at_snr", "audio.mix_at_snr", None),
    ("pipeline", "mfcc", "dsp.mfcc", lambda a, r: {"frames": len(r)}),
    ("pipeline", "segment_features", "dsp.segment_features", lambda a, r: {"segments": len(r)}),
    ("pipeline", "pretrain_dbn", "dbn.pretrain_dbn", None),
    ("dbn", "train_rbm", "dbn.train_rbm", lambda a, r: {
        "n": int(a[1].shape[0]), "v": int(r.weights.shape[0]), "h": int(r.weights.shape[1]),
        "epochs": int(a[2].epochs_pretrain), "cd_steps": int(a[2].cd_steps),
    }),
    ("dbn", "cd_update", "dbn.cd_update", None),
    ("pipeline", "fine_tune", "dbn.fine_tune", lambda a, r: {
        "n": int(a[1].shape[0]), "epochs": int(a[3].epochs_finetune),
        "sum_vh": int(sum(rbm.weights.size for rbm in r.rbms) + r.softmax_weights.size),
    }),
    ("pipeline", "forward", "dbn.forward", lambda a, r: {"rows": len(r)}),
    ("pipeline", "save_model", "dbn.save_model", None),
    ("pipeline", "load_model", "dbn.load_model", None),
)


class Tracer:
    """Records nested spans in memory: name, start, end, parent id, attrs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._open: list[int] = []

    def wrap(self, namespace, attr: str, name: str, attrs=None) -> None:
        """Replace ``namespace.attr`` by a spanning wrapper, or note it absent."""
        fn = getattr(namespace, attr, None)
        if not callable(fn):
            self.absent.append(name)
            return

        @wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None,
                    "start": self.clock(), "end": None}
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._open.pop()
            if attrs is not None:
                try:
                    span.update(attrs(args, result))
                except (AttributeError, IndexError, TypeError):
                    span["attrs_missing"] = True
            return result

        setattr(namespace, attr, traced)

    def install(self, modules: dict) -> None:
        for module_name, attr, name, attrs in TRACE_POINTS:
            self.wrap(modules[module_name], attr, name, attrs)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from emonoise import cli, dbn, pipeline

    tracer = Tracer()
    tracer.install({"pipeline": pipeline, "dbn": dbn})
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
