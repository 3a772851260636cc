"""Emotion classification from noise-corrupted speech.

Clean utterances are mixed with environmental noise at controlled SNRs,
converted to 13-coefficient MFCC segment vectors, and classified into seven
emotions by a deep belief network of stacked RBMs; results are reported as
the clean-vs-noisy accuracy difference per noise condition.

The package exports what a script needs to run the protocol; everything
else is imported from its module (``emonoise.dbn``, ``emonoise.dsp``, ...).
The exports from ``pipeline`` are imported on first use (PEP 562), so that
importing the package, or running the ``prepare`` stage, does not load
numpy.
"""

from .config import RunConfig, load_config
from .manifest import prepare

__version__ = "0.1.0"

_PIPELINE_EXPORTS = ("evaluate_experiment", "run_experiment", "train_model")


def __getattr__(name: str):
    if name in _PIPELINE_EXPORTS:
        from . import pipeline

        return getattr(pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
