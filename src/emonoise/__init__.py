"""Emotion classification from noise-corrupted speech.

Clean utterances are mixed with environmental noise at controlled SNRs,
converted to 13-coefficient MFCC segment vectors, and classified into seven
emotions by a deep belief network of stacked RBMs; results are reported as
the clean-vs-noisy accuracy difference per noise condition.

The package exports what a script needs to run the protocol; everything
else is imported from its module (``emonoise.dbn``, ``emonoise.dsp``, ...).
"""

from .config import RunConfig, load_config
from .pipeline import evaluate_experiment, prepare, run_experiment, train_model

__version__ = "0.1.0"
