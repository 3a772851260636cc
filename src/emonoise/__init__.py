"""Emotion classification from noise-corrupted speech.

Clean utterances are mixed with environmental noise at controlled SNRs,
converted to 13-coefficient MFCC segment vectors, and classified into seven
emotions by a deep belief network of stacked RBMs; results are reported as
the clean-vs-noisy accuracy difference per noise condition.
"""

from .audio import AudioClip, WavFormatError, mix_at_snr, read_wav, resample, rms, write_wav
from .config import RunConfig, load_config
from .dbn import (
    Dbn,
    ModelFormatError,
    Rbm,
    RbmState,
    TrainConfig,
    cd_update,
    fine_tune,
    fit_standardization,
    forward,
    free_energy,
    hidden_probs,
    load_model,
    pretrain_dbn,
    save_model,
    visible_recon,
)
from .dsp import MfccConfig, SegmentConfig, dct2, frame_signal, hz_to_mel, mel_filterbank, mel_to_hz, mfcc, segment_features
from .pipeline import (
    EvalReport,
    Label,
    ManifestEntry,
    accuracy_delta,
    band,
    build_manifest,
    evaluate,
    majority_vote,
    run_experiment,
    split,
)

__version__ = "0.1.0"
