"""Data-driven filterbank learning, cepstral feature extraction, and desk-scale
GMM-UBM speaker verification."""

import os

# One BLAS thread per process unless the caller chose a count: every matrix product
# here is small, so a second OpenBLAS thread only spins after each one, burning CPU
# for no speed-up (--jobs is the parallelism). OpenBLAS reads the count once, as numpy
# loads, so it is set for that import only and a host's child processes inherit none.
if not any(v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy

    del os.environ["OPENBLAS_NUM_THREADS"]

from .analysis import f_ratio, f_ratio_report
from .backend import (
    COST_PRESETS,
    DetCurve,
    GmmModel,
    Trial,
    TrialScoreSet,
    det_curve,
    eer,
    fuse_scores,
    map_adapt_means,
    min_dcf,
    score_trial,
    train_ubm,
)
from .dsp import (
    AudioSegment,
    dct_ii_ortho,
    frame_signal,
    hamming_window,
    power_spectrum,
    pre_emphasize,
)
from .features import (
    FeatureConfig,
    FeatureMatrix,
    append_deltas,
    cepstra,
    cmvn,
    extract_features,
    filterbank_log_energies,
    rasta_filter,
)
from .filterbank import (
    Filterbank,
    FilterbankLayout,
    learn_pca_filterbank,
    pca_first_basis,
    place_filter_edges,
    subband_covariance,
    triangular_responses,
)
from .sad import PitchTrack, bi_gaussian_sad, frame_log_energy, track_pitch, voiced_mask
from .scale import (
    BandPartition,
    Ltas,
    WarpingScale,
    average_ltas,
    build_warping_scale,
    compute_ltas,
    equal_area_partition,
    mel,
    mel_warping_scale,
)

__version__ = "0.1.0"
