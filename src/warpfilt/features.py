"""Cepstral feature extraction: filterbank log-energies, DCT, RASTA, deltas, CMVN."""

from dataclasses import dataclass

import numpy as np

from .dsp import (  # FeatureConfig is re-exported: warpfilt.features.FeatureConfig
    AudioSegment,
    FeatureConfig,
    PowerSpectrogram,
    dct_ii_ortho,
    frame_signal,
    hamming_window,
    power_spectrum,
    pre_emphasize,
)
from .filterbank import Filterbank
from .sad import ENERGY_EPS, bi_gaussian_sad, frame_log_energy, voiced_mask

# Classic RASTA band-pass: 0.1*(2 + z^-1 - z^-3 - 2 z^-4) / (1 - 0.98 z^-1).
RASTA_NUM = 0.1 * np.array([2.0, 1.0, 0.0, -1.0, -2.0])
RASTA_DEN = np.array([1.0, -0.98])


@dataclass
class FeatureMatrix:
    """Per-frame feature vectors with a speech/non-speech mask."""

    vectors: np.ndarray
    mask: np.ndarray
    utterance_id: str = ""

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be two-dimensional")
        if self.mask.shape != (self.vectors.shape[0],):
            raise ValueError("mask length must equal the frame count")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("feature vectors must be finite")

    @property
    def n_frames(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def speech_frames(self) -> np.ndarray:
        return self.vectors[self.mask]


def filterbank_log_energies(spec: PowerSpectrogram, fb: Filterbank) -> np.ndarray:
    """log(power . response + eps) per frame and filter.

    PCA-learned responses may carry small negative components, so the energy
    sum is clamped at zero before the log to keep the pipeline total.
    """
    if spec.n_bins != fb.n_bins:
        raise ValueError("spectrogram and filterbank disagree on bin count")
    return np.log(np.maximum(spec.frames @ fb.responses.T, 0.0) + ENERGY_EPS)


def cepstra(log_energies: np.ndarray, n_ceps: int) -> np.ndarray:
    """Orthonormal DCT-II per frame, keeping coefficients 1..n_ceps (c0 dropped)."""
    log_energies = np.atleast_2d(np.asarray(log_energies, dtype=np.float64))
    q = log_energies.shape[1]
    if n_ceps > q - 1:
        raise ValueError("n_ceps must be <= Q - 1")
    return dct_ii_ortho(log_energies, n_ceps + 1)[:, 1:]


def rasta_filter(trajectories: np.ndarray) -> np.ndarray:
    """RASTA band-pass applied independently to each coefficient trajectory.

    Direct form II transposed with zero initial state, in the operation order
    of scipy.signal.lfilter(RASTA_NUM, RASTA_DEN, x, axis=0), so the output is
    bit-identical to it. Only the first delay state has a feedback term, so the
    FIR parts of the four states are summed for all frames at once and only
    the one-pole recursion loops over frames. lfilter also subtracts y * 0
    from the other three states. That can only change the sign of a zero
    state, which could reach the output only through an output of -0.0; none
    occurs, since y[0] = 0.0 + b0 * x[0] is not -0.0 and each -0.0 output
    would need a -0.0 output before it.
    """
    x = np.atleast_2d(np.asarray(trajectories, dtype=np.float64))
    n = x.shape[0]
    b0, b1, b2, b3, b4 = RASTA_NUM
    a1 = RASTA_DEN[1]
    past = np.concatenate([np.zeros((3, x.shape[1])), x])  # past[k + 3 - i] = x[k - i]
    fir = ((b4 * past[:n] + b3 * past[1 : n + 1]) + b2 * past[2 : n + 2]) + b1 * x
    b0x = b0 * x
    y = np.empty_like(x)
    state = np.zeros(x.shape[1])
    for k in range(n):
        y[k] = state + b0x[k]
        state = fir[k] - y[k] * a1
    return y


def append_deltas(base: np.ndarray, w: int = 2) -> np.ndarray:
    """Regression deltas and double-deltas appended column-wise: [base | d | dd]."""
    base = np.atleast_2d(np.asarray(base, dtype=np.float64))
    if w < 1:
        raise ValueError("delta window must be >= 1")

    def delta(x):
        padded = np.pad(x, ((w, w), (0, 0)), mode="edge")
        num = sum(t * (padded[w + t : padded.shape[0] - w + t] - padded[w - t : -w - t]) for t in range(1, w + 1))
        return num / (2.0 * sum(t * t for t in range(1, w + 1)))

    d = delta(base)
    return np.hstack([base, d, delta(d)])


def cmvn(features: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Standardize every column using mean/std over masked frames only."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (features.shape[0],):
        raise ValueError("mask length must equal the frame count")
    selected = features[mask]
    if selected.shape[0] < 2:
        raise ValueError("CMVN needs at least two selected frames")
    mean = selected.mean(axis=0)
    std = selected.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return (features - mean) / std


def utterance_spectra(
    x: AudioSegment, cfg: FeatureConfig, n_fft: int, voicing: bool = False
) -> tuple[PowerSpectrogram, np.ndarray]:
    """The front end of one utterance: its power spectra and the mask of frames to use.

    Pre-emphasis, framing, a Hamming window and n_fft-point power spectra. The mask
    is the bi-Gaussian SAD, ANDed with voicing in cfg's pitch band when voicing is set.
    """
    emphasized = pre_emphasize(x, cfg.preemph)
    frames = frame_signal(emphasized, cfg.frame_ms, cfg.hop_ms)
    spec = power_spectrum(frames, n_fft, hamming_window(frames.shape[1]), x.sample_rate_hz)
    if not voicing:
        return spec, bi_gaussian_sad(frame_log_energy(frames))
    return spec, voiced_mask(frames, x.sample_rate_hz, cfg)


def extract_features(x: AudioSegment, fb: Filterbank, cfg: FeatureConfig) -> FeatureMatrix:
    """Full per-utterance pipeline from waveform to masked, normalized features."""
    if x.sample_rate_hz != fb.layout.sample_rate_hz:
        raise ValueError("sample rate of utterance and filterbank must match")
    spec, mask = utterance_spectra(x, cfg, fb.layout.n_fft)
    coeffs = cepstra(filterbank_log_energies(spec, fb), cfg.n_ceps)
    if cfg.rasta_enabled:
        coeffs = rasta_filter(coeffs)
    vectors = append_deltas(coeffs, cfg.delta_window)
    if cfg.cmvn_enabled:
        vectors = cmvn(vectors, mask)
    return FeatureMatrix(vectors, mask, x.id)
