"""Cepstral feature extraction: filterbank log-energies, DCT, RASTA, deltas, CMVN."""

from dataclasses import dataclass

import numpy as np

from .dsp import (  # FeatureConfig is re-exported: warpfilt.features.FeatureConfig
    AudioSegment,
    FeatureConfig,
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
DELTA_WINDOW = 2  # half-width, in frames, of the delta and double-delta regression


@dataclass
class FeatureMatrix:
    """Per-frame feature vectors with a speech/non-speech mask."""

    vectors: np.ndarray
    mask: np.ndarray

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


def filterbank_log_energies(spec: np.ndarray, fb: Filterbank) -> np.ndarray:
    """log(power . response + eps) per frame (a row of spec) and filter.

    PCA-learned responses may carry small negative components, so the energy
    sum is clamped at zero before the log to keep the pipeline total.
    """
    if spec.shape[-1] != fb.n_bins:
        raise ValueError("spectrogram and filterbank disagree on bin count")
    return np.log(np.maximum(spec @ fb.responses.T, 0.0) + ENERGY_EPS)


def cepstra(log_energies: np.ndarray, n_ceps: int) -> np.ndarray:
    """Orthonormal DCT-II per frame, keeping coefficients 1..n_ceps (c0 dropped)."""
    log_energies = np.atleast_2d(np.asarray(log_energies, dtype=np.float64))
    q = log_energies.shape[1]
    if n_ceps > q - 1:
        raise ValueError("n_ceps must be <= Q - 1")
    return dct_ii_ortho(log_energies, n_ceps + 1)[:, 1:]


def rasta_filter(trajectories: np.ndarray) -> np.ndarray:
    """RASTA band-pass applied independently to each coefficient trajectory.

    Zero initial state. The FIR part u[k] = sum_i RASTA_NUM[i] * x[k - i] is
    summed for all frames at once. The one-pole recursion y[k] = u[k] + 0.98 * y[k - 1]
    then runs as a log-step prefix scan (Blelloch 1990): after the step of span
    s, y[k] holds the sum of 0.98**j * u[k - j] over j < 2s, so ceil(log2(n))
    array steps finish it. The output is within 1e-12 of max|y| of
    scipy.signal.lfilter(RASTA_NUM, RASTA_DEN, x, axis=0), not bit-identical.
    """
    x = np.atleast_2d(np.asarray(trajectories, dtype=np.float64))
    n = x.shape[0]
    past = np.concatenate([np.zeros((4, x.shape[1])), x])  # past[k + 4 - i] = x[k - i]
    y = sum(b * past[4 - i : 4 - i + n] for i, b in enumerate(RASTA_NUM))
    s = 1
    while s < n:
        y[s:] += (-RASTA_DEN[1]) ** s * y[:-s]
        s *= 2
    return y


def append_deltas(base: np.ndarray) -> np.ndarray:
    """Deltas and double-deltas over +-DELTA_WINDOW edge-repeated frames, appended: [base | d | dd]."""
    base = np.atleast_2d(np.asarray(base, dtype=np.float64))
    w = DELTA_WINDOW

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


def _select_frames(x: AudioSegment, cfg: FeatureConfig, voicing: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The pre-emphasised frames of one utterance and their mask: the bi-Gaussian SAD, ANDed with voicing if set."""
    frames = frame_signal(pre_emphasize(x, cfg.preemph), cfg.frame_ms, cfg.hop_ms)
    if not voicing:
        return frames, bi_gaussian_sad(frame_log_energy(frames))
    return frames, voiced_mask(frames, x.sample_rate_hz, cfg)


def utterance_spectra(x: AudioSegment, cfg: FeatureConfig, n_fft: int, voicing: bool = False) -> np.ndarray:
    """Hamming-windowed n_fft-point power spectra of the frames _select_frames keeps; zero rows if it keeps none."""
    frames, mask = _select_frames(x, cfg, voicing)
    return power_spectrum(frames[mask], n_fft, hamming_window(frames.shape[1]))


def extract_features(x: AudioSegment, fb: Filterbank, cfg: FeatureConfig) -> FeatureMatrix:
    """Full per-utterance pipeline from waveform to masked, normalized features."""
    if x.sample_rate_hz != fb.layout.sample_rate_hz:
        raise ValueError("sample rate of utterance and filterbank must match")
    # Every frame, not only the selected ones: RASTA and the deltas run over the whole trajectory.
    frames, mask = _select_frames(x, cfg)
    spec = power_spectrum(frames, fb.layout.n_fft, hamming_window(frames.shape[1]))
    coeffs = cepstra(filterbank_log_energies(spec, fb), cfg.n_ceps)
    if cfg.rasta_enabled:
        coeffs = rasta_filter(coeffs)
    vectors = append_deltas(coeffs)
    if cfg.cmvn_enabled:
        vectors = cmvn(vectors, mask)
    return FeatureMatrix(vectors, mask)
