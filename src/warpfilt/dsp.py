"""Core signal-processing primitives: the front-end configuration, pre-emphasis,
framing, windowing, spectra, DCT."""

from dataclasses import dataclass

import numpy as np


def _brief(value) -> str:
    """repr(value), or its first 40 characters and its length when it is longer, for an error message."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


@dataclass
class FeatureConfig:
    """Front-end settings: framing, pitch band and voicing threshold, and cepstra.

    Defaults give the 57-dimensional configuration. The filter count is the
    filterbank's, and cepstra checks n_ceps against it.
    """

    frame_ms: float = 20.0
    hop_ms: float = 10.0
    n_ceps: int = 19
    rasta_enabled: bool = True
    cmvn_enabled: bool = True
    preemph: float = 0.97
    pitch_f_min_hz: float = 50.0
    pitch_f_max_hz: float = 400.0
    voicing_threshold: float = 0.5

    def __post_init__(self):
        # Comparisons written so that a NaN fails them.
        if not 0.0 < self.frame_ms < np.inf:
            raise ValueError(f"frame_ms must be positive and finite, got {_brief(self.frame_ms)}")
        if not 0.0 < self.hop_ms <= self.frame_ms:
            raise ValueError(f"hop_ms must lie in (0, frame_ms {_brief(self.frame_ms)}], got {_brief(self.hop_ms)}")
        if not 0.0 <= self.preemph < 1.0:
            raise ValueError(f"preemph must lie in [0, 1), got {_brief(self.preemph)}")
        if self.n_ceps < 1:
            raise ValueError(f"n_ceps must be >= 1, got {_brief(self.n_ceps)}")
        if not -np.inf < self.voicing_threshold < np.inf:
            raise ValueError(f"voicing_threshold must be finite, got {_brief(self.voicing_threshold)}")
        if not 0.0 < self.pitch_f_min_hz < self.pitch_f_max_hz:
            raise ValueError(
                f"pitch_f_min_hz must lie in (0, pitch_f_max_hz {_brief(self.pitch_f_max_hz)}), got {_brief(self.pitch_f_min_hz)}"
            )


@dataclass
class AudioSegment:
    """Mono waveform with samples nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")

    def __len__(self):
        return self.samples.shape[0]


def pre_emphasize(x: AudioSegment, alpha: float = 0.97) -> AudioSegment:
    """First-order pre-emphasis y[n] = x[n] - alpha*x[n-1], y[0] = x[0]."""
    if len(x) == 0:
        raise ValueError("empty signal")
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must be in [0, 1)")
    s = x.samples
    y = np.concatenate(([s[0]], s[1:] - alpha * s[:-1]))
    return AudioSegment(y, x.sample_rate_hz)


def ms_to_samples(ms: float, sample_rate_hz: int) -> int:
    """A duration in milliseconds as the nearest whole number of samples."""
    return int(round(sample_rate_hz * ms / 1000.0))


def frame_signal(x: AudioSegment, frame_ms: float, hop_ms: float) -> np.ndarray:
    """Slice a signal into overlapping frames; trailing partial frames are dropped.

    Returns an n_frames x frame_len read-only strided view of the samples, not a copy.
    """
    if not 0.0 < hop_ms <= frame_ms:
        raise ValueError("require frame_ms >= hop_ms > 0")
    frame_len = ms_to_samples(frame_ms, x.sample_rate_hz)
    hop = ms_to_samples(hop_ms, x.sample_rate_hz)
    if frame_len < 1 or hop < 1:
        raise ValueError("frame and hop must span at least one sample")
    if len(x) < frame_len:
        raise ValueError("too short")
    return np.lib.stride_tricks.sliding_window_view(x.samples, frame_len)[::hop]


def hamming_window(n: int) -> np.ndarray:
    """Symmetric Hamming window 0.54 - 0.46*cos(2*pi*m/(n-1))."""
    if n < 1:
        raise ValueError("window length must be >= 1")
    if n == 1:
        return np.ones(1)
    m = np.arange(n)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * m / (n - 1))


def power_spectrum(frames: np.ndarray, n_fft: int, window: np.ndarray) -> np.ndarray:
    """|FFT(window * frame)|^2 over bins 0..n_fft/2, frames zero-padded to n_fft: an n_frames x (n_fft/2 + 1) array."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    frame_len = frames.shape[1]
    if n_fft < frame_len:
        raise ValueError("fft too short")
    if n_fft & (n_fft - 1) != 0:
        raise ValueError("n_fft must be a power of two")
    window = np.asarray(window, dtype=np.float64)
    if window.shape != (frame_len,):
        raise ValueError("window length must equal frame length")
    return np.abs(np.fft.rfft(frames * window, n_fft)) ** 2


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    p = 1
    while p < n:
        p *= 2
    return p


def dct_ii_ortho(v: np.ndarray, n_out: int | None = None) -> np.ndarray:
    """Orthonormal DCT-II along the last axis, truncated to the first n_out coefficients.

    One product with the full q x q basis B[p, m] = s_p cos(pi p (m + 1/2) / q),
    s_0 = sqrt(1/q) and s_p = sqrt(2/q) otherwise; sliced after the product, so a
    truncated result equals the leading coefficients of the full one bit for bit.
    """
    v = np.asarray(v, dtype=np.float64)
    q = v.shape[-1]
    if q < 1:
        raise ValueError("input must have at least one element")
    if n_out is None:
        n_out = q
    if not 1 <= n_out <= q:
        raise ValueError("n_out must be in [1, len(v)]")
    p = np.arange(q)[:, None]
    basis = np.cos(np.pi * p * (np.arange(q) + 0.5) / q) * np.where(p == 0, np.sqrt(1.0 / q), np.sqrt(2.0 / q))
    return (v @ basis.T)[..., :n_out]
