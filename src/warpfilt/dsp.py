"""Core signal-processing primitives: pre-emphasis, framing, windowing, spectra, DCT."""

from dataclasses import dataclass

import numpy as np


@dataclass
class AudioSegment:
    """Mono waveform with samples nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int
    id: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")

    def __len__(self):
        return self.samples.shape[0]


@dataclass
class PowerSpectrogram:
    """Per-frame short-time power spectra, bins 0..n_fft/2."""

    frames: np.ndarray  # n_frames x K
    n_fft: int
    sample_rate_hz: int

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[1] != self.n_fft // 2 + 1:
            raise ValueError("spectrogram shape must be n_frames x (n_fft/2 + 1)")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_bins(self) -> int:
        return self.frames.shape[1]

    @property
    def bin_hz(self) -> float:
        return self.sample_rate_hz / self.n_fft


def pre_emphasize(x: AudioSegment, alpha: float = 0.97) -> AudioSegment:
    """First-order pre-emphasis y[n] = x[n] - alpha*x[n-1], y[0] = x[0]."""
    if len(x) == 0:
        raise ValueError("empty signal")
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must be in [0, 1)")
    s = x.samples
    y = np.concatenate(([s[0]], s[1:] - alpha * s[:-1]))
    return AudioSegment(y, x.sample_rate_hz, x.id)


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


def power_spectrum(
    frames: np.ndarray, n_fft: int, window: np.ndarray, sample_rate_hz: int
) -> PowerSpectrogram:
    """|FFT(window * frame)|^2 over bins 0..n_fft/2, frames zero-padded to n_fft."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    frame_len = frames.shape[1]
    if n_fft < frame_len:
        raise ValueError("fft too short")
    if n_fft & (n_fft - 1) != 0:
        raise ValueError("n_fft must be a power of two")
    window = np.asarray(window, dtype=np.float64)
    if window.shape != (frame_len,):
        raise ValueError("window length must equal frame length")
    spec = np.abs(np.fft.rfft(frames * window, n_fft)) ** 2
    return PowerSpectrogram(spec, n_fft, sample_rate_hz)


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
