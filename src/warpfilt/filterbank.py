"""Filter placement on a warping scale and PCA-learned filter frequency responses."""

import logging
from dataclasses import dataclass

import numpy as np

from .dsp import _brief, hamming_window
from .scale import WarpingScale

logger = logging.getLogger(__name__)

# The --shape flag of each filter shape kind, flag -> kind.
SHAPE_KINDS = {"tri": "triangular", "pca": "pca", "wpca": "windowed-pca", "wpca-norm": "windowed-pca-normalized"}

_BLOCK_FRAMES = 8192
_BLOCK_BYTES = 64 << 20


@dataclass
class FilterbankLayout:
    """Q+2 boundary bins; filter j spans boundaries j-1..j+1 with center at j."""

    boundary_bins: np.ndarray
    sample_rate_hz: int
    n_fft: int

    def __post_init__(self):
        self.boundary_bins = np.asarray(self.boundary_bins, dtype=np.int64)
        k = self.n_bins
        b = self.boundary_bins
        if b.size < 3:
            raise ValueError("layout needs at least three boundaries")
        if b[0] != 0 or b[-1] != k - 1 or np.any(np.diff(b) <= 0):
            raise ValueError("boundaries must rise strictly from 0 to K-1")

    @property
    def n_filters(self) -> int:
        return self.boundary_bins.size - 2

    @property
    def n_bins(self) -> int:
        return self.n_fft // 2 + 1

    @property
    def bin_hz(self) -> float:
        return self.sample_rate_hz / self.n_fft

    def subband(self, j: int) -> tuple[int, int]:
        """Inclusive bin range of filter j (1-based)."""
        return int(self.boundary_bins[j - 1]), int(self.boundary_bins[j + 1])


@dataclass
class Filterbank:
    """Full-band frequency responses, one row per filter."""

    layout: FilterbankLayout
    responses: np.ndarray
    shape_kind: str

    def __post_init__(self):
        self.responses = np.asarray(self.responses, dtype=np.float64)
        if self.responses.shape != (self.layout.n_filters, self.layout.n_bins):
            raise ValueError("responses must be shaped n_filters x n_bins")
        if not np.isfinite(self.responses).all():
            raise ValueError("responses must be finite")
        if self.shape_kind not in SHAPE_KINDS.values():
            raise ValueError(f"unknown shape kind: {_brief(self.shape_kind)}")

    @property
    def n_filters(self) -> int:
        return self.layout.n_filters

    @property
    def n_bins(self) -> int:
        return self.layout.n_bins


def check_n_filters(q: int, n_fft: int):
    """The filter-count limit: Q filters need Q + 2 distinct boundary bins of the n_fft/2 + 1."""
    k = n_fft // 2 + 1
    if q < 1:
        raise ValueError("need at least one filter")
    if k < q + 2:
        raise ValueError(f"too few bins: n_filters {_brief(q)} needs {_brief(q + 2)}, n_fft {n_fft} gives {k}")


def place_filter_edges(
    scale: WarpingScale, q: int, n_fft: int, sample_rate_hz: int
) -> FilterbankLayout:
    """Boundary bins at equidistant warped points j/(Q+1), j = 0..Q+1."""
    check_n_filters(q, n_fft)
    k = n_fft // 2 + 1
    bin_hz = sample_rate_hz / n_fft
    j = np.arange(q + 2)
    bins = np.rint(scale.inverse(j / (q + 1)) / bin_hz).astype(np.int64)
    bins[0] = 0
    # Collisions advance one bin, but never into the bins later boundaries need: a capped running max of bins - j.
    bins = np.minimum(np.maximum.accumulate(bins - j), k - 2 - q) + j
    bins[-1] = k - 1
    return FilterbankLayout(bins, sample_rate_hz, n_fft)


def triangular_responses(layout: FilterbankLayout) -> Filterbank:
    """Unit-peak triangles rising over [b_{j-1}, b_j] and falling over [b_j, b_{j+1}]."""
    b = layout.boundary_bins
    lo, mid, hi = b[:-2, None], b[1:-1, None], b[2:, None]
    k = np.arange(layout.n_bins)
    responses = np.maximum(np.minimum((k - lo) / (mid - lo), (hi - k) / (hi - mid)), 0.0)
    return Filterbank(layout, responses, "triangular")


def subband_covariance(log_spectra, layout: FilterbankLayout) -> list[np.ndarray]:
    """Sample covariance of every subband of a layout, one per filter.

    log_spectra is an iterable of batches of log spectra, one frame per row; one batch
    per utterance, say. Rows are copied into a block of _BLOCK_FRAMES rows, or of _BLOCK_BYTES
    if fewer (at least 2). Each full block is centred once, in place, on its mean, every subband
    scatter is taken from it, and it is merged into one full-band running mean with the pairwise
    update of Chan, Golub & LeVeque (1979). So the result depends on the rows and the block size,
    not on how the rows were split into batches, and memory holds one block, not the corpus. Up
    to one block of rows gives the two-pass covariance exactly.
    """
    bands = [layout.subband(j) for j in range(1, layout.n_filters + 1)]
    mean = np.zeros(layout.n_bins)
    scatters = [0.0] * len(bands)
    block = np.empty((max(2, min(_BLOCK_FRAMES, _BLOCK_BYTES // (8 * layout.n_bins))), layout.n_bins))
    filled = folded = 0

    def fold():
        rows = block[:filled]
        n = folded + filled
        block_mean = rows.mean(axis=0)
        rows -= block_mean
        delta = block_mean - mean
        mean[:] += delta * (filled / n)
        for j, (lo, hi) in enumerate(bands):
            sliced, d = rows[:, lo : hi + 1], delta[lo : hi + 1]
            scatters[j] = scatters[j] + sliced.T @ sliced
            if folded:
                scatters[j] += np.outer(d, d) * (folded * filled / n)
        return n

    for batch in log_spectra:
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        if batch.shape[1] != layout.n_bins:
            raise ValueError("log spectra width must equal the layout bin count")
        start = 0
        while start < batch.shape[0]:
            take = min(batch.shape[0] - start, block.shape[0] - filled)
            block[filled : filled + take] = batch[start : start + take]
            filled += take
            start += take
            if filled == block.shape[0]:
                folded, filled = fold(), 0
    if folded + filled < 2:
        raise ValueError("need >=2 frames")
    if filled:
        folded = fold()
    return [scatter / (folded - 1) for scatter in scatters]


def pca_first_basis(s: np.ndarray) -> np.ndarray:
    """Unit-norm eigenvector of the largest eigenvalue of a symmetric matrix.

    The sign is fixed so the component sum is non-negative.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 1:
        raise ValueError("matrix must be square and non-empty")
    s = 0.5 * (s + s.T)
    if not np.any(s):
        raise ValueError("degenerate subband")
    v = np.linalg.eigh(s)[1][:, -1]
    if v.sum() < 0.0:
        v = -v
    return v


def learn_pca_filterbank(log_spectra, layout: FilterbankLayout, kind: str) -> Filterbank:
    """Per-filter dominant PCA basis of subband log spectra, zero-padded to full band.

    log_spectra is an iterable of batches, as subband_covariance takes. kind is one of
    the PCA kinds in SHAPE_KINDS: the windowed kinds taper each subband with a Hamming window w,
    which turns the subband covariance C into w w^T * C elementwise, and
    "windowed-pca-normalized" scales each response to unit peak. Degenerate
    (zero-variance) subbands fall back to the triangular response.
    """
    if kind == "triangular" or kind not in SHAPE_KINDS.values():
        raise ValueError(f"not a PCA shape kind: {kind!r}")
    covariances = subband_covariance(log_spectra, layout)
    responses = np.zeros((layout.n_filters, layout.n_bins))
    for j, covariance in enumerate(covariances, start=1):
        lo, hi = layout.subband(j)
        if kind != "pca":
            w = hamming_window(hi - lo + 1)
            covariance = w[:, None] * covariance * w
        try:
            responses[j - 1, lo : hi + 1] = pca_first_basis(covariance)
        except ValueError:
            logger.warning("degenerate subband for filter %d; using triangular shape", j)
            responses[j - 1] = triangular_responses(layout).responses[j - 1]
    if kind == "windowed-pca-normalized":
        responses = responses / responses.max(axis=1, keepdims=True)
    return Filterbank(layout, responses, kind)
