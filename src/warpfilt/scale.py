"""Frequency warping scales: LTAS statistics, equal-area partition, mel closed form."""

import bisect
from dataclasses import dataclass

import numpy as np

from .dsp import _brief

AREA_SHIFT = 1e-6
MEL_KNOTS = 512
# The --scale flag of each scale kind, flag -> kind.
SCALE_KINDS = {"mel": "mel", "speech": "speech-based", "speech-pitch": "speech-based-pitch"}


@dataclass
class Ltas:
    """Mean short-time power spectrum over the selected frames of one source."""

    values: np.ndarray
    bin_hz: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("LTAS values must be one-dimensional")


@dataclass
class BandPartition:
    """Contiguous bands (k_l, k_h) covering [0, K-1] with near-equal log areas."""

    bands: list[tuple[int, int]]
    areas: np.ndarray


@dataclass
class WarpingScale:
    """Monotone map from linear frequency to normalized warped frequency."""

    knots_hz: np.ndarray
    knots_warped: np.ndarray
    kind: str

    def __post_init__(self):
        self.knots_hz = np.asarray(self.knots_hz, dtype=np.float64)
        self.knots_warped = np.asarray(self.knots_warped, dtype=np.float64)
        if self.kind not in SCALE_KINDS.values():
            raise ValueError(f"unknown scale kind: {_brief(self.kind)}")
        if self.knots_hz.shape != self.knots_warped.shape or self.knots_hz.ndim != 1:
            raise ValueError("knot arrays must be one-dimensional and equal-length")
        for name in ("knots_hz", "knots_warped"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if np.any(np.diff(self.knots_hz) <= 0.0) or np.any(np.diff(self.knots_warped) <= 0.0):
            raise ValueError("degenerate scale")
        if self.knots_hz[0] != 0.0 or self.knots_warped[0] != 0.0 or self.knots_warped[-1] != 1.0:
            raise ValueError("scale must span (0, 0) to (nyquist, 1)")

    @property
    def nyquist_hz(self) -> float:
        return float(self.knots_hz[-1])

    def warp(self, f_hz):
        return np.interp(f_hz, self.knots_hz, self.knots_warped)

    def inverse(self, warped):
        return np.interp(warped, self.knots_warped, self.knots_hz)


def compute_ltas(spec: np.ndarray, bin_hz: float) -> Ltas:
    """Mean power per bin over the frames (rows of spec); bin_hz is the bin spacing."""
    if spec.shape[0] == 0:
        raise ValueError("no frames selected")
    return Ltas(spec.mean(axis=0), bin_hz)


def average_ltas(ltas_list) -> Ltas:
    """Ensemble average over utterances; each utterance counts once.

    ltas_list is any iterable of Ltas, a generator say; each is folded into one running sum
    as it arrives, so memory holds one K-vector and the average is np.mean's, bit for bit."""
    total = None
    for n, item in enumerate(ltas_list, start=1):
        if total is None:
            total, bin_hz = item.values.copy(), item.bin_hz
        elif item.values.size != total.size:
            raise ValueError("mismatched LTAS lengths")
        elif item.bin_hz != bin_hz:
            raise ValueError("mismatched bin spacing")
        else:
            total += item.values
    if total is None:
        raise ValueError("empty LTAS list")
    return Ltas(total / n, bin_hz)


def _shifted_log(values: np.ndarray) -> np.ndarray:
    log_v = np.log(np.maximum(values, np.finfo(np.float64).tiny))
    return log_v - log_v.min() + AREA_SHIFT


def _end_ranges(prefix: np.ndarray, lower: float, upper: float) -> tuple[np.ndarray, np.ndarray]:
    """For each prefix point i, the range [first, stop) of points e > i whose band area is in [lower, upper].

    The bounds are widened by a few ulps of the total so that a band whose area
    is a bound, computed as a difference of prefix sums, still fits.
    """
    slack = 4.0 * np.finfo(np.float64).eps * prefix[-1]
    first = np.maximum(np.searchsorted(prefix, prefix + (lower - slack)), np.arange(1, prefix.size + 1))
    stop = np.searchsorted(prefix, prefix + (upper + slack), side="right")
    return first, stop


def _finishing(first: np.ndarray, stop: np.ndarray, q: int) -> list[np.ndarray]:
    """Masks m[j] of the prefix points from which j bands, each within the ranges, end at the last point."""
    can = np.zeros(first.size, dtype=bool)
    can[-1] = True
    masks = [can]
    count = np.zeros(first.size + 1, dtype=np.int64)
    for _ in range(q):
        can.cumsum(out=count[1:])
        can = count[stop] > count[first]
        masks.append(can)
    return masks


def _min_spread_edges(cum: np.ndarray, q: int) -> np.ndarray:
    """Exact minimum-spread boundaries of Q contiguous bands.

    The least and largest band areas L <= T/Q <= U of an optimal partition are
    sums over contiguous bins. Whether Q bands fit in [L, U] is a reachability
    check over the prefix sums, and the least feasible U never falls as L rises,
    so a sweep along that staircase, one binary search per step, visits every
    candidate optimum. Areas are compared to within a few ulps of T. Ties go to
    the smallest L, then to the earliest boundaries.
    """
    prefix = np.concatenate(([0.0], cum))
    total = prefix[-1]
    sums = (prefix[None, :] - prefix[:, None])[np.triu_indices(prefix.size, 1)]
    lows = np.unique(np.append(sums[sums <= total / q], 0.0))
    highs = np.unique(np.append(sums[sums >= total / q], total))

    def fits(lower, upper):
        return bool(_finishing(*_end_ranges(prefix, lower, upper), q)[-1][0])

    def spread(pair):
        return highs[pair[1]] - lows[pair[0]]

    best = (0, highs.size - 1)  # L = 0, U = T: any Q bands fit
    a, b = -1, 0
    while a + 1 < lows.size:
        # The least U that admits the next L, then the largest L that this U admits.
        # A U at or above lows[-1] + spread(best) cannot improve on best.
        last = int(np.searchsorted(highs, lows[-1] + spread(best))) - 1
        b = bisect.bisect_left(range(last + 1), True, b, key=lambda j: fits(lows[a + 1], highs[j]))
        if b > last:
            break
        a = bisect.bisect_left(range(lows.size), True, a + 2, key=lambda i: not fits(lows[i], highs[b])) - 1
        if spread((a, b)) < spread(best):
            best = (a, b)
        b += 1
    first, stop = _end_ranges(prefix, lows[best[0]], highs[best[1]])
    masks = _finishing(first, stop, q)
    edges = np.empty(q, dtype=np.int64)
    point = 0
    for j in range(q):
        point = int(first[point] + np.argmax(masks[q - 1 - j][first[point] : stop[point]]))
        edges[j] = point - 1
    return edges


def partition_areas(areas: np.ndarray, q: int) -> BandPartition:
    """Split a non-negative area vector into Q contiguous bands whose sums spread the least."""
    areas = np.asarray(areas, dtype=np.float64)
    k = areas.size
    if q < 2:
        raise ValueError("need at least two bands")
    if q > k:
        raise ValueError("more bands than bins")
    cum = np.cumsum(areas)
    edges = _min_spread_edges(cum, q)
    bands = [(int(lo), int(hi)) for lo, hi in zip(np.concatenate(([0], edges[:-1] + 1)), edges)]
    return BandPartition(bands, np.diff(cum[edges], prepend=0.0))


def equal_area_partition(avg_ltas: Ltas, q: int) -> BandPartition:
    """Split the shifted log spectrum into Q contiguous bands of near-equal area."""
    return partition_areas(_shifted_log(avg_ltas.values), q)


def build_warping_scale(
    partition: BandPartition, bin_hz: float, nyquist_hz: float, kind: str = "speech-based"
) -> WarpingScale:
    """Interpolated scale anchored at band midpoints, spanning (0,0) to (nyquist,1).

    Band j's midpoint maps to the center of its equal-area cell, (2j-1)/(2Q), so
    a uniform spectrum yields a linear scale. A first or last band one bin wide would
    put its knot on the 0 Hz or Nyquist end knot; its knot is instead the center of
    the part of its bin within [0, nyquist], a quarter bin in from the end.
    """
    q = len(partition.bands)
    mids_hz = np.array([(lo + hi) / 2.0 * bin_hz for lo, hi in partition.bands])
    mids_hz[0] = max(mids_hz[0], 0.25 * bin_hz)
    mids_hz[-1] = min(mids_hz[-1], nyquist_hz - 0.25 * bin_hz)
    warped = (2.0 * np.arange(1, q + 1) - 1.0) / (2.0 * q)
    knots_hz = np.concatenate(([0.0], mids_hz, [nyquist_hz]))
    knots_warped = np.concatenate(([0.0], warped, [1.0]))
    return WarpingScale(knots_hz, knots_warped, kind)


def mel(f_hz):
    """Mel frequency 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f_hz, dtype=np.float64) / 700.0)


def mel_warping_scale(nyquist_hz: float) -> WarpingScale:
    """Closed-form mel scale normalized to [0, 1] over [0, nyquist], sampled at MEL_KNOTS knots."""
    if nyquist_hz <= 0.0:
        raise ValueError("nyquist_hz must be positive")
    f = np.linspace(0.0, nyquist_hz, MEL_KNOTS)
    warped = mel(f) / mel(nyquist_hz)
    warped[0] = 0.0
    warped[-1] = 1.0
    return WarpingScale(f, warped, "mel")
