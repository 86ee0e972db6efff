"""Frequency warping scales: LTAS statistics, equal-area partition, mel closed form."""

import math
from dataclasses import dataclass

import numpy as np

from .dsp import PowerSpectrogram

AREA_SHIFT = 1e-6
SCALE_KINDS = ("mel", "speech-based", "speech-based-pitch")

# Per-boundary candidate offsets around each cumulative-area target, and the cap
# on exhaustive enumeration before falling back to greedy + coordinate descent.
_CANDIDATE_OFFSETS = (-2, -1, 0, 1)
_MAX_COMBOS = 1 << 18


@dataclass
class Ltas:
    """Mean short-time power spectrum over the selected frames of one source."""

    values: np.ndarray
    n_frames_accumulated: int
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
        if self.kind not in SCALE_KINDS:
            raise ValueError(f"unknown scale kind: {self.kind!r}")
        if self.knots_hz.shape != self.knots_warped.shape or self.knots_hz.ndim != 1:
            raise ValueError("knot arrays must be one-dimensional and equal-length")
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


def compute_ltas(spec: PowerSpectrogram, mask: np.ndarray) -> Ltas:
    """Mean power per bin over the frames selected by the mask."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (spec.n_frames,):
        raise ValueError("mask length must equal the frame count")
    n_sel = int(mask.sum())
    if n_sel == 0:
        raise ValueError("no frames selected")
    return Ltas(spec.frames[mask].mean(axis=0), n_sel, spec.bin_hz)


def _check_compatible(ltas_list: list[Ltas]):
    if not ltas_list:
        raise ValueError("empty LTAS list")
    k = ltas_list[0].values.size
    bin_hz = ltas_list[0].bin_hz
    for item in ltas_list[1:]:
        if item.values.size != k:
            raise ValueError("mismatched LTAS lengths")
        if item.bin_hz != bin_hz:
            raise ValueError("mismatched bin spacing")


def average_ltas(ltas_list: list[Ltas]) -> Ltas:
    """Ensemble average over utterances; each utterance counts once."""
    _check_compatible(ltas_list)
    values = np.mean([item.values for item in ltas_list], axis=0)
    total = sum(item.n_frames_accumulated for item in ltas_list)
    return Ltas(values, total, ltas_list[0].bin_hz)


def _shifted_log(values: np.ndarray) -> np.ndarray:
    log_v = np.log(np.maximum(values, np.finfo(np.float64).tiny))
    return log_v - log_v.min() + AREA_SHIFT


def _band_areas(cum: np.ndarray, edges: np.ndarray) -> np.ndarray:
    stops = cum[edges]
    return np.diff(stops, prepend=0.0)


def _greedy_edges(cum: np.ndarray, q: int) -> np.ndarray:
    """Adaptive greedy: each boundary lands nearest the remaining-average target."""
    k = cum.size
    edges = np.empty(q, dtype=np.int64)
    prev = -1
    consumed = 0.0
    for j in range(1, q):
        target = consumed + (cum[-1] - consumed) / (q - j + 1)
        pos = int(np.searchsorted(cum, target, side="left"))
        if pos > 0 and abs(cum[pos - 1] - target) < abs(cum[pos] - target):
            pos -= 1
        pos = min(max(pos, prev + 1), k - 1 - (q - j))
        edges[j - 1] = pos
        prev = pos
        consumed = cum[pos]
    edges[q - 1] = k - 1
    return edges


def _coordinate_descent(cum: np.ndarray, edges: np.ndarray, max_pass: int = 50) -> np.ndarray:
    edges = edges.copy()
    q = edges.size

    def spread(e):
        a = _band_areas(cum, e)
        return a.max() - a.min()

    best = spread(edges)
    for _ in range(max_pass):
        improved = False
        for i in range(q - 1):
            lo = (edges[i - 1] if i > 0 else -1) + 1
            hi = edges[i + 1] - 1
            trial = edges.copy()
            for pos in range(lo, hi + 1):
                if pos == edges[i]:
                    continue
                trial[i] = pos
                s = spread(trial)
                if s < best - 1e-15:
                    best = s
                    edges[i] = pos
                    improved = True
            trial[i] = edges[i]
        if not improved:
            break
    return edges


def _best_candidate_edges(cum: np.ndarray, q: int) -> np.ndarray:
    """Minimum-spread boundaries over a small candidate set per cumulative target.

    Each internal boundary draws candidates around the bin where the cumulative
    log area first reaches its target; ties resolve to the earliest boundaries.
    """
    k = cum.size
    total = cum[-1]
    greedy = _greedy_edges(cum, q)
    cand_sets = []
    for j in range(1, q):
        target = j * total / q
        first = int(np.searchsorted(cum, target, side="left"))
        cands = {min(max(first + off, j - 1), k - 1 - (q - j)) for off in _CANDIDATE_OFFSETS}
        cands.add(int(greedy[j - 1]))
        cand_sets.append(sorted(cands))
    n_combos = math.prod(len(c) for c in cand_sets)  # Python ints: 4**(q-1) overflows int64
    if n_combos > _MAX_COMBOS:
        return _coordinate_descent(cum, greedy)
    combos = np.zeros((1, 0), dtype=np.int64)
    # Every combination, the last boundary varying fastest, so ties resolve to the earliest edges.
    for cands in cand_sets:
        combos = np.column_stack([np.repeat(combos, len(cands), axis=0), np.tile(cands, combos.shape[0])])
    if q > 2:
        combos = combos[np.all(np.diff(combos, axis=1) > 0, axis=1)]
    if combos.shape[0] == 0:
        return greedy
    edges = np.concatenate([combos, np.full((combos.shape[0], 1), k - 1, dtype=np.int64)], axis=1)
    stops = cum[edges]
    areas = np.diff(stops, prepend=0.0, axis=1)
    spreads = areas.max(axis=1) - areas.min(axis=1)
    return edges[int(spreads.argmin())]


def partition_areas(areas: np.ndarray, q: int) -> BandPartition:
    """Split a non-negative area vector into Q contiguous bands of near-equal sums."""
    areas = np.asarray(areas, dtype=np.float64)
    k = areas.size
    if q < 2:
        raise ValueError("need at least two bands")
    if q > k:
        raise ValueError("more bands than bins")
    cum = np.cumsum(areas)
    edges = _best_candidate_edges(cum, q)
    bands = []
    lo = 0
    for e in edges:
        bands.append((lo, int(e)))
        lo = int(e) + 1
    return BandPartition(bands, _band_areas(cum, edges))


def equal_area_partition(avg_ltas: Ltas, q: int) -> BandPartition:
    """Split the shifted log spectrum into Q contiguous bands of near-equal area."""
    return partition_areas(_shifted_log(avg_ltas.values), q)


def build_warping_scale(
    partition: BandPartition, bin_hz: float, nyquist_hz: float, kind: str = "speech-based"
) -> WarpingScale:
    """Interpolated scale anchored at band midpoints, spanning (0,0) to (nyquist,1).

    Band j's midpoint maps to the center of its equal-area cell, (2j-1)/(2Q), so
    a uniform spectrum yields a linear scale. A first or last band one bin wide has
    its midpoint on an end knot, so such a partition is rejected.
    """
    q = len(partition.bands)
    for end, (lo, hi), knot in (("first", partition.bands[0], "0 Hz"), ("last", partition.bands[-1], "Nyquist")):
        if lo == hi:
            raise ValueError(
                f"degenerate scale: at n_filters {q} the {end} band is one bin wide (bin {lo}), "
                f"so its midpoint is the {knot} end knot; use fewer filters"
            )
    mids_hz = np.array([(lo + hi) / 2.0 * bin_hz for lo, hi in partition.bands])
    warped = (2.0 * np.arange(1, q + 1) - 1.0) / (2.0 * q)
    knots_hz = np.concatenate(([0.0], mids_hz, [nyquist_hz]))
    knots_warped = np.concatenate(([0.0], warped, [1.0]))
    return WarpingScale(knots_hz, knots_warped, kind)


def mel(f_hz):
    """Mel frequency 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f_hz, dtype=np.float64) / 700.0)


def mel_warping_scale(nyquist_hz: float, n_knots: int = 512) -> WarpingScale:
    """Closed-form mel scale normalized to [0, 1] over [0, nyquist]."""
    if nyquist_hz <= 0.0:
        raise ValueError("nyquist_hz must be positive")
    f = np.linspace(0.0, nyquist_hz, n_knots)
    warped = mel(f) / mel(nyquist_hz)
    warped[0] = 0.0
    warped[-1] = 1.0
    return WarpingScale(f, warped, "mel")
