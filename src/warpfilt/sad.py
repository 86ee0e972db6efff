"""Frame selection: bi-Gaussian energy SAD and autocorrelation voicing detection."""

from dataclasses import dataclass

import numpy as np

from .dsp import FeatureConfig

ENERGY_EPS = 1e-12
VAR_FLOOR = 1e-10
EM_MAX_ITER = 50
EM_TOL = 1e-6

# Lags with fewer overlapping samples than this are excluded from the pitch
# search: the normalized autocorrelation degenerates to +/-1 as the overlap
# shrinks, which would mark noise frames as voiced.
MIN_OVERLAP = 48

@dataclass
class PitchTrack:
    """Per-frame voicing decisions of the pitch tracker."""

    voiced: np.ndarray


def frame_log_energy(frames: np.ndarray) -> np.ndarray:
    """log(sum of squared samples + eps) per frame."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    return np.log(np.sum(frames * frames, axis=1) + ENERGY_EPS)


def fit_two_gaussians(energies: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """EM fit of a 2-component 1-D GMM, both components at once as the columns of (N, 2) arrays.

    Means start at the 25th/75th percentiles with a nearest-mean assignment;
    variances are clamped at VAR_FLOOR. EM stops after EM_MAX_ITER iterations or
    once the mean log-likelihood changes by less than EM_TOL, relatively.
    Returns (weights, means, variances, per-iteration mean log-likelihood).
    """
    e = np.asarray(energies, dtype=np.float64)
    mu = np.percentile(e, [25.0, 75.0])
    assign = np.abs(e[:, None] - mu[None, :]).argmin(axis=1)
    w = np.zeros(2)
    var = np.zeros(2)
    global_var = max(e.var(), VAR_FLOOR)
    for c in range(2):
        members = e[assign == c]
        w[c] = max(members.size, 1) / e.size
        var[c] = members.var() if members.size > 1 else global_var
        if members.size > 0:
            mu[c] = members.mean()
    w = np.clip(w, 1e-6, None)
    w /= w.sum()
    var = np.maximum(var, VAR_FLOOR)

    history = []
    prev_ll = -np.inf
    for _ in range(EM_MAX_ITER):
        log_joint = np.log(w) - 0.5 * (np.log(2.0 * np.pi * var) + (e[:, None] - mu) ** 2 / var)
        log_norm = np.logaddexp(log_joint[:, 0], log_joint[:, 1])
        ll = float(log_norm.mean())
        history.append(ll)
        gamma = np.exp(log_joint - log_norm[:, None])
        nk = gamma.sum(axis=0)
        w = np.clip(nk / e.size, 1e-6, None)
        w /= w.sum()
        safe_nk = np.maximum(nk, 1e-12)
        mu = gamma.T @ e / safe_nk
        # One contiguous row per component keeps numpy's pairwise sum of a 1-D array.
        scatter = np.ascontiguousarray((gamma * (e[:, None] - mu) ** 2).T).sum(axis=1)
        var = np.maximum(scatter / safe_nk, VAR_FLOOR)
        if abs(ll - prev_ll) / max(1.0, abs(prev_ll)) < EM_TOL:
            break
        prev_ll = ll
    return w, mu, var, np.asarray(history)


def _crossing_threshold(w: np.ndarray, mu: np.ndarray, var: np.ndarray) -> float:
    """Energy where the two weighted component densities cross between the means, which bi_gaussian_sad has checked differ."""
    order = np.argsort(mu)
    (w_lo, w_hi) = w[order]
    (m_lo, m_hi) = mu[order]
    (v_lo, v_hi) = var[order]
    midpoint = 0.5 * (m_lo + m_hi)
    # w_lo*N(x; m_lo, v_lo) = w_hi*N(x; m_hi, v_hi) reduces to a*x^2 + b*x + c = 0.
    a = 0.5 / v_hi - 0.5 / v_lo
    b = m_lo / v_lo - m_hi / v_hi
    c = 0.5 * m_hi**2 / v_hi - 0.5 * m_lo**2 / v_lo + np.log((w_lo * np.sqrt(v_hi)) / (w_hi * np.sqrt(v_lo)))
    if abs(a) < 1e-12:
        if abs(b) < 1e-12:
            return midpoint
        roots = np.array([-c / b])
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return midpoint
        sq = np.sqrt(disc)
        roots = np.array([(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)])
    inside = roots[(roots > m_lo) & (roots < m_hi)]
    if inside.size == 0:
        return midpoint
    return float(inside[np.abs(inside - midpoint).argmin()])


def bi_gaussian_sad(energies: np.ndarray) -> np.ndarray:
    """Speech mask from a two-Gaussian fit of frame log-energies; ties count as speech."""
    e = np.asarray(energies, dtype=np.float64)
    if e.size < 10:
        raise ValueError("insufficient frames")
    w, mu, var, _ = fit_two_gaussians(e)
    # Collapsed components carry no speech/non-speech split: keep every frame.
    if abs(mu[1] - mu[0]) <= max(1e-9, 1e-6 * (e.max() - e.min())):
        return np.ones(e.size, dtype=bool)
    threshold = _crossing_threshold(w, mu, var)
    return e >= threshold


def normalized_autocorrelation(frames: np.ndarray, lag_min: int, lag_max: int) -> np.ndarray:
    """r(tau) = sum x[n]x[n+tau] / sqrt(sum x[n]^2 * sum x[n+tau]^2) for each row.

    Returns shape (n_frames, lag_max - lag_min + 1). Computed with one FFT per
    frame batch plus cumulative-sum denominators.
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    n = frames.shape[1]
    if not 1 <= lag_min <= lag_max <= n - 1:
        raise ValueError("lag range must lie within [1, frame_len - 1]")
    # 2n points hold every lag up to n - 1 without circular wrap-around.
    spec = np.fft.rfft(frames, 2 * n)
    acf = np.fft.irfft(spec * np.conj(spec), 2 * n)[:, lag_min : lag_max + 1]
    # head[t] = sum_{n<N-t} x[n]^2 = csum[N-1-t], tail[t] = sum_{n>=t} x[n]^2 = total - csum[t-1]
    csum = np.cumsum(frames * frames, axis=1)
    head = csum[:, n - 1 - lag_max : n - lag_min][:, ::-1]
    tail = csum[:, -1:] - csum[:, lag_min - 1 : lag_max]
    denom = np.sqrt(head * tail)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom > 0.0, acf / denom, 0.0)
    return r


def pitch_lags(frame_len: int, sample_rate_hz: int, cfg: FeatureConfig) -> tuple[int, int]:
    """(lag_min, lag_max): the lags of cfg's pitch band that a frame of frame_len samples
    holds with MIN_OVERLAP samples of overlap; empty when lag_min > lag_max."""
    lag_min = max(1, int(np.ceil(sample_rate_hz / cfg.pitch_f_max_hz)))
    lag_max = min(int(np.floor(sample_rate_hz / cfg.pitch_f_min_hz)), frame_len - MIN_OVERLAP)
    return lag_min, lag_max


def track_pitch(
    frames: np.ndarray, sample_rate_hz: int, cfg: FeatureConfig | None = None
) -> PitchTrack:
    """Voicing per frame of a frame matrix.

    A frame is voiced when it is live (energy above ENERGY_EPS) and its largest
    normalized autocorrelation over the pitch_lags of cfg's band is at least
    cfg's voicing threshold; None means FeatureConfig().
    """
    cfg = cfg or FeatureConfig()
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    n_frames, n = frames.shape
    voiced = np.zeros(n_frames, dtype=bool)
    lag_min, lag_max = pitch_lags(n, sample_rate_hz, cfg)
    live = np.flatnonzero(np.sum(frames * frames, axis=1) > ENERGY_EPS)
    if lag_min <= lag_max and live.size > 0:
        r = normalized_autocorrelation(frames[live], lag_min, lag_max)
        voiced[live] = r.max(axis=1) >= cfg.voicing_threshold
    return PitchTrack(voiced)


def voiced_mask(frames: np.ndarray, sample_rate_hz: int, cfg: FeatureConfig | None = None) -> np.ndarray:
    """SAD mask AND the voicing decision of track_pitch, which runs on the SAD-kept frames only."""
    mask = bi_gaussian_sad(frame_log_energy(frames))
    mask[mask] = track_pitch(np.asarray(frames)[mask], sample_rate_hz, cfg).voiced
    return mask
