"""GMM-UBM speaker verification backend: EM training, MAP adaptation, LLR scoring,
score fusion, and DET/EER/minDCF metrics."""

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .features import FeatureMatrix

VARIANCE_FLOOR = 1e-4

# (c_miss, c_fa, p_target) per evaluation plan.
COST_PRESETS = {
    "nist-sre": (10.0, 1.0, 0.01),
    "voxceleb": (1.0, 1.0, 0.01),
}

TARGET = "target"
IMPOSTOR = "impostor"


@dataclass
class GmmModel:
    """Diagonal-covariance Gaussian mixture."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        self.variances = np.atleast_2d(np.asarray(self.variances, dtype=np.float64))
        c, d = self.means.shape
        if self.weights.shape != (c,) or self.variances.shape != (c, d):
            raise ValueError("inconsistent mixture shapes")
        for name in ("weights", "means", "variances"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if np.any(self.variances < VARIANCE_FLOOR - 1e-12):
            raise ValueError("variances below floor")

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def component_log_densities(model: GmmModel, x: np.ndarray) -> np.ndarray:
    """Per-frame, per-component diagonal Gaussian log densities, shape (N, C).

    The quadratic form is expanded as sum(x^2/var) - 2 sum(x*mean/var) + sum(mean^2/var),
    so all components are evaluated with two matrix products and no (N, C, D) array.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.dim:
        raise ValueError("feature dimension mismatch")
    precisions = 1.0 / model.variances
    const = (
        (model.means**2 * precisions).sum(axis=1)
        + np.log(model.variances).sum(axis=1)
        + model.dim * np.log(2.0 * np.pi)
    )
    out = (x * x) @ precisions.T
    out -= x @ (2.0 * model.means * precisions).T
    out += const
    out *= -0.5
    return out


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(a))), computed as scipy.special.logsumexp(a, axis=1) does.

    The largest term of each row is taken out of the sum, so log1p keeps the rest
    accurate when one term dominates.
    """
    rows = np.arange(a.shape[0])
    top = a.argmax(axis=1)
    a_max = a[rows, top]
    terms = np.exp(a - a_max[:, None])
    terms[rows, top] = 0.0
    return np.log1p(terms.sum(axis=1)) + a_max


def log_likelihoods(model: GmmModel, x: np.ndarray) -> np.ndarray:
    """Per-frame mixture log likelihoods."""
    return _logsumexp(np.log(model.weights)[None, :] + component_log_densities(model, x))


def _responsibilities(model: GmmModel, x: np.ndarray) -> tuple[np.ndarray, float]:
    log_joint = np.log(model.weights)[None, :] + component_log_densities(model, x)
    log_norm = _logsumexp(log_joint)
    return np.exp(log_joint - log_norm[:, None]), float(log_norm.sum())


# Frames per statistics block, so per-frame arrays are _BLOCK x C.
_BLOCK = 1024


def _accumulate(x: np.ndarray, weigh) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Per-component sums of weigh(block)'s frame weights and weighted x and x*x, and of its log-likelihoods."""
    n_k = s_x = s_xx = log_lik = 0.0
    for block in np.split(x, range(_BLOCK, x.shape[0], _BLOCK)):
        weights, block_log_lik = weigh(block)
        n_k += weights.sum(axis=0)
        s_x += weights.T @ block
        s_xx += weights.T @ (block * block)
        log_lik += block_log_lik
    return n_k, s_x, s_xx, log_lik


def _kmeans_style_init(x: np.ndarray, n_components: int, rng: "np.random.Generator") -> GmmModel:
    n = x.shape[0]
    centroids = x[rng.choice(n, size=n_components, replace=False)]
    # Under unit variances the log density is -|x - c|^2 / 2 less a constant: its argmax is the nearest centroid.
    unit = GmmModel(np.full(n_components, 1.0 / n_components), centroids, np.ones_like(centroids))

    def nearest(block):
        return np.eye(n_components)[component_log_densities(unit, block).argmax(axis=1)], 0.0
    counts, s_x, s_xx, _ = _accumulate(x, nearest)
    global_var = np.maximum(s_xx.sum(axis=0) / n - (s_x.sum(axis=0) / n) ** 2, VARIANCE_FLOOR)
    size = np.maximum(counts, 1.0)
    means = np.where(counts[:, None] > 0, s_x / size[:, None], centroids)
    member_var = np.maximum(s_xx / size[:, None] - means**2, VARIANCE_FLOOR)
    variances = np.where(counts[:, None] > 1, member_var, global_var)
    return GmmModel(size / size.sum(), means, variances)


def train_ubm(
    features: np.ndarray, n_components: int, iters: int = 10, seed: int = 0
) -> tuple[GmmModel, np.ndarray]:
    """EM-trained diagonal GMM over pooled frames.

    Returns the model and the mean log-likelihood recorded at each E-step.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[0] < 10 * n_components:
        raise ValueError("too few frames")
    model = _kmeans_style_init(x, n_components, np.random.default_rng(seed))
    history = np.empty(iters)
    for it in range(iters):
        nk, s_x, s_xx, log_lik = _accumulate(x, partial(_responsibilities, model))
        history[it] = log_lik / x.shape[0]
        safe_nk = np.maximum(nk, 1e-12)[:, None]
        means = s_x / safe_nk
        variances = np.maximum(s_xx / safe_nk - means**2, VARIANCE_FLOOR)
        model = GmmModel(nk / nk.sum(), means, variances)
    return model, history


def map_adapt_means(ubm: GmmModel, features: np.ndarray, relevance: float = 14.0) -> GmmModel:
    """Mean-only MAP adaptation with alpha_i = n_i / (n_i + relevance).

    A component with no weight keeps its UBM mean (alpha 0) at any relevance.
    """
    if relevance < 0.0:
        raise ValueError("relevance must be non-negative")
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[0] < 1:
        raise ValueError("need at least one adaptation frame")
    nk, s_x, _, _ = _accumulate(x, partial(_responsibilities, ubm))
    alpha = np.divide(nk, nk + relevance, out=np.zeros_like(nk), where=nk > 0.0)[:, None]
    data_means = np.divide(s_x, nk[:, None], out=np.zeros_like(s_x), where=nk[:, None] > 0.0)
    means = alpha * data_means + (1.0 - alpha) * ubm.means
    return GmmModel(ubm.weights.copy(), means, ubm.variances.copy())


def score_segment(enrolls: list[GmmModel], ubm: GmmModel, test: FeatureMatrix) -> list[float]:
    """score_trial for several enrolled models on one test segment.

    The UBM log-likelihoods of the segment's speech frames are computed once and
    shared by every model.
    """
    if any(enroll.dim != ubm.dim for enroll in enrolls):
        raise ValueError("model dimensions do not match")
    x = test.speech_frames
    if x.shape[0] < 1:
        raise ValueError("no speech frames to score")
    ubm_ll = log_likelihoods(ubm, x)
    return [float(np.mean(log_likelihoods(enroll, x) - ubm_ll)) for enroll in enrolls]


def score_trial(enroll: GmmModel, ubm: GmmModel, test: FeatureMatrix) -> float:
    """Per-frame-averaged log-likelihood ratio over the masked (speech) frames."""
    return score_segment([enroll], ubm, test)[0]


@dataclass(frozen=True)
class Trial:
    """One verification trial; score may be absent before scoring."""

    enroll_id: str
    test_id: str
    label: str
    score: float | None = None

    def __post_init__(self):
        if self.label not in (TARGET, IMPOSTOR):
            raise ValueError(f"unknown trial label: {self.label!r}")

    @property
    def key(self) -> tuple[str, str]:
        return (self.enroll_id, self.test_id)


@dataclass
class TrialScoreSet:
    """Scored verification trials."""

    trials: list[Trial]

    def scores(self, label: str) -> np.ndarray:
        values = [t.score for t in self.trials if t.label == label]
        if any(v is None for v in values):
            raise ValueError("trials are not fully scored")
        return np.asarray(values, dtype=np.float64)


def fuse_scores(a: TrialScoreSet, b: TrialScoreSet) -> TrialScoreSet:
    """Equal-weight score fusion over identical trial keys."""
    by_key = {t.key: t for t in b.trials}
    if len(by_key) != len(b.trials):
        raise ValueError("duplicate trial keys")
    if {t.key for t in a.trials} != set(by_key):
        raise ValueError("trial keys do not match")
    fused = []
    for t in a.trials:
        other = by_key[t.key]
        if t.label != other.label:
            raise ValueError(f"trial {t.key} labels disagree")
        if t.score is None or other.score is None:
            raise ValueError("trials are not fully scored")
        fused.append(replace(t, score=0.5 * (t.score + other.score)))
    return TrialScoreSet(fused)


@dataclass
class DetCurve:
    """Miss/false-alarm rates swept over all distinct scores (accept iff score >= threshold)."""

    thresholds: np.ndarray
    p_miss: np.ndarray
    p_fa: np.ndarray


def det_curve(scores: TrialScoreSet) -> DetCurve:
    """Threshold sweep over all distinct scores plus a reject-all sentinel."""
    targets = np.sort(scores.scores(TARGET))
    impostors = np.sort(scores.scores(IMPOSTOR))
    if targets.size == 0 or impostors.size == 0:
        raise ValueError("need at least one target and one impostor trial")
    thresholds = np.concatenate([np.unique(np.concatenate([targets, impostors])), [np.inf]])
    p_miss = np.searchsorted(targets, thresholds, side="left") / targets.size
    p_fa = (impostors.size - np.searchsorted(impostors, thresholds, side="left")) / impostors.size
    return DetCurve(thresholds, p_miss, p_fa)


def eer(curve: DetCurve) -> float:
    """Equal error rate by linear interpolation at the miss/false-alarm crossing."""
    diff = curve.p_miss - curve.p_fa
    idx = int(np.searchsorted(diff >= 0.0, True))
    if diff[idx] == 0.0:
        return float(curve.p_miss[idx])
    lo, hi = idx - 1, idx
    t = -diff[lo] / (diff[hi] - diff[lo])
    return float(curve.p_miss[lo] + t * (curve.p_miss[hi] - curve.p_miss[lo]))


def min_dcf(curve: DetCurve, c_miss: float, c_fa: float, p_tar: float) -> float:
    """Minimum of c_miss*P_miss*p_tar + c_fa*P_fa*(1-p_tar) over the sweep."""
    if not 0.0 < p_tar < 1.0:
        raise ValueError("p_tar must lie in (0, 1)")
    if c_miss <= 0.0 or c_fa <= 0.0:
        raise ValueError("costs must be positive")
    cost = c_miss * curve.p_miss * p_tar + c_fa * curve.p_fa * (1.0 - p_tar)
    return float(cost.min())
