import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synth import synth_utterance

from warpfilt.dsp import AudioSegment, frame_signal, pre_emphasize
from warpfilt.features import FeatureConfig
from warpfilt.sad import (
    ENERGY_EPS,
    MIN_OVERLAP,
    VAR_FLOOR,
    bi_gaussian_sad,
    fit_two_gaussians,
    frame_log_energy,
    normalized_autocorrelation,
    pitch_lags,
    track_pitch,
    voiced_mask,
)


def tone_frames(f0, sr, n_frames=60, frame_len=None):
    frame_len = frame_len or int(0.02 * sr)
    t = np.arange(n_frames * frame_len) / sr
    x = np.sin(2 * np.pi * f0 * t)
    return x.reshape(n_frames, frame_len)


def reference_peak_lag(r, lag_min):
    """One row at a time: the shortest-lag local maximum within 2% of the peak."""
    peak = float(r.max())
    interior = np.flatnonzero((r[1:-1] >= r[:-2]) & (r[1:-1] >= r[2:])) + 1
    cands = list(interior)
    if r.size >= 2 and r[0] >= r[1]:
        cands.insert(0, 0)
    if r.size >= 2 and r[-1] >= r[-2]:
        cands.append(r.size - 1)
    strong = [i for i in cands if r[i] >= 0.98 * peak]
    idx = strong[0] if strong else int(r.argmax())
    lag = float(lag_min + idx)
    if 0 < idx < r.size - 1:
        denom = r[idx - 1] - 2.0 * r[idx] + r[idx + 1]
        if abs(denom) > 1e-12:
            delta = 0.5 * (r[idx - 1] - r[idx + 1]) / denom
            lag += float(np.clip(delta, -0.5, 0.5))
    return peak, lag


def reference_track(frames, sr, cfg):
    """The former f0 tracker, frame by frame in Python: (f0 with NaN when unvoiced, score)."""
    n_frames, n = frames.shape
    f0 = np.full(n_frames, np.nan)
    score = np.zeros(n_frames)
    lag_min = max(1, int(np.ceil(sr / cfg.pitch_f_max_hz)))
    lag_max = min(int(np.floor(sr / cfg.pitch_f_min_hz)), n - 1, n - MIN_OVERLAP)
    live = np.sum(frames * frames, axis=1) > ENERGY_EPS
    if lag_min > lag_max or not live.any():
        return f0, score
    r = normalized_autocorrelation(frames[live], lag_min, lag_max)
    for row, i in enumerate(np.flatnonzero(live)):
        peak, lag = reference_peak_lag(r[row], lag_min)
        score[i] = float(np.clip(peak, 0.0, 1.0))
        if peak >= cfg.voicing_threshold:
            f0[i] = np.clip(sr / lag, cfg.pitch_f_min_hz, cfg.pitch_f_max_hz)
    return f0, score


def mixed_frames(sr, seed):
    """Tones, harmonic mixtures, noisy tones, noise, near-silence and silence."""
    rng = np.random.default_rng(seed)
    n = int(0.02 * sr)
    t = np.arange(n) / sr
    rows = []
    for f0 in (55.0, 80.0, 120.0, 147.0, 200.0, 260.0, 333.0, 399.0):
        rows.append(np.sin(2 * np.pi * f0 * t + rng.uniform(0, 2 * np.pi)))
        rows.append(sum(rng.uniform(0.2, 1.0) * np.sin(2 * np.pi * h * f0 * t) for h in (1, 2, 3)))
        rows.append(np.sin(2 * np.pi * f0 * t) + rng.uniform(0.05, 1.0) * rng.normal(size=n))
        # Subharmonic structure: the chosen peak is not always the global one.
        rows.append(np.sin(2 * np.pi * f0 * t) + 0.3 * np.sin(np.pi * f0 * t))
    rows.extend(rng.uniform(-1, 1, size=(12, n)))
    rows.extend(1e-5 * rng.normal(size=(4, n)))
    rows.extend(np.zeros((3, n)))
    rows.append(np.r_[np.zeros(n - 5), np.ones(5)])
    return np.vstack(rows)


class TestTrackPitchReference:
    """The voicing decision equals where the frame-by-frame f0 reference is finite, bit for bit."""

    CONFIGS = [
        FeatureConfig(),
        FeatureConfig(pitch_f_min_hz=70.0, pitch_f_max_hz=300.0, voicing_threshold=0.3),
        FeatureConfig(pitch_f_min_hz=120.0, pitch_f_max_hz=250.0, voicing_threshold=0.8),
        FeatureConfig(pitch_f_min_hz=390.0, pitch_f_max_hz=400.0, voicing_threshold=0.0),  # 1 lag at 8 kHz
        FeatureConfig(pitch_f_min_hz=375.0, pitch_f_max_hz=400.0, voicing_threshold=0.1),  # 2 lags at 8 kHz
        FeatureConfig(pitch_f_min_hz=360.0, pitch_f_max_hz=400.0, voicing_threshold=0.2),  # 3 lags at 8 kHz
        FeatureConfig(pitch_f_min_hz=790.0, pitch_f_max_hz=800.0, voicing_threshold=0.0),  # 1 lag at 16 kHz
        FeatureConfig(pitch_f_min_hz=740.0, pitch_f_max_hz=800.0, voicing_threshold=0.1),  # 2 lags at 16 kHz
    ]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.pitch_f_min_hz:g}-{c.pitch_f_max_hz:g}-{c.voicing_threshold:g}")
    @pytest.mark.parametrize("sr", [8000, 16000])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical_to_per_frame_reference(self, cfg, sr, seed):
        frames = mixed_frames(sr, seed)
        track = track_pitch(frames, sr, cfg)
        f0, _ = reference_track(frames, sr, cfg)
        assert track.voiced.tobytes() == np.isfinite(f0).tobytes()

    @pytest.mark.parametrize("n_lags", [1, 2, 3])
    def test_short_lag_ranges_from_short_frames(self, n_lags):
        frames = mixed_frames(8000, 2)[:, : MIN_OVERLAP + 20 + n_lags - 1]
        cfg = FeatureConfig(pitch_f_min_hz=50.0, pitch_f_max_hz=400.0, voicing_threshold=0.0)
        track = track_pitch(frames, 8000, cfg)
        f0, _ = reference_track(frames, 8000, cfg)
        assert track.voiced.tobytes() == np.isfinite(f0).tobytes()


class TestPitchLags:
    """pitch_lags is the one lag range of the pitch search; track_pitch voices no frame when it is empty."""

    @pytest.mark.parametrize(
        "frame_len, sr, band, lags",
        [
            (320, 16000, (50.0, 400.0), (40, 272)),
            (88, 16000, (50.0, 400.0), (40, 40)),
            (64, 16000, (50.0, 400.0), (40, 16)),
            (320, 16000, (50.0, 55.0), (291, 272)),
            (160, 8000, (390.0, 400.0), (20, 20)),
        ],
    )
    def test_lag_range(self, frame_len, sr, band, lags):
        cfg = FeatureConfig(pitch_f_min_hz=band[0], pitch_f_max_hz=band[1])
        assert pitch_lags(frame_len, sr, cfg) == lags

    def test_empty_range_voices_no_frame(self):
        frames = mixed_frames(16000, 0)[:, :64]
        assert not track_pitch(frames, 16000, FeatureConfig(voicing_threshold=0.0)).voiced.any()


class TestNormalizedAutocorrelation:
    """Against the direct per-lag sum, with bounds fixed before any run."""

    @pytest.mark.parametrize("sr", [8000, 16000])
    def test_matches_direct_sum(self, sr):
        frames = np.vstack([mixed_frames(sr, 0), mixed_frames(sr, 1)])
        n = frames.shape[1]
        r = normalized_autocorrelation(frames, 1, n - 1)
        ref = np.zeros_like(r)
        for lag in range(1, n):
            head, tail = frames[:, : n - lag], frames[:, lag:]
            denom = np.sqrt(np.sum(head * head, axis=1) * np.sum(tail * tail, axis=1))
            with np.errstate(invalid="ignore", divide="ignore"):
                ref[:, lag - 1] = np.where(denom > 0.0, np.sum(head * tail, axis=1) / denom, 0.0)
        searched = n - MIN_OVERLAP  # lags 1 .. n - MIN_OVERLAP, the ones a pitch search can use
        assert np.abs(r[:, :searched] - ref[:, :searched]).max() <= 1e-12
        # The last lags overlap in few samples; a circular wrap would be off by order 1 there.
        assert np.abs(r - ref).max() <= 1e-6


class TestFrameLogEnergy:
    def test_zero_frame(self):
        e = frame_log_energy(np.zeros((1, 8)))
        assert np.isclose(e[0], np.log(1e-12), atol=1e-9)

    def test_ones_frame(self):
        e = frame_log_energy(np.ones((1, 4)))
        assert np.isclose(e[0], np.log(4.0 + 1e-12), atol=1e-12)

    def test_quadratic_scaling(self):
        frame = np.random.default_rng(0).normal(size=(1, 64))
        base = frame_log_energy(frame)
        scaled = frame_log_energy(2.0 * frame)
        assert np.isclose(scaled[0] - base[0], np.log(4.0), atol=1e-9)


class TestBiGaussianSad:
    def test_recovers_bimodal_split(self):
        rng = np.random.default_rng(7)
        low = rng.normal(-20.0, 0.5, size=200)
        high = rng.normal(-2.0, 0.5, size=200)
        mask = bi_gaussian_sad(np.concatenate([low, high]))
        assert np.array_equal(mask, np.arange(400) >= 200)

    def test_identical_energies_all_speech(self):
        mask = bi_gaussian_sad(np.full(25, -3.0))
        assert mask.all()

    def test_mask_length(self):
        e = np.random.default_rng(8).normal(size=37)
        assert bi_gaussian_sad(e).shape == (37,)

    def test_insufficient_frames(self):
        with pytest.raises(ValueError, match="insufficient frames"):
            bi_gaussian_sad(np.zeros(9))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_em_loglik_nondecreasing(self, seed):
        rng = np.random.default_rng(seed)
        e = np.concatenate([rng.normal(-12, 2.0, 80), rng.normal(-3, 1.0, 120)])
        _, _, _, history = fit_two_gaussians(e)
        assert np.all(np.diff(history) >= -1e-8)


def reference_gaussian_log_pdf(x, mean, var):
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)


def reference_fit_two_gaussians(energies, max_iter=50, tol=1e-6):
    """The former EM fit, one component at a time through a per-component log-density."""
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
    for _ in range(max_iter):
        log_joint = np.log(w)[None, :] + np.stack(
            [reference_gaussian_log_pdf(e, mu[c], var[c]) for c in range(2)], axis=1
        )
        log_norm = np.logaddexp(log_joint[:, 0], log_joint[:, 1])
        ll = float(log_norm.mean())
        history.append(ll)
        gamma = np.exp(log_joint - log_norm[:, None])
        nk = gamma.sum(axis=0)
        w = np.clip(nk / e.size, 1e-6, None)
        w /= w.sum()
        safe_nk = np.maximum(nk, 1e-12)
        mu = gamma.T @ e / safe_nk
        var = np.array([(gamma[:, c] * (e - mu[c]) ** 2).sum() / safe_nk[c] for c in range(2)])
        var = np.maximum(var, VAR_FLOOR)
        if abs(ll - prev_ll) / max(1.0, abs(prev_ll)) < tol:
            break
        prev_ll = ll
    return w, mu, var, np.asarray(history)


def assert_fit_matches_reference(e):
    got = fit_two_gaussians(e)
    want = reference_fit_two_gaussians(e)
    for name, a, b in zip(("weights", "means", "variances", "history"), got, want):
        assert np.array_equal(a, b), name


@st.composite
def energy_vectors(draw):
    """10-2000 frame log-energies: constant, one frame off a constant, two clusters, or one Gaussian."""
    n = draw(st.integers(10, 2000))
    scale = 10.0 ** draw(st.floats(-6.0, 3.0))
    offset = draw(st.floats(-30.0, 5.0))
    kind = draw(st.sampled_from(["constant", "one-member", "two-cluster", "gaussian"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = np.full(n, offset)
    if kind == "one-member":
        e[rng.integers(n)] += scale
    elif kind == "two-cluster":
        split = int(rng.integers(1, n))
        e += scale * np.concatenate([rng.normal(0.0, 0.1, split), rng.normal(5.0, 1.0, n - split)])
        rng.shuffle(e)
    elif kind == "gaussian":
        e += scale * rng.normal(size=n)
    return e


class TestFitTwoGaussiansReference:
    """The batched EM gives the former one-component-at-a-time EM bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(energy_vectors())
    def test_any_energy_vector(self, e):
        assert_fit_matches_reference(e)

    @pytest.mark.parametrize("seed", range(11))
    def test_synth_corpus_energies(self, seed):
        # Every speaker of the 8-speaker corpus of this seed, every fifth utterance,
        # framed as the front end frames the 16-bit WAVs it reads.
        cfg = FeatureConfig()
        for speaker in range(8):
            for utt in range(0, 20, 5):
                samples = synth_utterance(speaker, utt, 16000, 2.0, seed)
                samples = np.rint(np.clip(samples, -1.0, 32767.0 / 32768.0) * 32768.0) / 32768.0
                seg = pre_emphasize(AudioSegment(samples, 16000), cfg.preemph)
                assert_fit_matches_reference(frame_log_energy(frame_signal(seg, cfg.frame_ms, cfg.hop_ms)))


def one_frame_voiced(frame, sr):
    """Voicing of a single frame through the frame-matrix tracker."""
    return bool(track_pitch(np.asarray(frame)[None, :], sr).voiced[0])


class TestEstimatePitch:
    """Single-frame voicing decisions: track_pitch on one-row frame matrices."""

    def test_200hz_sine_at_8k(self):
        assert one_frame_voiced(np.sin(2 * np.pi * 200 * np.arange(320) / 8000), 8000)

    def test_zero_frame_absent(self):
        assert not one_frame_voiced(np.zeros(320), 16000)

    def test_noise_absent(self):
        unvoiced = sum(
            not one_frame_voiced(np.random.default_rng(s).uniform(-1, 1, 320), 16000) for s in range(100)
        )
        assert unvoiced >= 99

    @pytest.mark.parametrize("f0", [80.0, 120.0, 200.0, 300.0])
    @pytest.mark.parametrize("sr", [8000, 16000])
    def test_tone_accuracy(self, f0, sr):
        assert one_frame_voiced(np.sin(2 * np.pi * f0 * np.arange(int(0.02 * sr)) / sr), sr)

    @pytest.mark.parametrize("gain", [0.25, 2.0, 1024.0])
    def test_amplitude_invariance(self, gain):
        rng = np.random.default_rng(9)
        frame = np.sin(2 * np.pi * 140 * np.arange(320) / 16000) + 0.05 * rng.normal(size=320)
        assert one_frame_voiced(frame, 16000)
        assert one_frame_voiced(gain * frame, 16000)

    def test_track_matches_per_frame(self):
        rng = np.random.default_rng(11)
        frames = np.vstack([tone_frames(150.0, 16000, n_frames=12), rng.uniform(-1, 1, size=(12, 320))])
        track = track_pitch(frames, 16000)
        assert track.voiced.tolist() == [one_frame_voiced(f, 16000) for f in frames]
        assert track.voiced[:12].all() and not track.voiced[12:].any()


class TestVoicedMask:
    def test_pure_tone_all_voiced(self):
        frames = tone_frames(150.0, 16000, n_frames=40)
        mask = voiced_mask(frames, 16000)
        assert mask.all()

    def test_silence_none_voiced(self):
        frames = np.zeros((40, 320))
        mask = voiced_mask(frames, 16000)
        assert not mask.any()

    def test_subset_of_sad(self):
        rng = np.random.default_rng(10)
        voiced = tone_frames(120.0, 16000, n_frames=20)
        noise = 0.5 * rng.uniform(-1, 1, size=(20, 320))
        quiet = 1e-4 * rng.uniform(-1, 1, size=(20, 320))
        frames = np.vstack([voiced, noise, quiet])
        sad = bi_gaussian_sad(frame_log_energy(frames))
        mask = voiced_mask(frames, 16000)
        assert not np.any(mask & ~sad)
        assert np.array_equal(mask, sad & track_pitch(frames, 16000).voiced)

    def test_voicing_runs_on_sad_kept_frames_only(self, monkeypatch):
        rng = np.random.default_rng(10)
        frames = np.vstack([tone_frames(120.0, 16000, n_frames=20), 1e-4 * rng.uniform(-1, 1, size=(20, 320))])
        tracked = []
        monkeypatch.setattr(
            "warpfilt.sad.track_pitch", lambda f, *args: tracked.append(f.shape[0]) or track_pitch(f, *args)
        )
        voiced_mask(frames, 16000)
        assert tracked == [np.count_nonzero(bi_gaussian_sad(frame_log_energy(frames)))] and tracked[0] < 40


def test_pitch_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(pitch_f_min_hz=400.0, pitch_f_max_hz=50.0)
