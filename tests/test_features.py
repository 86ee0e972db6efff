import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from synth import synth_utterance

from warpfilt.dsp import AudioSegment, frame_signal, hamming_window, power_spectrum, pre_emphasize
from warpfilt.features import (
    RASTA_DEN,
    RASTA_NUM,
    FeatureConfig,
    FeatureMatrix,
    append_deltas,
    cepstra,
    cmvn,
    extract_features,
    filterbank_log_energies,
    rasta_filter,
    utterance_spectra,
)
from warpfilt.filterbank import FilterbankLayout, triangular_responses, place_filter_edges
from warpfilt.sad import bi_gaussian_sad, frame_log_energy, voiced_mask
from warpfilt.scale import mel_warping_scale


def toy_fb(k=5, sr=16000):
    layout = FilterbankLayout(np.array([0, 2, 4]), sr, (k - 1) * 2)
    return triangular_responses(layout)


def full_fb(sr=16000, q=20):
    layout = place_filter_edges(mel_warping_scale(sr / 2.0), q, 512, sr)
    return triangular_responses(layout)


class TestFilterbankLogEnergies:
    def test_flat_spectrum(self):
        fb = toy_fb()
        spec = np.ones((1, 5))
        expected = np.log(fb.responses[0].sum() + 1e-12)
        assert np.isclose(filterbank_log_energies(spec, fb)[0, 0], expected, atol=1e-12)

    def test_zero_spectrum(self):
        fb = toy_fb()
        spec = np.zeros((3, 5))
        assert np.allclose(filterbank_log_energies(spec, fb), np.log(1e-12), atol=1e-12)

    def test_doubling_adds_log2(self):
        fb = toy_fb()
        rng = np.random.default_rng(0)
        frames = rng.uniform(0.5, 2.0, size=(4, 5))
        base = filterbank_log_energies(frames, fb)
        doubled = filterbank_log_energies(2.0 * frames, fb)
        assert np.allclose(doubled - base, np.log(2.0), atol=1e-9)

    def test_bin_count_mismatch(self):
        fb = toy_fb()
        with pytest.raises(ValueError, match="disagree on bin count"):
            filterbank_log_energies(np.ones((1, 9)), fb)


class TestCepstra:
    def test_constant_row_zero(self):
        out = cepstra(np.full((3, 20), 2.5), 19)
        assert np.abs(out).max() <= 1e-9

    def test_width(self):
        out = cepstra(np.random.default_rng(1).normal(size=(4, 20)), 19)
        assert out.shape == (4, 19)

    def test_offset_invariance(self):
        rng = np.random.default_rng(2)
        row = rng.normal(size=(2, 20))
        assert np.allclose(cepstra(row + 3.7, 19), cepstra(row, 19), atol=1e-12)

    def test_too_many_coefficients(self):
        with pytest.raises(ValueError):
            cepstra(np.zeros((1, 20)), 20)


# The stated bound on the deviation of rasta_filter from lfilter or the direct recursion, relative to max|y|.
RASTA_BOUND = 1e-12


def lfilter_input(n_frames):
    """Normal trajectories with zeros and negative zeros mixed in."""
    rng = np.random.default_rng(n_frames)
    x = rng.normal(0.0, 3.0, size=(n_frames, 19))
    x[rng.random(x.shape) < 0.1] = 0.0
    x[rng.random(x.shape) < 0.1] = -0.0
    return x


def direct_recursion(x):
    """y[k] = sum_i RASTA_NUM[i] * x[k - i] - RASTA_DEN[1] * y[k - 1], one frame at a time."""
    y = np.zeros_like(x)
    for k in range(len(x)):
        acc = 0.0
        for i, b in enumerate(RASTA_NUM):
            if k - i >= 0:
                acc = acc + b * x[k - i]
        if k >= 1:
            acc = acc - RASTA_DEN[1] * y[k - 1]
        y[k] = acc
    return y


@st.composite
def trajectories(draw):
    """(n, c) arrays, n up to 3,000 frames, each entry one of up to 50 drawn finite values."""
    shape = (draw(st.integers(0, 3000)), draw(st.integers(1, 3)))
    values = draw(st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=1, max_size=50))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(len(values), size=shape)
    return np.array(values)[picks]


class TestRastaFilter:
    def test_dc_rejection(self):
        out = rasta_filter(np.full((600, 2), 5.0))
        assert np.abs(out[500:]).max() < 1e-3 * 5.0

    def test_zero_input(self):
        assert np.array_equal(rasta_filter(np.zeros((50, 3))), np.zeros((50, 3)))

    def test_impulse_matches_direct_recursion(self):
        x = np.zeros(40)
        x[0] = 1.0
        got = rasta_filter(x[:, None])[:, 0]
        y = np.zeros(40)
        for n in range(40):
            acc = 0.0
            for i, b in enumerate(RASTA_NUM):
                if n - i >= 0:
                    acc += b * x[n - i]
            if n >= 1:
                acc -= RASTA_DEN[1] * y[n - 1]
            y[n] = acc
        assert np.abs(got - y).max() <= 1e-12

    @pytest.mark.parametrize("n_frames", [0, 1])
    def test_bit_identical_to_lfilter(self, n_frames):
        """Below two frames the scan takes no step, so the output is lfilter's bit for bit."""
        x = lfilter_input(n_frames)
        ref = scipy.signal.lfilter(RASTA_NUM, RASTA_DEN, x, axis=0)
        assert rasta_filter(x).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n_frames", [0, 1, 2, 4, 5, 600])
    def test_within_bound_of_lfilter(self, n_frames):
        x = lfilter_input(n_frames)
        ref = scipy.signal.lfilter(RASTA_NUM, RASTA_DEN, x, axis=0)
        got = rasta_filter(x)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max(initial=0.0) <= RASTA_BOUND * np.abs(ref).max(initial=0.0)

    @settings(max_examples=60, deadline=None)
    @given(x=trajectories())
    def test_scan_within_bound_of_direct_recursion(self, x):
        got = rasta_filter(x)
        ref = direct_recursion(x)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max(initial=0.0) <= RASTA_BOUND * np.abs(ref).max(initial=0.0)

    def test_ten_minutes_finite_and_within_bound(self):
        # 60,000 frames at a 10-ms hop: the last scan steps multiply by 0.98**32768, about 1e-288.
        x = lfilter_input(60_000)[:, :2]
        got = rasta_filter(x)
        assert np.all(np.isfinite(got))
        for ref in (direct_recursion(x), scipy.signal.lfilter(RASTA_NUM, RASTA_DEN, x, axis=0)):
            assert np.abs(got - ref).max() <= RASTA_BOUND * np.abs(ref).max()


class TestAppendDeltas:
    def test_constant_base(self):
        out = append_deltas(np.full((10, 3), 1.5))
        assert np.array_equal(out[:, 3:], np.zeros((10, 6)))

    def test_linear_ramp_interior(self):
        base = np.arange(20.0)[:, None]
        out = append_deltas(base)
        assert np.allclose(out[4:-4, 1], 1.0, atol=1e-12)

    def test_width_triples(self):
        out = append_deltas(np.zeros((5, 7)))
        assert out.shape == (5, 21)

    def test_every_frame_of_a_short_input(self):
        # d[k] = (x[k+1] - x[k-1] + 2 (x[k+2] - x[k-2])) / 10 with x[j] the nearest frame for j
        # outside 0..n-1, so the first and last two frames regress over repeated edge frames.
        base = np.array([[0.0, 1.0], [1.0, -2.0], [4.0, 0.5], [9.0, 3.0], [16.0, -1.0], [25.0, 2.0]])

        def delta(x):
            n = len(x)
            at = lambda j: x[min(max(j, 0), n - 1)]
            return np.array([(at(k + 1) - at(k - 1) + 2.0 * (at(k + 2) - at(k - 2))) / 10.0 for k in range(n)])

        d = delta(base)
        assert np.array_equal(d[:, 0], [0.9, 2.2, 4.0, 6.0, 5.8, 4.1])
        assert np.array_equal(append_deltas(base), np.hstack([base, d, delta(d)]))


class TestCmvn:
    def test_masked_statistics(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(2.0, 3.0, size=(40, 5))
        mask = rng.uniform(size=40) > 0.3
        out = cmvn(feats, mask)
        assert np.abs(out[mask].mean(axis=0)).max() <= 1e-9
        assert np.abs(out[mask].var(axis=0) - 1.0).max() <= 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(30, 4))
        mask = np.ones(30, dtype=bool)
        once = cmvn(feats, mask)
        assert np.allclose(cmvn(once, mask), once, atol=1e-9)

    def test_constant_column_zeroed(self):
        feats = np.column_stack([np.full(20, 7.0), np.arange(20.0)])
        out = cmvn(feats, np.ones(20, dtype=bool))
        assert np.array_equal(out[:, 0], np.zeros(20))

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            cmvn(np.ones((5, 2)), np.array([True, False, False, False, False]))


class TestFeatureConfig:
    def test_invalid_ceps(self):
        # The filterbank fixes the filter count: 20 filters keep at most 19 cepstra.
        with pytest.raises(ValueError, match="n_ceps"):
            extract_features(vowel_segment(), full_fb(q=20), FeatureConfig(n_ceps=20))


def vowel_segment(duration_s=3.0, sr=16000):
    """Fully voiced synthetic vowel (no silence margins)."""
    samples = synth_utterance(2, 0, sr, duration_s, seed=42, voiced_fraction=1.0)
    return AudioSegment(samples, sr)


class TestExtractFeatures:
    def test_shape_and_finiteness(self):
        fm = extract_features(vowel_segment(), full_fb(), FeatureConfig())
        # 48000 samples, 320/160 framing: 1 + (48000-320)//160 = 299 frames
        assert fm.vectors.shape == (299, 57)
        assert fm.mask.shape == (299,)
        assert np.all(np.isfinite(fm.vectors))

    def test_deterministic(self):
        seg = vowel_segment()
        a = extract_features(seg, full_fb(), FeatureConfig())
        b = extract_features(seg, full_fb(), FeatureConfig())
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.mask, b.mask)

    def test_rasta_changes_output(self):
        seg = vowel_segment()
        with_rasta = extract_features(seg, full_fb(), FeatureConfig(rasta_enabled=True))
        without = extract_features(seg, full_fb(), FeatureConfig(rasta_enabled=False))
        assert not np.allclose(with_rasta.vectors, without.vectors)

    def test_gain_invariance_of_kept_cepstra(self):
        seg = vowel_segment()
        cfg = FeatureConfig(rasta_enabled=False, cmvn_enabled=False)
        base = extract_features(seg, full_fb(), cfg)
        loud = extract_features(
            AudioSegment(2.0 * seg.samples, seg.sample_rate_hz), full_fb(), cfg
        )
        assert np.abs(loud.vectors - base.vectors).max() <= 1e-6

    def test_gain_invariance_full_pipeline(self):
        seg = vowel_segment()
        loud_seg = AudioSegment(2.0 * seg.samples, seg.sample_rate_hz)
        cfg = FeatureConfig(cmvn_enabled=False)
        base = extract_features(seg, full_fb(), cfg)
        loud = extract_features(loud_seg, full_fb(), cfg)
        assert np.array_equal(base.mask, loud.mask)
        # c1..c19 carry the 1e-6 bound; CMVN then divides by per-column stds,
        # which amplifies float noise, so the normalized check is looser.
        assert np.abs(loud.vectors[:, :19] - base.vectors[:, :19]).max() <= 1e-6
        full = FeatureConfig()
        a = extract_features(seg, full_fb(), full)
        b = extract_features(loud_seg, full_fb(), full)
        assert np.abs(a.vectors - b.vectors).max() <= 1e-5

    def test_sample_rate_mismatch(self):
        seg = vowel_segment(sr=8000)
        with pytest.raises(ValueError):
            extract_features(seg, full_fb(sr=16000), FeatureConfig())

    def test_downstream_stages_identical_across_filterbanks(self):
        # Only the log-energy stage depends on the filterbank shape.
        rng = np.random.default_rng(5)
        log_e = rng.normal(size=(50, 20))
        first = append_deltas(rasta_filter(cepstra(log_e, 19)))
        second = append_deltas(rasta_filter(cepstra(log_e, 19)))
        assert np.array_equal(first, second)


class TestFrameSelection:
    """utterance_spectra gives the spectra of the selected frames only; extract_features keeps every frame."""

    @staticmethod
    def framed():
        """A voiced utterance between 0.3 s of 1e-4 noise on each side, its pre-emphasised frames, and its SAD mask."""
        sr = 16000
        quiet = 1e-4 * np.random.default_rng(1).standard_normal(int(0.3 * sr))
        seg = AudioSegment(np.concatenate([quiet, synth_utterance(2, 0, sr, 1.5, voiced_fraction=1.0), quiet]), sr)
        cfg = FeatureConfig()
        frames = frame_signal(pre_emphasize(seg, cfg.preemph), cfg.frame_ms, cfg.hop_ms)
        sad_mask = bi_gaussian_sad(frame_log_energy(frames))
        assert 0 < sad_mask.sum() < sad_mask.size
        return seg, cfg, frames, sad_mask

    @pytest.mark.parametrize("voicing", [False, True])
    def test_spectra_of_selected_frames(self, voicing):
        seg, cfg, frames, mask = self.framed()
        if voicing:
            mask = voiced_mask(frames, seg.sample_rate_hz, cfg)
        expected = power_spectrum(frames, 512, hamming_window(frames.shape[1]))[mask]
        assert np.array_equal(utterance_spectra(seg, cfg, 512, voicing), expected)

    def test_extract_features_keeps_every_frame(self):
        seg, cfg, frames, mask = self.framed()
        fm = extract_features(seg, full_fb(), cfg)
        assert fm.n_frames == frames.shape[0]
        assert np.array_equal(fm.mask, mask)


def test_feature_matrix_rejects_nan():
    with pytest.raises(ValueError):
        FeatureMatrix(np.array([[np.nan, 1.0]]), np.array([True]))
