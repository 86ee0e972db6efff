import logging
import tracemalloc

import numpy as np
import pytest
from synth import synth_utterance

from warpfilt import filterbank
from warpfilt.dsp import AudioSegment, hamming_window
from warpfilt.features import FeatureConfig, utterance_spectra
from warpfilt.filterbank import (
    Filterbank,
    FilterbankLayout,
    learn_pca_filterbank,
    pca_first_basis,
    place_filter_edges,
    subband_covariance,
    triangular_responses,
)
from warpfilt.scale import (
    WarpingScale,
    build_warping_scale,
    compute_ltas,
    equal_area_partition,
    mel_warping_scale,
)


def two_pass_covariance(log_specs, band, taper=None):
    """Reference: two-pass sample covariance and mean of (optionally tapered) subband log spectra."""
    log_specs = np.atleast_2d(np.asarray(log_specs, dtype=np.float64))
    if log_specs.shape[0] < 2:
        raise ValueError("need >=2 frames")
    lo, hi = band
    sliced = log_specs[:, lo : hi + 1]
    if taper is not None:
        sliced = sliced * taper
    mean = sliced.mean(axis=0)
    centered = sliced - mean
    return centered.T @ centered / (log_specs.shape[0] - 1), mean


def linear_scale(nyquist):
    return WarpingScale(np.array([0.0, nyquist]), np.array([0.0, 1.0]), "mel")


class TestPlaceFilterEdges:
    def test_linear_scale_uniform_bins(self):
        layout = place_filter_edges(linear_scale(8000.0), 3, 512, 16000)
        assert np.array_equal(layout.boundary_bins, [0, 64, 128, 192, 256])

    def test_single_filter_spans_band(self):
        layout = place_filter_edges(linear_scale(8000.0), 1, 512, 16000)
        assert layout.boundary_bins[0] == 0
        assert layout.boundary_bins[-1] == 256

    def test_mel_spacing_nondecreasing(self):
        layout = place_filter_edges(mel_warping_scale(4000.0), 20, 512, 8000)
        bin_hz = 8000 / 512
        hz = layout.boundary_bins * bin_hz
        assert np.all(np.diff(np.diff(hz)) >= -bin_hz)  # widths grow, up to rounding

    def test_too_few_bins(self):
        with pytest.raises(ValueError, match="too few bins"):
            place_filter_edges(linear_scale(8000.0), 10, 16, 16000)

    def test_collision_dedup_tiny_fft(self):
        layout = place_filter_edges(mel_warping_scale(8000.0), 6, 16, 16000)
        b = layout.boundary_bins
        assert b[0] == 0 and b[-1] == 8
        assert np.all(np.diff(b) > 0)


class TestTriangularResponses:
    def test_documented_triangle(self):
        layout = FilterbankLayout(np.array([0, 2, 4]), 16000, 8)
        fb = triangular_responses(layout)
        assert np.allclose(fb.responses[0], [0.0, 0.5, 1.0, 0.5, 0.0], atol=1e-12)

    def test_adjacent_filters_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            edges = np.sort(rng.choice(np.arange(1, 128), size=6, replace=False))
            bins = np.concatenate([[0], edges, [128]])
            layout = FilterbankLayout(bins, 16000, 256)
            fb = triangular_responses(layout)
            for j in range(fb.n_filters - 1):
                mid, hi = bins[j + 1], bins[j + 2]
                interior = np.arange(mid + 1, hi)
                if interior.size == 0:
                    continue
                sums = fb.responses[j, interior] + fb.responses[j + 1, interior]
                assert np.abs(sums - 1.0).max() <= 1e-12

    def test_unit_peaks(self):
        layout = place_filter_edges(mel_warping_scale(8000.0), 20, 512, 16000)
        fb = triangular_responses(layout)
        assert np.array_equal(fb.responses.max(axis=1), np.ones(20))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_response_named(self, value):
        fb = triangular_responses(FilterbankLayout(np.array([0, 3, 7, 12]), 16000, 24))
        fb.responses[1, 5] = value
        with pytest.raises(ValueError, match="^responses must be finite$"):
            Filterbank(fb.layout, fb.responses, "pca")

    def test_zero_outside_support(self):
        layout = FilterbankLayout(np.array([0, 3, 7, 12]), 16000, 24)
        fb = triangular_responses(layout)
        assert np.array_equal(fb.responses[0, 8:], np.zeros(5))
        assert np.array_equal(fb.responses[1, :4], np.zeros(4))


def reference_triangles(layout):
    """The former triangles, one filter at a time."""
    b = layout.boundary_bins
    rows = []
    for j in range(1, layout.n_filters + 1):
        lo, mid, hi = int(b[j - 1]), int(b[j]), int(b[j + 1])
        resp = np.zeros(layout.n_bins)
        rise = np.arange(lo, mid + 1)
        resp[rise] = (rise - lo) / (mid - lo)
        fall = np.arange(mid, hi + 1)
        resp[fall] = (hi - fall) / (hi - mid)
        resp[mid] = 1.0
        rows.append(resp)
    return np.stack(rows)


def learned_speech_scale():
    """A speech-based scale learned at 20 bands from the LTAS of one synthetic utterance."""
    ltas = compute_ltas(utterance_spectra(AudioSegment(synth_utterance(2, 0, 16000, 2.0), 16000), FeatureConfig(), 512), 16000 / 512)
    return build_warping_scale(equal_area_partition(ltas, 20), ltas.bin_hz, 8000.0)


def reference_edges(scale, q, n_fft, sample_rate_hz):
    """The former boundary bins, one collision at a time."""
    k = n_fft // 2 + 1
    bins = np.rint(scale.inverse(np.arange(q + 2) / (q + 1)) / (sample_rate_hz / n_fft)).astype(np.int64)
    bins[0] = 0
    for j in range(1, q + 2):
        bins[j] = min(max(bins[j], bins[j - 1] + 1), k - 2 - q + j)
    bins[-1] = k - 1
    return bins


class TestEdgesReference:
    """The running maximum gives the former per-boundary collision loop's bins exactly."""

    @pytest.mark.parametrize("n_fft", [256, 512])
    @pytest.mark.parametrize("scale", ["mel", "speech"])
    def test_every_filter_count(self, n_fft, scale):
        warping = mel_warping_scale(8000.0) if scale == "mel" else learned_speech_scale()
        for q in range(1, n_fft // 2):
            got = place_filter_edges(warping, q, n_fft, 16000).boundary_bins
            assert np.array_equal(got, reference_edges(warping, q, n_fft, 16000)), q


class TestTriangularReference:
    """The broadcast triangles give the former per-filter triangles bit for bit."""

    @pytest.mark.parametrize("n_fft", [256, 512])
    @pytest.mark.parametrize("scale", ["mel", "speech"])
    def test_every_filter_count(self, n_fft, scale):
        warping = mel_warping_scale(8000.0) if scale == "mel" else learned_speech_scale()
        for q in range(1, n_fft // 2):
            layout = place_filter_edges(warping, q, n_fft, 16000)
            got = triangular_responses(layout).responses
            want = reference_triangles(layout)
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), q


class TestSubbandCovariance:
    def test_identical_rows_zero(self):
        rows = np.tile([1.0, 2.0, 3.0], (5, 1))
        cov, _ = two_pass_covariance(rows, (0, 2))
        assert np.allclose(cov, 0.0, atol=1e-15)
        [learned] = subband_covariance([rows], FilterbankLayout([0, 1, 2], 16000, 4))
        assert np.allclose(learned, 0.0, atol=1e-15)

    def test_hand_computed(self):
        cov, mean = two_pass_covariance(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), (0, 1))
        assert np.array_equal(mean, [3.0, 4.0])
        assert np.allclose(cov, [[4.0, 4.0], [4.0, 4.0]], atol=1e-12)
        rows = np.array([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0], [5.0, 6.0, 7.0]])
        [learned] = subband_covariance([rows], FilterbankLayout([0, 1, 2], 16000, 4))
        assert np.allclose(learned, np.full((3, 3), 4.0), atol=1e-12)

    def test_identity_taper(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(20, 6))
        plain, _ = two_pass_covariance(data, (1, 4))
        tapered, _ = two_pass_covariance(data, (1, 4), np.ones(4))
        assert np.array_equal(plain, tapered)

    def test_needs_two_frames(self):
        with pytest.raises(ValueError, match="need >=2 frames"):
            two_pass_covariance(np.ones((1, 4)), (0, 3))
        with pytest.raises(ValueError, match="need >=2 frames"):
            subband_covariance([np.ones((1, 3)), np.ones((0, 3))], FilterbankLayout([0, 1, 2], 16000, 4))


class TestPcaFirstBasis:
    def test_axis_aligned(self):
        v = pca_first_basis(np.diag([2.0, 1.0]))
        assert np.allclose(v, [1.0, 0.0], atol=1e-8)

    def test_rank_one_analytic(self):
        v = pca_first_basis(np.array([[4.0, 4.0], [4.0, 4.0]]))
        assert np.allclose(v, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-4)

    def test_matches_eigh_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a = rng.normal(size=(5, 5))
            s = a @ a.T
            v = pca_first_basis(s)
            w, vecs = np.linalg.eigh(s)
            ref = vecs[:, -1]
            assert min(np.abs(v - ref).max(), np.abs(v + ref).max()) < 1e-6

    def test_unit_norm(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 8))
        v = pca_first_basis(a @ a.T)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-9

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 6))
        assert pca_first_basis(a @ a.T).sum() >= 0.0

    def test_perron_frobenius_on_positive_covariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            common = rng.normal(size=(400, 1))
            data = common + 0.3 * rng.normal(size=(400, 6))
            cov = np.cov(data, rowvar=False)
            assert np.all(cov > 0.0)  # positively correlated by construction
            v = pca_first_basis(cov)
            assert v.min() >= -1e-9

    def test_zero_matrix(self):
        with pytest.raises(ValueError, match="degenerate subband"):
            pca_first_basis(np.zeros((3, 3)))


def toy_layout(k=33, q=4, sr=16000):
    bins = np.linspace(0, k - 1, q + 2).astype(int)
    return FilterbankLayout(bins, sr, (k - 1) * 2)


class TestLearnPcaFilterbank:
    def test_rank_one_positive_generator(self):
        rng = np.random.default_rng(6)
        layout = toy_layout()
        pattern = 1.0 + rng.uniform(0.0, 1.0, size=layout.n_bins)
        levels = rng.normal(size=(300, 1))
        log_specs = levels * pattern
        fb = learn_pca_filterbank([log_specs], layout, "pca")
        for j in range(1, fb.n_filters + 1):
            lo, hi = fb.layout.subband(j)
            segment = pattern[lo : hi + 1]
            got = fb.responses[j - 1, lo : hi + 1]
            cos = abs(got @ segment) / np.linalg.norm(segment)
            assert cos >= 1.0 - 1e-6

    def test_normalized_peaks(self):
        rng = np.random.default_rng(7)
        layout = toy_layout()
        log_specs = rng.normal(size=(200, layout.n_bins))
        fb = learn_pca_filterbank([log_specs], layout, "windowed-pca-normalized")
        assert np.allclose(fb.responses.max(axis=1), 1.0, atol=1e-12)
        assert fb.shape_kind == "windowed-pca-normalized"

    def test_tapered_filter_follows_taper_on_uniform_corpus(self):
        # i.i.d. frames with a shared per-frame level: covariance ~ ones matrix,
        # so the tapered dominant eigenvector is the taper itself.
        rng = np.random.default_rng(8)
        layout = toy_layout()
        levels = 3.0 * rng.normal(size=(600, 1))
        log_specs = levels + 0.3 * rng.normal(size=(600, layout.n_bins))
        fb = learn_pca_filterbank([log_specs], layout, "windowed-pca")
        for j in range(1, fb.n_filters + 1):
            lo, hi = fb.layout.subband(j)
            taper = hamming_window(hi - lo + 1)
            got = fb.responses[j - 1, lo : hi + 1]
            cos = abs(got @ taper) / np.linalg.norm(taper)
            assert cos >= 0.9

    def test_unit_norm_before_normalization(self):
        rng = np.random.default_rng(9)
        layout = toy_layout()
        log_specs = rng.normal(size=(150, layout.n_bins))
        fb = learn_pca_filterbank([log_specs], layout, "windowed-pca")
        norms = np.linalg.norm(fb.responses, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_response_named(self, value):
        fb = triangular_responses(FilterbankLayout(np.array([0, 3, 7, 12]), 16000, 24))
        fb.responses[1, 5] = value
        with pytest.raises(ValueError, match="^responses must be finite$"):
            Filterbank(fb.layout, fb.responses, "pca")

    def test_zero_outside_support(self):
        rng = np.random.default_rng(10)
        layout = toy_layout()
        fb = learn_pca_filterbank([rng.normal(size=(100, layout.n_bins))], layout, "pca")
        for j in range(1, fb.n_filters + 1):
            lo, hi = fb.layout.subband(j)
            outside = np.concatenate([fb.responses[j - 1, :lo], fb.responses[j - 1, hi + 1 :]])
            assert np.array_equal(outside, np.zeros_like(outside))

    def test_degenerate_subband_falls_back_to_triangle(self, caplog):
        layout = toy_layout()
        log_specs = np.tile(np.linspace(0.0, 1.0, layout.n_bins), (20, 1))
        with caplog.at_level(logging.WARNING, logger="warpfilt.filterbank"):
            fb = learn_pca_filterbank([log_specs], layout, "pca")
        tri = triangular_responses(layout)
        assert np.array_equal(fb.responses, tri.responses)
        assert any("degenerate subband" in r.message for r in caplog.records)

    def test_layouts_identical_across_shapes(self):
        rng = np.random.default_rng(11)
        scale = mel_warping_scale(8000.0)
        layout = place_filter_edges(scale, 12, 256, 16000)
        log_specs = rng.normal(size=(200, layout.n_bins))
        banks = [
            triangular_responses(layout),
            learn_pca_filterbank([log_specs], layout, "pca"),
            learn_pca_filterbank([log_specs], layout, "windowed-pca"),
            learn_pca_filterbank([log_specs], layout, "windowed-pca-normalized"),
        ]
        kinds = {fb.shape_kind for fb in banks}
        assert kinds == {"triangular", "pca", "windowed-pca", "windowed-pca-normalized"}
        for fb in banks[1:]:
            assert np.array_equal(fb.layout.boundary_bins, banks[0].layout.boundary_bins)


def mel_layout():
    return place_filter_edges(mel_warping_scale(8000.0), 20, 512, 16000)


def tapered(covariance, window):
    """The covariance of the window-tapered subband: w w^T * C elementwise."""
    return covariance if window is None else window[:, None] * covariance * window


class TestSubbandStatistics:
    @pytest.mark.parametrize("taper", [False, True])
    def test_one_block_equals_subband_covariance(self, taper):
        layout = mel_layout()
        log_specs = np.random.default_rng(20).normal(size=(300, layout.n_bins))
        covariances = subband_covariance([log_specs[:120], log_specs[120:]], layout)
        for j, covariance in enumerate(covariances, start=1):
            lo, hi = layout.subband(j)
            window = hamming_window(hi - lo + 1) if taper else None
            expected, _ = two_pass_covariance(log_specs, (lo, hi), window)
            if taper:
                np.testing.assert_allclose(tapered(covariance, window), expected, rtol=1e-12, atol=1e-13)
            else:
                assert np.array_equal(covariance, expected)

    @pytest.mark.parametrize("taper", [False, True])
    def test_blocks_match_two_pass(self, monkeypatch, taper):
        # Far-off-zero means and uneven blocks: the pairwise merge must not lose digits.
        layout = mel_layout()
        log_specs = 50.0 + np.random.default_rng(21).normal(size=(1000, layout.n_bins))
        monkeypatch.setattr(filterbank, "_BLOCK_FRAMES", 7)
        covariances = subband_covariance([log_specs], layout)
        for j, covariance in enumerate(covariances, start=1):
            lo, hi = layout.subband(j)
            window = hamming_window(hi - lo + 1) if taper else None
            expected, _ = two_pass_covariance(log_specs, (lo, hi), window)
            np.testing.assert_allclose(tapered(covariance, window), expected, rtol=1e-12, atol=1e-13)

    def test_independent_of_batch_split(self, monkeypatch):
        layout = mel_layout()
        log_specs = np.random.default_rng(22).normal(size=(500, layout.n_bins))
        monkeypatch.setattr(filterbank, "_BLOCK_FRAMES", 64)
        whole = subband_covariance([log_specs], layout)
        pieces = subband_covariance(np.split(log_specs, [1, 3, 70, 200, 201, 455]), layout)
        assert len(whole) == len(pieces) == layout.n_filters
        for a, b in zip(whole, pieces):
            assert np.array_equal(a, b)

    def test_filterbank_from_blocks_matches_whole_array(self, monkeypatch):
        layout = mel_layout()
        log_specs = np.random.default_rng(23).normal(size=(800, layout.n_bins)) * np.linspace(1.0, 2.0, layout.n_bins)
        whole = learn_pca_filterbank([log_specs], layout, "windowed-pca-normalized")
        monkeypatch.setattr(filterbank, "_BLOCK_FRAMES", 100)
        blocked = learn_pca_filterbank([log_specs], layout, "windowed-pca-normalized")
        assert blocked.shape_kind == whole.shape_kind == "windowed-pca-normalized"
        np.testing.assert_allclose(blocked.responses, whole.responses, atol=1e-9)

    @pytest.mark.parametrize("kind", ["windowed-pca", "windowed-pca-normalized"])
    def test_windowed_matches_tapered_frames(self, kind):
        # The reference tapers every frame of a subband; the filterbank tapers its covariance.
        layout = mel_layout()
        rng = np.random.default_rng(25)
        levels = rng.normal(size=(400, 1)) * np.linspace(1.0, 2.0, layout.n_bins)
        log_specs = levels + 0.3 * rng.normal(size=(400, layout.n_bins))
        fb = learn_pca_filterbank([log_specs], layout, kind)
        for j in range(1, layout.n_filters + 1):
            lo, hi = layout.subband(j)
            expected = pca_first_basis(two_pass_covariance(log_specs, (lo, hi), hamming_window(hi - lo + 1))[0])
            if kind == "windowed-pca-normalized":
                expected = expected / expected.max()
            np.testing.assert_allclose(fb.responses[j - 1, lo : hi + 1], expected, rtol=0.0, atol=1e-12)

    def test_memory_holds_one_block(self, monkeypatch):
        layout = mel_layout()
        rng = np.random.default_rng(24)
        monkeypatch.setattr(filterbank, "_BLOCK_FRAMES", 1024)
        # 24000 frames: 49 MB of log spectra if stacked
        batches = (rng.normal(size=(400, layout.n_bins)) for _ in range(60))
        tracemalloc.start()
        try:
            learn_pca_filterbank(batches, layout, "windowed-pca")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"statistics allocated {peak / 2**20:.1f} MiB"

    def test_validation(self):
        layout = toy_layout()
        with pytest.raises(ValueError, match="bin count"):
            subband_covariance([np.zeros((3, layout.n_bins + 1))], layout)
        with pytest.raises(ValueError, match="need >=2 frames"):
            learn_pca_filterbank([np.zeros((1, layout.n_bins))], layout, "pca")
        for kind in ("triangular", "mel"):
            with pytest.raises(ValueError, match="not a PCA shape kind"):
                learn_pca_filterbank([np.zeros((2, layout.n_bins))], layout, kind)
