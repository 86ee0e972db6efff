import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import warpfilt

from warpfilt.dsp import hamming_window, power_spectrum
from warpfilt.features import FeatureConfig, utterance_spectra
from warpfilt.filterbank import place_filter_edges
from warpfilt.sad import bi_gaussian_sad, frame_log_energy, voiced_mask
from warpfilt.scale import (
    AREA_SHIFT,
    Ltas,
    WarpingScale,
    average_ltas,
    build_warping_scale,
    compute_ltas,
    equal_area_partition,
    mel,
    mel_warping_scale,
    partition_areas,
)
from warpfilt.store import load_manifest, load_wav


def shifted_log(values):
    log_v = np.log(np.maximum(values, np.finfo(float).tiny))
    return log_v - log_v.min() + AREA_SHIFT


class TestComputeLtas:
    def test_mean_of_two_frames(self):
        spec = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        ltas = compute_ltas(spec, 4000.0)
        assert np.array_equal(ltas.values, [2.0, 2.0, 2.0])
        assert ltas.bin_hz == 4000.0

    def test_single_frame_identity(self):
        spec = np.array([[5.0, 1.0, 0.5]])
        ltas = compute_ltas(spec, 4000.0)
        assert np.array_equal(ltas.values, spec[0])

    def test_mask_selects_frame_zero(self):
        rng = np.random.default_rng(0)
        spec = rng.uniform(size=(6, 3))
        mask = np.zeros(6, dtype=bool)
        mask[0] = True
        ltas = compute_ltas(spec[mask], 4000.0)
        assert np.array_equal(ltas.values, spec[0])

    def test_empty_selection(self):
        with pytest.raises(ValueError, match="no frames selected"):
            compute_ltas(np.ones((0, 3)), 4000.0)


class TestAverageLtas:
    def test_symmetric_pair(self):
        a = Ltas(np.array([0.0, 2.0]), 1.0)
        b = Ltas(np.array([2.0, 0.0]), 1.0)
        assert np.array_equal(average_ltas([a, b]).values, [1.0, 1.0])

    def test_single_identity(self):
        a = Ltas(np.array([1.0, 2.0]), 1.0)
        assert np.array_equal(average_ltas([a]).values, a.values)

    def test_idempotent_over_copies(self):
        a = Ltas(np.array([0.5, 1.5, 2.5]), 1.0)
        avg = average_ltas([a] * 7)
        assert np.allclose(avg.values, a.values, atol=1e-15)

    def test_mismatched_k(self):
        with pytest.raises(ValueError, match="mismatched"):
            average_ltas([Ltas(np.ones(3), 1.0), Ltas(np.ones(4), 1.0)])

    def test_mismatched_bin_spacing(self):
        with pytest.raises(ValueError, match="mismatched bin spacing"):
            average_ltas(iter([Ltas(np.ones(3), 1.0), Ltas(np.ones(3), 2.0)]))

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            average_ltas(iter([]))

    @staticmethod
    def generated(n, k=4097):
        rng = np.random.default_rng(n)
        for i in range(n):
            yield Ltas(rng.exponential(size=k), 3.90625)

    def test_generator_in_one_running_sum(self):
        """Memory holds a few K-vectors however many LTAS arrive, and the average is np.mean's, bit for bit."""
        average_ltas(self.generated(2))  # first-call allocations of numpy's random module are not the fold's
        peaks = {}
        for n in (20, 2000):
            tracemalloc.start()
            avg = average_ltas(self.generated(n))
            peaks[n] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            stacked = np.stack([item.values for item in self.generated(n)])
            assert np.array_equal(avg.values, np.mean(stacked, axis=0))
            assert avg.bin_hz == 3.90625
        assert abs(peaks[2000] - peaks[20]) < 4 * 4097 * 8, peaks


def brute_force_spread(areas, q):
    cum = np.cumsum(areas)
    best = np.inf
    for combo in itertools.combinations(range(len(areas) - 1), q - 1):
        edges = list(combo) + [len(areas) - 1]
        sums = np.diff(cum[edges], prepend=0.0)
        best = min(best, sums.max() - sums.min())
    return best


def earlier_search_spread(areas, q):
    """Spread of the search that preceded the exact one, on its path for Q >= 11 at K = 257.

    There its candidate count exceeded the enumeration cap, so it placed each
    boundary nearest the remaining-average target and then moved one boundary
    at a time while the spread fell.
    """
    cum = np.cumsum(areas)
    k = cum.size

    def spread(e):
        a = np.diff(cum[e], prepend=0.0)
        return a.max() - a.min()

    edges = np.empty(q, dtype=np.int64)
    prev, consumed = -1, 0.0
    for j in range(1, q):
        target = consumed + (cum[-1] - consumed) / (q - j + 1)
        pos = int(np.searchsorted(cum, target, side="left"))
        if pos > 0 and abs(cum[pos - 1] - target) < abs(cum[pos] - target):
            pos -= 1
        prev = edges[j - 1] = min(max(pos, prev + 1), k - 1 - (q - j))
        consumed = cum[prev]
    edges[q - 1] = k - 1
    best = spread(edges)
    for _ in range(50):
        improved = False
        for i in range(q - 1):
            lo = (edges[i - 1] if i > 0 else -1) + 1
            trial = edges.copy()
            for pos in range(lo, edges[i + 1]):
                if pos == edges[i]:
                    continue
                trial[i] = pos
                s = spread(trial)
                if s < best - 1e-15:
                    best, edges[i], improved = s, pos, True
            trial[i] = edges[i]
        if not improved:
            break
    return best


class TestPartition:
    def test_flat_spectrum_uniform_bands(self):
        part = equal_area_partition(Ltas(np.ones(256), 1.0), 4)
        assert part.bands == [(0, 63), (64, 127), (128, 191), (192, 255)]

    def test_documented_two_band_split(self):
        part = partition_areas(np.array([2.0, 2.0, 1.0, 1.0, 1.0, 1.0]), 2)
        assert part.bands == [(0, 1), (2, 5)]
        assert np.allclose(part.areas, [4.0, 4.0], atol=1e-12)

    def test_more_bands_than_bins(self):
        with pytest.raises(ValueError, match="more bands than bins"):
            equal_area_partition(Ltas(np.ones(3), 1.0), 4)

    def test_invariants_and_brute_force_on_random_spectra(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            k = int(rng.integers(6, 18))
            q = int(rng.integers(2, min(6, k) + 1))
            values = rng.uniform(0.01, 5.0, size=k)
            part = equal_area_partition(Ltas(values, 1.0), q)
            areas_vec = shifted_log(values)
            # contiguity and coverage
            assert part.bands[0][0] == 0 and part.bands[-1][1] == k - 1
            for (_, h), (l2, _) in zip(part.bands, part.bands[1:]):
                assert l2 == h + 1
            assert all(h >= l for l, h in part.bands)
            spread = part.areas.max() - part.areas.min()
            assert spread <= areas_vec.max() + 1e-9
            assert spread <= brute_force_spread(areas_vec, q) + 1e-9

    @pytest.mark.slow
    @pytest.mark.parametrize("q", [12, 20, 32, 64])
    def test_one_bin_bound_at_cli_band_counts(self, q):
        rng = np.random.default_rng(q)
        for _ in range(200):
            areas = shifted_log(rng.uniform(0.01, 5.0, size=257))
            part = partition_areas(areas, q)
            spread = part.areas.max() - part.areas.min()
            assert spread <= areas.max() + 1e-9
            assert spread <= earlier_search_spread(areas, q) + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_minimum_spread_equals_brute_force(self, data):
        k = data.draw(st.integers(2, 12))
        q = data.draw(st.integers(2, k))
        areas = np.array(data.draw(st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k)))
        part = partition_areas(areas, q)
        assert part.bands[0][0] == 0 and part.bands[-1][1] == k - 1
        assert all(lo <= hi and hi + 1 == nxt for (lo, hi), (nxt, _) in zip(part.bands, part.bands[1:] + [(k, 0)]))
        assert abs((part.areas.max() - part.areas.min()) - brute_force_spread(areas, q)) <= 1e-9

    @pytest.mark.parametrize("q", [40, 128])
    def test_many_bands_within_memory(self, q):
        # The search holds the contiguous sums of K bins and Q + 1 masks over the
        # prefix points; any growth past that shows as a failure under the
        # child's 1.5 GB address-space limit instead of taking the machine's memory.
        script = (
            "import json, resource, sys; import numpy as np; "
            "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20)); "
            "from warpfilt.scale import partition_areas; "
            "p = partition_areas(np.log1p(1000.0 / (1.0 + np.arange(257))), int(sys.argv[1])); "
            "print(json.dumps(p.bands))"
        )
        src = str(Path(warpfilt.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(q)], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr[-500:]
        bands = json.loads(proc.stdout)
        assert len(bands) == q and bands[0][0] == 0 and bands[-1][1] == 256
        assert all(lo <= hi and hi + 1 == nxt for (lo, hi), (nxt, _) in zip(bands, bands[1:] + [[257, 0]]))

    def test_each_band_at_least_one_bin(self):
        values = np.concatenate([np.full(3, 1e6), np.full(5, 1e-6)])
        part = partition_areas(values, 8)
        assert [h - l for l, h in part.bands] == [0] * 8


class TestBuildWarpingScale:
    def test_flat_partition_linear(self):
        part = equal_area_partition(Ltas(np.ones(256), 1.0), 4)
        scale = build_warping_scale(part, 1.0, 255.0)
        deviation = np.abs(scale.knots_hz - scale.knots_warped * 255.0)
        assert deviation.max() <= 1.0  # within one bin of linear

    def test_endpoints(self):
        part = partition_areas(np.array([2.0, 2.0, 1.0, 1.0, 1.0, 1.0]), 2)
        scale = build_warping_scale(part, 1.0, 5.0)
        assert scale.warp(0.0) == 0.0
        assert scale.warp(5.0) == 1.0

    def test_band_midpoints_map_to_cell_centers(self):
        part = partition_areas(np.array([2.0, 2.0, 1.0, 1.0, 1.0, 1.0]), 2)
        scale = build_warping_scale(part, 1.0, 5.0)
        assert np.allclose(scale.knots_hz, [0.0, 0.5, 3.5, 5.0])
        assert np.allclose(scale.knots_warped, [0.0, 0.25, 0.75, 1.0])

    def test_one_bin_end_bands_knot_a_quarter_bin_in(self):
        # Both bands are one bin wide, so their midpoints, 0 and 1, are the end knots.
        part = partition_areas(np.array([1.0, 1.0]), 2)
        scale = build_warping_scale(part, 1.0, 1.0)
        assert np.array_equal(scale.knots_hz, [0.0, 0.25, 0.75, 1.0])
        assert np.array_equal(scale.knots_warped, [0.0, 0.25, 0.75, 1.0])

    def test_strictly_monotone_on_random_spectra(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = rng.uniform(0.01, 4.0, size=64)
            part = equal_area_partition(Ltas(values, 1.0), 8)
            scale = build_warping_scale(part, 1.0, 63.0)
            assert np.all(np.diff(scale.knots_hz) > 0)
            assert np.all(np.diff(scale.knots_warped) > 0)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0.1, 3.0, size=128)
        part = equal_area_partition(Ltas(values, 1.0), 10)
        scale = build_warping_scale(part, 1.0, 127.0)
        f = rng.uniform(0.0, 127.0, size=1000)
        back = scale.inverse(scale.warp(f))
        assert np.abs(back - f).max() <= 1e-6 * 127.0


def earlier_build_warping_scale(partition, bin_hz, nyquist_hz, kind):
    """build_warping_scale as it was when it rejected a one-bin first or last band: the reference where it succeeds."""
    if partition.bands[0][0] == partition.bands[0][1] or partition.bands[-1][0] == partition.bands[-1][1]:
        raise ValueError("degenerate scale")
    q = len(partition.bands)
    mids_hz = np.array([(lo + hi) / 2.0 * bin_hz for lo, hi in partition.bands])
    warped = (2.0 * np.arange(1, q + 1) - 1.0) / (2.0 * q)
    knots_hz = np.concatenate(([0.0], mids_hz, [nyquist_hz]))
    knots_warped = np.concatenate(([0.0], warped, [1.0]))
    return WarpingScale(knots_hz, knots_warped, kind)


def earlier_place_filter_edges(scale, q, n_fft, sample_rate_hz):
    """The boundary bins of place_filter_edges as it was when it rejected a layout that ran past the last bin."""
    k = n_fft // 2 + 1
    bins = np.rint(scale.inverse(np.arange(q + 2) / (q + 1)) / (sample_rate_hz / n_fft)).astype(np.int64)
    bins[0] = 0
    for j in range(1, q + 2):
        if bins[j] <= bins[j - 1]:
            bins[j] = bins[j - 1] + 1
    if bins[-1] > k - 1:
        raise ValueError("too few bins")
    bins[-1] = k - 1
    return bins


@pytest.fixture(scope="module")
def corpus_ltas(small_corpus):
    """The average LTAS of the 3-speaker test corpus under the speech and speech-pitch frame selections."""
    segments = [load_wav(entry.path) for entry in load_manifest(small_corpus["manifest"]).entries]
    return {
        kind: average_ltas([compute_ltas(utterance_spectra(seg, FeatureConfig(), 512, voicing), seg.sample_rate_hz / 512) for seg in segments])
        for kind, voicing in (("speech-based", False), ("speech-based-pitch", True))
    }


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["mel", "speech-based", "speech-based-pitch"])
def test_every_filter_count_up_to_k_minus_2(corpus_ltas, kind):
    """Each Q up to K - 2 = 255 gives a scale and a layout, equal to the earlier code's wherever that succeeded."""
    def or_none(fn, *args):
        try:
            return fn(*args)
        except ValueError:
            return None

    earlier_failed = []
    for q in range(1 if kind == "mel" else 2, 256):
        if kind == "mel":
            scale = earlier = mel_warping_scale(8000.0)
        else:
            partition = equal_area_partition(corpus_ltas[kind], q)
            scale = build_warping_scale(partition, corpus_ltas[kind].bin_hz, 8000.0, kind)
            earlier = or_none(earlier_build_warping_scale, partition, corpus_ltas[kind].bin_hz, 8000.0, kind)
        bins = place_filter_edges(scale, q, 512, 16000).boundary_bins
        assert bins.size == q + 2 and bins[0] == 0 and bins[-1] == 256 and np.all(np.diff(bins) > 0)
        if earlier is not None:
            assert np.array_equal(scale.knots_hz, earlier.knots_hz)
            assert np.array_equal(scale.knots_warped, earlier.knots_warped)
        earlier_bins = None if earlier is None else or_none(earlier_place_filter_edges, earlier, q, 512, 16000)
        if earlier_bins is None:
            earlier_failed.append(q)
        else:
            assert np.array_equal(bins, earlier_bins)
    # The speech scales reach counts where the earlier code failed; mel never did.
    assert (earlier_failed == []) == (kind == "mel"), earlier_failed


class TestMelScale:
    def test_mel_1000(self):
        assert abs(mel(1000.0) - 1000.0) <= 0.1

    def test_mel_0(self):
        assert mel(0.0) == 0.0

    def test_mel_700(self):
        assert np.isclose(mel(700.0), 2595.0 * np.log10(2.0), atol=1e-9)

    def test_scale_endpoints_and_monotonicity(self):
        scale = mel_warping_scale(8000.0)
        assert scale.warp(0.0) == 0.0
        assert scale.warp(8000.0) == 1.0
        assert np.all(np.diff(scale.knots_warped) > 0)

    def test_inverse_round_trip(self):
        scale = mel_warping_scale(8000.0)
        f = np.random.default_rng(5).uniform(0.0, 8000.0, size=1000)
        assert np.abs(scale.inverse(scale.warp(f)) - f).max() <= 1e-6 * 8000.0

    def test_invalid_nyquist(self):
        with pytest.raises(ValueError):
            mel_warping_scale(0.0)


class TestScaleKindValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown scale kind"):
            WarpingScale(np.array([0.0, 1.0]), np.array([0.0, 1.0]), "bark")

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="degenerate scale"):
            WarpingScale(np.array([0.0, 2.0, 1.0]), np.array([0.0, 0.5, 1.0]), "mel")

    @pytest.mark.parametrize("field", ["knots_hz", "knots_warped"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_knot_named(self, field, value):
        knots = {"knots_hz": np.array([0.0, 1000.0, 2000.0, 4000.0]), "knots_warped": np.array([0.0, 0.3, 0.6, 1.0])}
        knots[field][2] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            WarpingScale(knots["knots_hz"], knots["knots_warped"], "speech-based")


def test_pitch_selection_changes_scale():
    """Tone + loud-noise corpus: SAD keeps noise frames, pitch selection drops them."""
    sr = 16000
    rng = np.random.default_rng(6)
    frame_len = 320
    tone = np.sin(2 * np.pi * 130 * np.arange(30 * frame_len) / sr).reshape(30, frame_len)
    noise = 1.25 * rng.uniform(-1.0, 1.0, size=(30, frame_len))  # energy close to the tone's
    quiet = 1e-4 * rng.uniform(-1.0, 1.0, size=(30, frame_len))
    frames = np.vstack([tone, noise, quiet])
    spec = power_spectrum(frames, 512, hamming_window(frame_len))
    sad_mask = bi_gaussian_sad(frame_log_energy(frames))
    pitch_mask = voiced_mask(frames, sr)
    assert pitch_mask.sum() < sad_mask.sum()
    q = 8
    all_scale = build_warping_scale(
        equal_area_partition(compute_ltas(spec[sad_mask], sr / 512), q), sr / 512, sr / 2.0
    )
    pitch_scale = build_warping_scale(
        equal_area_partition(compute_ltas(spec[pitch_mask], sr / 512), q), sr / 512, sr / 2.0, "speech-based-pitch"
    )
    assert not np.array_equal(all_scale.knots_hz, pitch_scale.knots_hz)
