import numpy as np
import pytest

from warpfilt import analysis
from warpfilt.analysis import f_ratio, f_ratio_report


def gaussian_groups(means, n_frames, q=4, scale=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return {
        f"s{i}": rng.normal(m, scale, size=(n_frames, q)) for i, m in enumerate(means)
    }


class TestFRatio:
    def test_identical_means_zero(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(50, 3))
        data = {"a": base.copy(), "b": base.copy(), "c": base.copy()}
        ratios, avg = f_ratio(data)
        assert np.array_equal(ratios, np.zeros(3))
        assert avg == 0.0

    def test_two_speaker_gaussian_analytic(self):
        data = gaussian_groups([0.0, 2.0], n_frames=100_000, seed=2)
        ratios, avg = f_ratio(data)
        assert np.all(np.abs(ratios - 1.0) <= 0.05)
        assert abs(avg - 1.0) <= 0.05

    def test_affine_invariance(self):
        data = gaussian_groups([0.0, 1.0, 3.0], n_frames=500, seed=3)
        base, base_avg = f_ratio(data)
        shifted, _ = f_ratio({k: v + 11.5 for k, v in data.items()})
        scaled, _ = f_ratio({k: 3.0 * v for k, v in data.items()})
        both, both_avg = f_ratio({k: 3.0 * v - 2.0 for k, v in data.items()})
        assert np.abs(shifted - base).max() <= 1e-9
        assert np.abs(scaled - base).max() <= 1e-9
        assert np.abs(both - base).max() <= 1e-9
        assert abs(both_avg - base_avg) <= 1e-9

    def test_permutation_invariance(self):
        data = gaussian_groups([0.0, 2.0], n_frames=300, seed=4)
        forward, _ = f_ratio(data)
        reversed_order, _ = f_ratio(dict(reversed(list(data.items()))))
        shuffled = {k: v[np.random.default_rng(5).permutation(v.shape[0])] for k, v in data.items()}
        shuffled_ratios, _ = f_ratio(shuffled)
        assert np.abs(forward - reversed_order).max() <= 1e-12
        assert np.abs(forward - shuffled_ratios).max() <= 1e-9

    def test_zero_within_class_variance(self):
        data = {"a": np.ones((5, 2)), "b": np.zeros((5, 2))}
        with pytest.raises(ValueError, match="zero within-class variance"):
            f_ratio(data)

    def test_needs_two_speakers(self):
        with pytest.raises(ValueError):
            f_ratio({"a": np.random.default_rng(6).normal(size=(5, 2))})

    def test_needs_two_frames_per_speaker(self):
        with pytest.raises(ValueError):
            f_ratio({"a": np.ones((1, 2)), "b": np.zeros((5, 2))})


class TestFRatioReport:
    def test_identical_variants_no_winners(self):
        data = gaussian_groups([0.0, 2.0], n_frames=200, seed=7)
        report = f_ratio_report({"a": data, "b": data})
        assert np.array_equal(report.ratios[:, 0], report.ratios[:, 1])
        assert report.winners == [None] * report.ratios.shape[0]

    def test_common_scaling_leaves_ratios_unchanged(self):
        data = gaussian_groups([0.0, 2.0], n_frames=200, seed=8)
        scaled = {k: 5.0 * v for k, v in data.items()}
        report = f_ratio_report({"plain": data, "scaled": scaled})
        assert np.abs(report.ratios[:, 0] - report.ratios[:, 1]).max() <= 1e-9

    def test_doubled_separation_quadruples_average(self):
        close = gaussian_groups([0.0, 2.0], n_frames=100_000, seed=9)
        far = gaussian_groups([0.0, 4.0], n_frames=100_000, seed=10)
        report = f_ratio_report({"close": close, "far": far})
        ratio = report.averages[1] / report.averages[0]
        assert abs(ratio - 4.0) <= 0.4
        assert all(w == "far" for w in report.winners)

    def test_mismatched_filter_counts(self):
        a = gaussian_groups([0.0, 2.0], n_frames=50, q=4, seed=11)
        b = gaussian_groups([0.0, 2.0], n_frames=50, q=5, seed=12)
        with pytest.raises(ValueError):
            f_ratio_report({"a": a, "b": b})

    def test_needs_two_variants(self):
        data = gaussian_groups([0.0, 2.0], n_frames=50, seed=13)
        with pytest.raises(ValueError):
            f_ratio_report({"only": data})

    def test_text_and_tsv_render(self):
        data = gaussian_groups([0.0, 2.0], n_frames=100, seed=14)
        report = f_ratio_report({"mel": data, "learned": data})
        text = report.to_text()
        assert "Filter" in text and "Avg." in text
        tsv = report.to_tsv()
        header = tsv.splitlines()[0].split("\t")
        assert header == ["filter", "mel", "learned", "winner"]
        assert len(tsv.splitlines()) == report.ratios.shape[0] + 2
        rows = [line.split("\t") for line in tsv.splitlines()[1:]]
        cells = np.array([[float(cell) for cell in row[1:3]] for row in rows])
        assert np.array_equal(cells, np.vstack([report.ratios, report.averages]))


def reference_winners(ratios, names):
    """The former winner loop, one filter at a time."""
    winners = []
    for j in range(ratios.shape[0]):
        row = ratios[j]
        best = row.max()
        winners.append(names[int(row.argmax())] if (row == best).sum() == 1 else None)
    return winners


class TestWinnersReference:
    """The batched winners equal the former per-filter loop, ties and NaN among them."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matrices_with_ties(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        n_filters, n_variants = int(rng.integers(1, 40)), int(rng.integers(2, 6))
        # Few distinct values, so many rows tie for their maximum.
        ratios = rng.integers(0, 3, size=(n_filters, n_variants)).astype(np.float64)
        if seed % 4 == 1:
            ratios[rng.random(ratios.shape) < 0.1] = np.nan
        elif seed % 4 == 2:
            ratios[rng.random(ratios.shape) < 0.2] = np.inf
        ratios[0] = ratios[0].max()
        names = [f"v{i}" for i in range(n_variants)]
        columns = dict(zip(names, ratios.T))
        monkeypatch.setattr(analysis, "f_ratio", lambda name: (columns[name], 0.0))
        report = f_ratio_report({name: name for name in names})
        assert np.array_equal(report.ratios, ratios, equal_nan=True)
        assert report.winners == reference_winners(ratios, names)
        assert report.winners[0] is None
