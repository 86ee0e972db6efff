import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import warpfilt
from warpfilt.backend import (
    COST_PRESETS,
    VARIANCE_FLOOR,
    GmmModel,
    Trial,
    TrialScoreSet,
    _BLOCK,
    _kmeans_style_init,
    _logsumexp,
    component_log_densities,
    det_curve,
    eer,
    fuse_scores,
    log_likelihoods,
    map_adapt_means,
    min_dcf,
    score_segment,
    score_trial,
    train_ubm,
)
from warpfilt.features import FeatureMatrix


def sample_gmm(rng, weights, means, variances, n):
    comps = rng.choice(len(weights), p=weights, size=n)
    means = np.asarray(means)
    variances = np.asarray(variances)
    return means[comps] + np.sqrt(variances[comps]) * rng.standard_normal((n, means.shape[1]))


def score_set(targets, impostors):
    trials = [Trial("m", f"t{i}", "target", float(s)) for i, s in enumerate(targets)]
    trials += [Trial("m", f"i{i}", "impostor", float(s)) for i, s in enumerate(impostors)]
    return TrialScoreSet(trials)


class TestTrainUbm:
    def test_recovers_two_components(self):
        rng = np.random.default_rng(0)
        true_means = np.array([[-2.0, 0.0], [2.0, 1.0]])
        x = sample_gmm(rng, [0.5, 0.5], true_means, np.full((2, 2), 0.2), 4000)
        model, _ = train_ubm(x, 2, iters=20, seed=1)
        order = np.argsort(model.means[:, 0])
        assert np.abs(model.means[order] - true_means).max() <= 0.1

    def test_single_component_closed_form(self):
        rng = np.random.default_rng(2)
        x = rng.normal(3.0, 2.0, size=(500, 4))
        model, _ = train_ubm(x, 1, iters=10, seed=0)
        assert np.array_equal(model.weights, [1.0])
        assert np.allclose(model.means[0], x.mean(axis=0), rtol=0, atol=1e-12)
        assert np.allclose(model.variances[0], x.var(axis=0), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loglik_nondecreasing(self, seed):
        rng = np.random.default_rng(seed + 100)
        x = sample_gmm(
            rng, [0.3, 0.4, 0.3], [[-3.0, 0.0], [0.0, 2.0], [3.0, -1.0]], np.full((3, 2), 0.5), 2000
        )
        _, history = train_ubm(x, 4, iters=10, seed=seed)
        assert np.all(np.diff(history) >= -1e-8)

    def test_too_few_frames(self):
        with pytest.raises(ValueError, match="too few frames"):
            train_ubm(np.zeros((19, 3)), 2)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 3))
        a, _ = train_ubm(x, 4, iters=5, seed=7)
        b, _ = train_ubm(x, 4, iters=5, seed=7)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.weights, b.weights)


class TestMapAdaptMeans:
    def ubm(self):
        return GmmModel(
            np.array([0.5, 0.5]),
            np.array([[-5.0, -5.0], [5.0, 5.0]]),
            np.full((2, 2), 1.0),
        )

    def test_far_component_unchanged(self):
        rng = np.random.default_rng(4)
        data = rng.normal(5.0, 1.0, size=(200, 2))  # near component 1 only
        adapted = map_adapt_means(self.ubm(), data)
        assert np.abs(adapted.means[0] - [-5.0, -5.0]).max() <= 1e-6
        assert np.abs(adapted.means[1] - data.mean(axis=0)).max() <= 0.5

    def test_zero_relevance_gives_data_mean(self):
        rng = np.random.default_rng(5)
        data = rng.normal(5.0, 1.0, size=(500, 2))
        adapted = map_adapt_means(self.ubm(), data, relevance=0.0)
        assert np.allclose(adapted.means[1], data.mean(axis=0), atol=1e-9)

    def test_zero_relevance_keeps_component_without_weight(self):
        ubm = GmmModel(np.array([0.5, 0.5]), np.array([[-50.0, -50.0], [5.0, 5.0]]), np.ones((2, 2)))
        data = np.random.default_rng(5).normal(5.0, 1.0, size=(100, 2))
        adapted = map_adapt_means(ubm, data, relevance=0.0)
        assert np.array_equal(adapted.means[0], ubm.means[0])
        assert np.allclose(adapted.means[1], data.mean(axis=0), atol=1e-9)

    def test_zero_relevance_gives_weighted_mean_of_tiny_weight(self):
        # Component 0 weighs the frames by 2.7e-19 in all; its mean is still its weighted data mean.
        ubm = GmmModel(np.array([0.5, 0.5]), np.array([[-4.0, -4.0], [5.0, 5.0]]), np.ones((2, 2)))
        data = np.random.default_rng(0).normal(5.0, 1.0, size=(200, 2))
        gamma, _ = full_responsibilities(ubm, data)
        assert 0.0 < gamma[:, 0].sum() < 1e-12
        weighted_mean = gamma[:, 0] @ data / gamma[:, 0].sum()
        adapted = map_adapt_means(ubm, data, relevance=0.0)
        np.testing.assert_allclose(adapted.means[0], weighted_mean, rtol=1e-9)
        assert adapted.means[0] == pytest.approx([1.90, 3.85], abs=0.01)

    def test_midpoint_at_matching_relevance(self):
        rng = np.random.default_rng(6)
        ubm = GmmModel(np.array([1.0]), np.array([[1.0, -1.0]]), np.array([[1.0, 1.0]]))
        data = rng.normal(0.0, 1.0, size=(14, 2))
        adapted = map_adapt_means(ubm, data, relevance=14.0)
        expected = 0.5 * (ubm.means[0] + data.mean(axis=0))
        assert np.allclose(adapted.means[0], expected, rtol=0, atol=1e-12)

    def test_adapted_means_on_segment(self):
        from scipy.special import logsumexp

        from warpfilt.backend import component_log_densities

        rng = np.random.default_rng(7)
        ubm_model = self.ubm()
        data = rng.normal(0.0, 3.0, size=(50, 2))
        adapted = map_adapt_means(ubm_model, data, relevance=14.0)
        # posterior data means, recomputed independently
        log_joint = np.log(ubm_model.weights) + component_log_densities(ubm_model, data)
        gamma = np.exp(log_joint - logsumexp(log_joint, axis=1, keepdims=True))
        ex = gamma.T @ data / gamma.sum(axis=0)[:, None]
        lo = np.minimum(ubm_model.means, ex) - 1e-12
        hi = np.maximum(ubm_model.means, ex) + 1e-12
        assert np.all((adapted.means >= lo) & (adapted.means <= hi))
        assert np.array_equal(adapted.weights, ubm_model.weights)
        assert np.array_equal(adapted.variances, ubm_model.variances)


class TestScoreTrial:
    def test_enroll_equals_ubm_is_zero(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(200, 3))
        ubm, _ = train_ubm(x, 2, iters=3, seed=0)
        test = rng.normal(size=(40, 3))
        assert score_trial(ubm, ubm, test) == 0.0

    def test_single_gaussian_closed_form(self):
        rng = np.random.default_rng(9)
        enroll = GmmModel(np.array([1.0]), np.array([[1.0, 2.0]]), np.array([[1.0, 4.0]]))
        ubm = GmmModel(np.array([1.0]), np.array([[0.0, 0.0]]), np.array([[2.0, 1.0]]))
        x = rng.normal(size=(30, 2))

        def logpdf(x, mean, var):
            return -0.5 * (np.log(2 * np.pi * var) + (x - mean) ** 2 / var).sum(axis=1)

        expected = np.mean(logpdf(x, enroll.means[0], enroll.variances[0]) - logpdf(x, ubm.means[0], ubm.variances[0]))
        assert score_trial(enroll, ubm, x) == pytest.approx(expected, abs=1e-9)

    def test_frame_order_invariance(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(50, 3))
        ubm, _ = train_ubm(rng.normal(size=(200, 3)), 2, iters=3, seed=0)
        enroll = map_adapt_means(ubm, rng.normal(1.0, 1.0, size=(60, 3)))
        a = score_trial(enroll, ubm, x)
        b = score_trial(enroll, ubm, x[::-1])
        assert a == pytest.approx(b, abs=1e-12)

    def test_dimension_mismatch(self):
        ubm = GmmModel(np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
        enroll = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            score_trial(enroll, ubm, np.zeros((5, 3)))

    def test_uses_masked_frames_only(self):
        rng = np.random.default_rng(11)
        ubm, _ = train_ubm(rng.normal(size=(200, 2)), 2, iters=3, seed=0)
        enroll = map_adapt_means(ubm, rng.normal(1.0, 1.0, size=(50, 2)))
        x = rng.normal(size=(20, 2))
        garbage = np.vstack([x, 1e3 * np.ones((5, 2))])
        mask = np.concatenate([np.ones(20, bool), np.zeros(5, bool)])
        masked = FeatureMatrix(garbage, mask)
        assert score_trial(enroll, ubm, masked.speech_frames) == pytest.approx(
            score_trial(enroll, ubm, x), abs=1e-12
        )


class TestFuseScores:
    def test_idempotent(self):
        s = score_set([1.0, 2.0], [-1.0])
        fused = fuse_scores(s, s)
        assert [t.score for t in fused.trials] == [t.score for t in s.trials]

    def test_symmetric(self):
        a = score_set([1.0, 3.0], [0.0])
        b = score_set([3.0, 1.0], [2.0])
        ab = fuse_scores(a, b)
        ba = fuse_scores(b, a)
        assert [t.score for t in ab.trials] == [t.score for t in ba.trials]

    def test_arithmetic(self):
        a = score_set([1.0, 3.0], [])
        b = score_set([3.0, 1.0], [])
        # need an impostor for metric ops but fusion itself is label-agnostic
        fused = fuse_scores(a, b)
        assert [t.score for t in fused.trials] == [2.0, 2.0]

    def test_key_mismatch(self):
        a = score_set([1.0], [0.0])
        b = TrialScoreSet([Trial("m", "other", "target", 1.0), Trial("m", "i0", "impostor", 0.0)])
        with pytest.raises(ValueError, match="keys do not match"):
            fuse_scores(a, b)


class TestDetCurveMetrics:
    def test_separable_sets(self):
        s = score_set([2.0, 3.0], [0.0, 1.0])
        curve = det_curve(s)
        assert eer(curve) == 0.0
        assert min_dcf(curve, 10.0, 1.0, 0.01) == 0.0

    def test_identical_distributions_half(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=5000)
        curve = det_curve(score_set(values, values))
        assert eer(curve) == pytest.approx(0.5, abs=1e-3)

    def test_fully_reversed(self):
        curve = det_curve(score_set([0.0, 0.5], [2.0, 3.0]))
        assert eer(curve) == 1.0

    def test_sweep_monotonicity(self):
        rng = np.random.default_rng(13)
        curve = det_curve(score_set(rng.normal(1, 1, 500), rng.normal(-1, 1, 500)))
        assert np.all(np.diff(curve.p_miss) >= 0)
        assert np.all(np.diff(curve.p_fa) <= 0)

    def test_gaussian_eer(self):
        rng = np.random.default_rng(14)
        curve = det_curve(score_set(rng.normal(1, 1, 20000), rng.normal(-1, 1, 20000)))
        assert eer(curve) == pytest.approx(0.1587, abs=0.02)

    def test_min_dcf_brute_force_oracle(self):
        rng = np.random.default_rng(15)
        targets = rng.normal(1, 1, 400)
        impostors = rng.normal(-1, 1, 400)
        curve = det_curve(score_set(targets, impostors))
        got = min_dcf(curve, 10.0, 1.0, 0.01)
        # independent exhaustive sweep over every distinct score
        best = np.inf
        for theta in np.concatenate([np.unique(np.concatenate([targets, impostors])), [np.inf]]):
            p_miss = np.mean(targets < theta)
            p_fa = np.mean(impostors >= theta)
            best = min(best, 10.0 * p_miss * 0.01 + 1.0 * p_fa * 0.99)
        assert got == pytest.approx(best, abs=1e-9)

    def test_min_dcf_endpoint_bound(self):
        rng = np.random.default_rng(16)
        curve = det_curve(score_set(rng.normal(size=100), rng.normal(size=100)))
        for name, (c_miss, c_fa, p_tar) in COST_PRESETS.items():
            bound = min(c_fa * (1 - p_tar), c_miss * p_tar)
            assert min_dcf(curve, c_miss, c_fa, p_tar) <= bound + 1e-12

    def test_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(17)
        targets = rng.normal(1, 1, 300)
        impostors = rng.normal(-1, 1, 300)
        plain = det_curve(score_set(targets, impostors))
        warped = det_curve(score_set(np.exp(targets), np.exp(impostors)))
        assert eer(plain) == eer(warped)
        assert min_dcf(plain, 10, 1, 0.01) == min_dcf(warped, 10, 1, 0.01)

    def test_reversed_labels_swap_rates(self):
        rng = np.random.default_rng(18)
        targets = rng.normal(1, 1, 200)
        impostors = rng.normal(-1, 1, 200)
        forward = score_set(targets, impostors)
        flipped = score_set(-impostors, -targets)

        def rates(values, theta):
            t = values.scores("target")
            i = values.scores("impostor")
            return np.mean(t < theta), np.mean(i >= theta)

        for theta in rng.uniform(-3, 3, size=50):  # away from sample points a.s.
            p_miss_f, p_fa_f = rates(forward, theta)
            p_miss_r, p_fa_r = rates(flipped, -theta)
            assert p_miss_r == pytest.approx(p_fa_f, abs=1e-12)
            assert p_fa_r == pytest.approx(p_miss_f, abs=1e-12)
        assert eer(det_curve(forward)) == pytest.approx(eer(det_curve(flipped)), abs=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            det_curve(score_set([1.0], []))

    def test_fusion_with_self_preserves_metrics(self):
        rng = np.random.default_rng(19)
        s = score_set(rng.normal(1, 1, 200), rng.normal(-1, 1, 200))
        fused = fuse_scores(s, s)
        assert eer(det_curve(fused)) == eer(det_curve(s))
        assert min_dcf(det_curve(fused), 10, 1, 0.01) == min_dcf(det_curve(s), 10, 1, 0.01)


class TestGmmModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GmmModel(np.array([0.6, 0.6]), np.zeros((2, 2)), np.ones((2, 2)))

    def test_negative_weight_rejected(self):
        # Summing to 1 is not enough: the log of a negative weight is NaN.
        with pytest.raises(ValueError, match="^weights must be non-negative$"):
            GmmModel(np.array([1.5, -0.5]), np.zeros((2, 2)), np.ones((2, 2)))

    def test_zero_dimensions_rejected(self):
        # No model document can hold a mixture of zero dimensions, so none is built.
        with pytest.raises(ValueError, match="^a mixture needs at least one dimension$"):
            GmmModel(np.array([1.0]), np.zeros((1, 0)), np.ones((1, 0)))
        with pytest.raises(ValueError, match="^a mixture needs at least one dimension$"):
            train_ubm(np.zeros((100, 0)), 2)

    def test_variance_floor(self):
        with pytest.raises(ValueError, match="floor"):
            GmmModel(np.array([1.0]), np.zeros((1, 2)), np.full((1, 2), 1e-6))

    @pytest.mark.parametrize("field", ["weights", "means", "variances"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        params = {"weights": np.array([0.5, 0.5]), "means": np.zeros((2, 2)), "variances": np.ones((2, 2))}
        params[field].flat[0] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            GmmModel(**params)

    def test_log_density_constant_must_be_finite(self):
        message = "^component 2 log-density constant is not finite; its means are too large for its variances$"
        # (1e308)^2 overflows; (1e154)^2 does not, but divided by the variance floor it does.
        for mean, variance in [(1e308, 1.0), (1e154, VARIANCE_FLOOR)]:
            means = np.array([[0.0, 0.0], [mean, 0.0]])
            variances = np.array([[1.0, 1.0], [variance, 1.0]])
            with pytest.raises(ValueError, match=message):
                GmmModel(np.array([0.5, 0.5]), means, variances)
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(GmmModel(np.array([0.5, 0.5]), np.zeros((2, 2)), variances), means=means)

    def test_overflowing_log_densities_refused(self):
        # (1e153)^2 is finite; divided by the variance floor it is not.
        model = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.full((1, 2), VARIANCE_FLOOR))
        x = np.array([[0.0, 0.0], [1e153, 0.0]])
        for fn in (component_log_densities, log_likelihoods):
            with pytest.raises(ValueError, match="^log densities overflow"):
                fn(model, x)
        with pytest.raises(ValueError, match="^log densities overflow"):
            score_segment([model], model, x)

    def test_dimension_mismatch_names_both(self):
        model = GmmModel(np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
        with pytest.raises(ValueError, match="^feature dimension 2 differs from model dimension 3$"):
            component_log_densities(model, np.zeros((4, 2)))

    def test_trial_label_validation(self):
        with pytest.raises(ValueError):
            Trial("a", "b", "genuine", 0.0)

    def test_log_likelihoods_shape(self):
        model = GmmModel(np.array([0.5, 0.5]), np.zeros((2, 3)), np.ones((2, 3)))
        assert log_likelihoods(model, np.zeros((7, 3))).shape == (7,)


class TestZeroWeightComponents:
    """A weight of 0 marks a dead component: its log weight is -inf and it gets no responsibility.

    RuntimeWarnings are errors under the test configuration, so each test also checks that none is raised.
    """

    def models(self):
        means = np.array([[0.0, 0.0], [3.0, -1.0]])
        variances = np.array([[1.0, 2.0], [0.5, 1.0]])
        return GmmModel([1.0, 0.0], means, variances), GmmModel([1.0], means[:1], variances[:1])

    def test_log_likelihoods_equal_the_live_component_alone(self):
        dead, alive = self.models()
        x = np.random.default_rng(30).normal(size=(50, 2))
        np.testing.assert_array_equal(log_likelihoods(dead, x), log_likelihoods(alive, x))

    def test_map_keeps_dead_mean_and_adapts_the_live_one(self):
        dead, alive = self.models()
        x = np.random.default_rng(31).normal(size=(50, 2))
        adapted = map_adapt_means(dead, x, relevance=0.0)
        assert np.array_equal(adapted.means[1], dead.means[1])
        np.testing.assert_allclose(adapted.means[:1], map_adapt_means(alive, x, relevance=0.0).means, rtol=1e-12, atol=1e-15)
        assert np.array_equal(adapted.weights, dead.weights)

    def test_score_segment_runs(self):
        dead, _ = self.models()
        x = np.random.default_rng(32).normal(size=(20, 2))
        enroll = map_adapt_means(dead, x)
        assert np.isfinite(score_segment([enroll, dead], dead, x)).all()


def expanded_log_densities(model, x):
    """component_log_densities written out from the model's arrays, each term in the order the backend sums it."""
    precisions = 1.0 / model.variances
    constants = (
        (model.means**2 * (1.0 / model.variances)).sum(axis=1)
        + np.log(model.variances).sum(axis=1)
        + model.dim * np.log(2.0 * np.pi)
    )
    out = (x * x) @ precisions.T
    out -= x @ (2.0 * model.means * precisions).T
    out += constants
    out *= -0.5
    return out


def expanded_log_likelihoods(model, x):
    with np.errstate(divide="ignore"):
        log_weights = np.log(model.weights)
    return _logsumexp(log_weights[None, :] + expanded_log_densities(model, x))


class TestModelTerms:
    """A GmmModel's precisions, log-density constants and log weights are fixed when it is built."""

    def model(self, rng):
        """A random 4-component model whose second component is dead."""
        return GmmModel([0.3, 0.0, 0.5, 0.2], rng.normal(0.0, 2.0, size=(4, 5)), rng.uniform(0.05, 3.0, size=(4, 5)))

    def test_densities_equal_the_expanded_expression_exactly(self):
        rng = np.random.default_rng(40)
        model = self.model(rng)
        x = rng.normal(0.0, 3.0, size=(300, 5))
        np.testing.assert_array_equal(component_log_densities(model, x), expanded_log_densities(model, x))
        np.testing.assert_array_equal(log_likelihoods(model, x), expanded_log_likelihoods(model, x))

    def test_replace_gives_a_model_of_the_new_means(self):
        rng = np.random.default_rng(41)
        model = self.model(rng)
        means = rng.normal(0.0, 2.0, size=model.means.shape)
        moved = dataclasses.replace(model, means=means)
        x = rng.normal(0.0, 3.0, size=(300, 5))
        np.testing.assert_array_equal(component_log_densities(moved, x), expanded_log_densities(moved, x))
        np.testing.assert_array_equal(log_likelihoods(moved, x), expanded_log_likelihoods(moved, x))
        assert not np.array_equal(log_likelihoods(moved, x), log_likelihoods(model, x))


def loop_log_densities(model, x):
    """Per-component reference: the diagonal quadratic form, one component at a time."""
    out = np.empty((x.shape[0], model.n_components))
    for c in range(model.n_components):
        diff = x - model.means[c]
        out[:, c] = -0.5 * (
            model.dim * np.log(2.0 * np.pi)
            + np.log(model.variances[c]).sum()
            + (diff * diff / model.variances[c]).sum(axis=1)
        )
    return out


def random_gmm(rng, c, d):
    weights = rng.uniform(0.5, 1.5, size=c)
    return GmmModel(
        weights / weights.sum(),
        rng.normal(0.0, 2.0, size=(c, d)),
        rng.uniform(0.05, 3.0, size=(c, d)),
    )


class TestBatchedBackend:
    @pytest.mark.parametrize("c", [1, 3, 16])
    @pytest.mark.parametrize("d", [1, 57])
    def test_log_densities_match_component_loop(self, c, d):
        rng = np.random.default_rng(100 + c * d)
        model = random_gmm(rng, c, d)
        x = rng.normal(0.0, 3.0, size=(400, d))
        np.testing.assert_allclose(
            component_log_densities(model, x), loop_log_densities(model, x), rtol=1e-10, atol=0
        )

    def test_logsumexp_matches_scipy(self):
        from scipy.special import logsumexp

        rng = np.random.default_rng(12)
        a = rng.normal(-60.0, 20.0, size=(300, 16))
        dominant = rng.normal(0.0, 1.0, size=(50, 16))
        dominant[:, 0] = 0.0
        dominant[:, 1:] -= 45.0  # every other term is below e^-40 of the first
        tied = np.zeros((3, 4))
        single = rng.normal(size=(5, 1))
        for rows in (a, dominant, dominant - 800.0, tied, single):
            np.testing.assert_allclose(_logsumexp(rows), logsumexp(rows, axis=1), rtol=1e-12, atol=0)
        assert np.all(_logsumexp(dominant) > 0.0)  # the small terms are not lost next to exp(0)

    def test_score_segment_equals_score_trial(self):
        rng = np.random.default_rng(13)
        ubm, _ = train_ubm(rng.normal(size=(400, 4)), 4, iters=3, seed=0)
        models = [map_adapt_means(ubm, rng.normal(m, 1.0, size=(60, 4))) for m in (-1.0, 0.0, 2.0)]
        models.append(ubm)
        test = rng.normal(size=(70, 4))
        scores = score_segment(models, ubm, test)
        assert scores == [score_trial(m, ubm, test) for m in models]
        assert scores[-1] == 0.0

    def test_score_segment_validates(self):
        ubm = GmmModel(np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
        other = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError, match="dimensions"):
            score_segment([ubm, other], ubm, np.zeros((5, 3)))
        with pytest.raises(ValueError, match="no speech frames"):
            score_segment([ubm], ubm, np.zeros((0, 3)))

    def test_train_ubm_memory_does_not_grow_with_frames_times_components(self):
        n, c, d = 20000, 32, 10
        x = np.random.default_rng(14).normal(size=(n, d))
        tracemalloc.start()
        try:
            train_ubm(x, c, iters=1, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A full N x C x D float64 array alone is 51 MB here; EM itself needs a few N x C arrays.
        assert peak < 24 * 2**20, f"train_ubm allocated {peak / 2**20:.1f} MiB"


def full_responsibilities(model, x):
    log_joint = np.log(model.weights)[None, :] + component_log_densities(model, x)
    log_norm = _logsumexp(log_joint)
    return np.exp(log_joint - log_norm[:, None]), float(log_norm.mean())


def full_kmeans_style_init(x, n_components, rng):
    """Reference initialisation: one distance array over all frames, one loop step per component."""
    centroids = x[rng.choice(x.shape[0], size=n_components, replace=False)]
    assign = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    global_var = np.maximum(x.var(axis=0), VARIANCE_FLOOR)
    weights = np.empty(n_components)
    means = centroids.copy()
    variances = np.tile(global_var, (n_components, 1))
    for c in range(n_components):
        members = x[assign == c]
        weights[c] = max(members.shape[0], 1)
        if members.shape[0] > 0:
            means[c] = members.mean(axis=0)
        if members.shape[0] > 1:
            variances[c] = np.maximum(members.var(axis=0), VARIANCE_FLOOR)
    weights /= weights.sum()
    return GmmModel(weights, means, variances), np.bincount(assign, minlength=n_components)


def full_em_step(model, x):
    """Reference M-step over full N x C responsibilities; returns the model and the mean log-likelihood."""
    gamma, ll = full_responsibilities(model, x)
    nk = gamma.sum(axis=0)
    safe_nk = np.maximum(nk, 1e-12)
    weights = nk / x.shape[0]
    means = gamma.T @ x / safe_nk[:, None]
    variances = np.maximum(gamma.T @ (x * x) / safe_nk[:, None] - means**2, VARIANCE_FLOOR)
    return GmmModel(weights / weights.sum(), means, variances), ll


def full_map_means(ubm, x, relevance):
    gamma, _ = full_responsibilities(ubm, x)
    nk = gamma.sum(axis=0)
    ex = np.divide(gamma.T @ x, nk[:, None], out=ubm.means.copy(), where=nk[:, None] > 0.0)
    alpha = nk / (nk + relevance)
    return alpha[:, None] * ex + (1.0 - alpha)[:, None] * ubm.means


def assert_models_close(a, b, rtol):
    for name in ("weights", "means", "variances"):
        np.testing.assert_allclose(getattr(a, name), getattr(b, name), rtol=rtol, atol=0, err_msg=name)


def traced_peak_mib(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestBlockStatistics:
    n, c, d, seed = 2 * _BLOCK + 37, 6, 3, 5

    def frames(self):
        """Frames whose initial centroids 0 and 1 are duplicate rows and centroid 2 an outlier row.

        Ties go to the lower component, so centroid 1 owns no frame and centroid 2 only itself.
        """
        assert self.n % _BLOCK != 0  # the last block is a partial one
        x = np.random.default_rng(20).normal(size=(self.n, self.d))
        picked = np.random.default_rng(self.seed).choice(self.n, size=self.c, replace=False)
        x[picked[1]] = x[picked[0]]
        x[picked[2]] = 9.0
        return x

    def test_kmeans_init_matches_full_array_reference(self):
        x = self.frames()
        ref, counts = full_kmeans_style_init(x, self.c, np.random.default_rng(self.seed))
        assert counts[1] == 0 and counts[2] == 1
        got = _kmeans_style_init(x, self.c, np.random.default_rng(self.seed))
        assert np.array_equal(got.weights, ref.weights)  # the counts of a bit-identical assignment
        assert_models_close(got, ref, rtol=1e-12)

    def test_kmeans_init_near_ties_match_full_array_reference(self):
        """Frames halfway between two centroids go to the lower one; 1e-9 of the spacing decides.

        The centroids have integer coordinates and equal norms, so the halfway
        distances are exact in both forms and tie exactly.
        """
        centroids = np.array([[5, 0, 0], [4, 3, 0], [3, 4, 0], [0, 5, 0], [0, 0, 5]], dtype=np.float64)
        c = centroids.shape[0]
        probes, owners = [], []
        for a, b in [(0, 1), (1, 2), (2, 3), (0, 4), (3, 4)]:
            mid = 0.5 * (centroids[a] + centroids[b])
            step = 1e-9 * (centroids[b] - centroids[a])
            probes += [mid, mid + step, mid - step]
            owners += [a, b, a]
        repeats = _BLOCK // len(probes) + 1  # the probes span two blocks
        n = c + repeats * len(probes)
        picked = np.random.default_rng(self.seed).choice(n, size=c, replace=False)
        rest = np.setdiff1d(np.arange(n), picked)
        x = np.empty((n, 3))
        x[picked] = centroids
        x[rest] = np.tile(probes, (repeats, 1))
        expected = np.full(n, -1)
        expected[picked] = np.arange(c)
        expected[rest] = np.tile(owners, repeats)

        ref, counts = full_kmeans_style_init(x, c, np.random.default_rng(self.seed))
        assert np.array_equal(counts, np.bincount(expected, minlength=c))
        got = _kmeans_style_init(x, c, np.random.default_rng(self.seed))
        assert np.array_equal(got.weights, ref.weights)
        assert_models_close(got, ref, rtol=1e-12)

    def test_kmeans_init_of_1024_components_within_memory(self):
        # A 1024-frame block against 1024 centroids of 57 dimensions is 456 MiB as one
        # (block, C, D) array; the child's 512 MiB address-space limit leaves no room for it.
        script = (
            "import resource; from warpfilt.backend import train_ubm; import numpy as np; "
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20)); "
            "x = np.random.default_rng(0).normal(size=(12000, 57)); "
            "model, history = train_ubm(x, 1024, iters=1, seed=0); "
            "print(model.n_components, bool(np.isfinite(history).all()))"
        )
        src = str(Path(warpfilt.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout.split() == ["1024", "True"]

    def test_em_step_matches_full_array_reference(self):
        x = self.frames()
        init, _ = full_kmeans_style_init(x, self.c, np.random.default_rng(self.seed))
        ref, ref_ll = full_em_step(init, x)
        got, history = train_ubm(x, self.c, iters=1, seed=self.seed)
        assert_models_close(got, ref, rtol=1e-12)
        assert history[0] == pytest.approx(ref_ll, rel=1e-12, abs=0)

    def test_map_matches_full_array_reference(self):
        rng = np.random.default_rng(21)
        ubm = random_gmm(rng, 8, self.d)
        x = rng.normal(size=(self.n, self.d))
        got = map_adapt_means(ubm, x, relevance=14.0)
        np.testing.assert_allclose(got.means, full_map_means(ubm, x, 14.0), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("step", ["train_ubm", "map_adapt_means"])
    def test_memory_flat_in_frame_count(self, step):
        c, d = 32, 10
        rng = np.random.default_rng(22)
        ubm = random_gmm(rng, c, d)
        peaks = []
        for n in (20000, 80000):
            x = rng.normal(size=(n, d))
            if step == "train_ubm":
                peaks.append(traced_peak_mib(train_ubm, x, c, iters=1, seed=0))
            else:
                peaks.append(traced_peak_mib(map_adapt_means, ubm, x))
        assert abs(peaks[1] - peaks[0]) <= 1.0, f"{step} peaks {peaks[0]:.1f} and {peaks[1]:.1f} MiB"
