"""Acceptance suite: one test per criterion, each printing a PASS line with the
measured quantities. Run with -s (or -v) for the per-criterion lines."""

import itertools
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from synth import synth_utterance

from warpfilt.analysis import f_ratio
from warpfilt.backend import (
    GmmModel,
    Trial,
    TrialScoreSet,
    det_curve,
    eer,
    fuse_scores,
    map_adapt_means,
    min_dcf,
    score_trial,
    train_ubm,
)
from warpfilt.cli import main
from warpfilt.dsp import AudioSegment, dct_ii_ortho
from warpfilt.features import FeatureConfig, extract_features, rasta_filter
from warpfilt.filterbank import (
    learn_pca_filterbank,
    pca_first_basis,
    place_filter_edges,
    triangular_responses,
)
from warpfilt.scale import (
    AREA_SHIFT,
    Ltas,
    build_warping_scale,
    equal_area_partition,
    mel,
    mel_warping_scale,
)
from warpfilt.store import filterbank_document, read_scores, save_model


def ok(n, message):
    print(f"\nACCEPTANCE {n:>2} PASS: {message}")


def gaussian_scores(rng, n=100_000):
    targets = rng.normal(1.0, 1.0, size=n)
    impostors = rng.normal(-1.0, 1.0, size=n)
    trials = [Trial("m", f"t{i}", "target", float(s)) for i, s in enumerate(targets)]
    trials += [Trial("m", f"i{i}", "impostor", float(s)) for i, s in enumerate(impostors)]
    return TrialScoreSet(trials), targets, impostors


def test_criterion_01_mel_closed_form():
    value = float(mel(1000.0))
    assert 999.9 <= value <= 1000.1
    assert mel(0.0) == 0.0
    start = time.perf_counter()
    mel(1000.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3
    ok(1, f"mel(1000)={value:.4f}, mel(0)=0, runtime {elapsed * 1e6:.1f} us")


def brute_force_min_spread(areas, q):
    cum = np.cumsum(areas)
    best = np.inf
    for combo in itertools.combinations(range(len(areas) - 1), q - 1):
        edges = list(combo) + [len(areas) - 1]
        sums = np.diff(cum[edges], prepend=0.0)
        best = min(best, sums.max() - sums.min())
    return best


@pytest.mark.slow
def test_criterion_02_equal_area_partition():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked_brute = 0
    from math import comb

    for _ in range(1000):
        q = int(rng.integers(2, 9))
        k = int(rng.integers(q + 1, 65))
        values = rng.uniform(0.01, 10.0, size=k)
        part = equal_area_partition(Ltas(values, 1.0), q)
        log_v = np.log(values)
        areas_vec = log_v - log_v.min() + AREA_SHIFT
        max_bin = areas_vec.max()
        spread = part.areas.max() - part.areas.min()
        assert spread <= max_bin + 1e-9
        if comb(k - 1, q - 1) <= 3000:
            checked_brute += 1
            assert spread <= brute_force_min_spread(areas_vec, q) + max_bin + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(2, f"1000 random spectra within the one-bin bound ({checked_brute} vs brute force) in {elapsed:.2f} s")


def test_criterion_03_warping_scale():
    rng = np.random.default_rng(3)
    # uniform spectrum: linear scale, knots within one bin
    part = equal_area_partition(Ltas(np.ones(257), 1.0), 8)
    uniform = build_warping_scale(part, 1.0, 256.0)
    deviation = np.abs(uniform.knots_hz - uniform.knots_warped * 256.0).max()
    assert deviation <= 1.0
    worst = 0.0
    for scale in (uniform, mel_warping_scale(8000.0)):
        assert scale.warp(0.0) == 0.0 and scale.warp(scale.nyquist_hz) == 1.0
        assert np.all(np.diff(scale.knots_hz) > 0) and np.all(np.diff(scale.knots_warped) > 0)
        f = rng.uniform(0.0, scale.nyquist_hz, size=1000)
        err = np.abs(scale.inverse(scale.warp(f)) - f).max()
        worst = max(worst, err / scale.nyquist_hz)
        assert err <= 1e-6 * scale.nyquist_hz
    for _ in range(100):
        values = rng.uniform(0.01, 5.0, size=129)
        learned = build_warping_scale(
            equal_area_partition(Ltas(values, 1.0), 10), 1.0, 128.0
        )
        assert np.all(np.diff(learned.knots_hz) > 0)
        assert np.all(np.diff(learned.knots_warped) > 0)
    ok(3, f"monotone, exact endpoints, uniform deviation {deviation:.3f} bins, inverse error {worst:.2e}·nyquist")


def test_criterion_04_pca_first_basis():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 17))
        a = rng.normal(size=(n, n))
        s = a @ a.T
        v = pca_first_basis(s)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-9
        _, vecs = np.linalg.eigh(s)
        ref = vecs[:, -1]
        err = min(np.abs(v - ref).max(), np.abs(v + ref).max())
        worst = max(worst, err)
        assert err <= 1e-6
    for _ in range(100):
        n = int(rng.integers(2, 17))
        common = rng.normal(size=(300, 1))
        data = common + 0.25 * rng.normal(size=(300, n))
        cov = np.cov(data, rowvar=False)
        assert np.all(cov > 0.0)
        v = pca_first_basis(cov)
        assert v.min() >= -1e-9
    ok(4, f"200 matrices match eigh (worst {worst:.2e}); positive covariances give non-negative bases")


def test_criterion_05_triangular_filterbank():
    rng = np.random.default_rng(5)
    scale = mel_warping_scale(8000.0)
    layout = place_filter_edges(scale, 20, 512, 16000)
    fb = triangular_responses(layout)
    bins = layout.boundary_bins
    worst = 0.0
    for j in range(fb.n_filters - 1):
        interior = np.arange(bins[j + 1] + 1, bins[j + 2])
        if interior.size:
            sums = fb.responses[j, interior] + fb.responses[j + 1, interior]
            worst = max(worst, np.abs(sums - 1.0).max())
    assert worst <= 1e-12
    log_specs = rng.normal(size=(200, layout.n_bins))
    banks = [
        fb,
        learn_pca_filterbank([log_specs], layout, "pca"),
        learn_pca_filterbank([log_specs], layout, "windowed-pca"),
        learn_pca_filterbank([log_specs], layout, "windowed-pca-normalized"),
    ]
    for other in banks[1:]:
        assert np.array_equal(other.layout.boundary_bins, layout.boundary_bins)
    ok(5, f"adjacent overlap error {worst:.1e}; layouts identical across the four shape kinds")


def test_criterion_06_feature_pipeline(small_corpus, tmp_path):
    # 57-dim output and gain invariance on a fully voiced vowel
    sr = 16000
    samples = synth_utterance(2, 0, sr, 3.0, seed=42, voiced_fraction=1.0)
    scale = mel_warping_scale(sr / 2.0)
    fb = triangular_responses(place_filter_edges(scale, 20, 512, sr))
    cfg = FeatureConfig()
    fm = extract_features(AudioSegment(samples, sr, "v"), fb, cfg)
    assert fm.dim == 57
    plain_cfg = FeatureConfig(rasta_enabled=False, cmvn_enabled=False)
    base = extract_features(AudioSegment(samples, sr, "v"), fb, plain_cfg)
    loud = extract_features(AudioSegment(2.0 * samples, sr, "v"), fb, plain_cfg)
    gain_err = np.abs(loud.vectors[:, :19] - base.vectors[:, :19]).max()
    assert gain_err <= 1e-6

    # determinism across runs and --jobs settings, via the CLI
    fb_doc = tmp_path / "fb.json"
    save_model(filterbank_document(fb), fb_doc)
    outs = []
    for jobs in ("1", "3", "1"):
        out_dir = tmp_path / f"feats_j{jobs}_{len(outs)}"
        rc = main([
            "extract", "--manifest", str(small_corpus["manifest"]),
            "--filterbank", str(fb_doc), "--out", str(out_dir), "--jobs", jobs,
        ])
        assert rc == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out_dir.glob("*.wflt"))})
    assert outs[0] == outs[1] == outs[2]

    # DCT round trip via the orthonormal definition
    rng = np.random.default_rng(6)
    v = rng.normal(size=20)
    c = dct_ii_ortho(v)
    g = np.array([
        [(np.sqrt(1 / 20) if p == 0 else np.sqrt(2 / 20)) * np.cos(np.pi * p * (m + 0.5) / 20) for m in range(20)]
        for p in range(20)
    ])
    dct_err = np.abs(g.T @ c - v).max()
    assert dct_err <= 1e-9

    rasta_tail = np.abs(rasta_filter(np.full((600, 1), 7.0))[500:]).max()
    assert rasta_tail < 1e-3 * 7.0
    ok(6, f"57-dim; gain deviation {gain_err:.1e}; byte-identical across --jobs; DCT {dct_err:.1e}; RASTA tail {rasta_tail:.1e}")


def test_criterion_07_f_ratio():
    rng = np.random.default_rng(7)
    data = {s: rng.normal(m, 1.0, size=(100_000, 4)) for s, m in (("a", 0.0), ("b", 2.0))}
    ratios, avg = f_ratio(data)
    assert np.all(np.abs(ratios - 1.0) <= 0.05)
    same = {s: rng.normal(0.0, 1.0, size=(100_000, 4)) for s in ("a", "b")}
    same_ratios, _ = f_ratio(same)
    assert np.all(same_ratios <= 1e-3)
    affine, _ = f_ratio({k: 2.5 * v - 7.0 for k, v in data.items()})
    affine_err = np.abs(affine - ratios).max()
    assert affine_err <= 1e-9
    ok(7, f"two-speaker F within {np.abs(ratios - 1).max():.3f} of 1; identical-mean F <= {same_ratios.max():.1e}; affine drift {affine_err:.1e}")


def test_criterion_08_gmm_ubm():
    rng = np.random.default_rng(8)
    x = np.concatenate([
        rng.normal(-2.0, 0.7, size=(1500, 3)),
        rng.normal(2.0, 0.7, size=(1500, 3)),
    ])
    for seed in (0, 1, 2):
        _, history = train_ubm(x, 4, iters=10, seed=seed)
        assert np.all(np.diff(history) >= -1e-8)
    single, _ = train_ubm(x, 1, iters=10, seed=0)
    assert np.array_equal(single.weights, [1.0])
    assert np.allclose(single.means[0], x.mean(axis=0), rtol=0, atol=1e-12)
    assert np.allclose(single.variances[0], x.var(axis=0), rtol=1e-12, atol=1e-12)

    ubm = GmmModel(np.array([1.0]), np.array([[1.0, -1.0, 0.5]]), np.ones((1, 3)))
    data = rng.normal(0.0, 1.0, size=(14, 3))
    adapted = map_adapt_means(ubm, data, relevance=14.0)
    midpoint = 0.5 * (ubm.means[0] + data.mean(axis=0))
    assert np.allclose(adapted.means[0], midpoint, rtol=0, atol=1e-12)

    from warpfilt.features import FeatureMatrix

    model, _ = train_ubm(x, 2, iters=5, seed=0)
    test = FeatureMatrix(rng.normal(size=(50, 3)), np.ones(50, dtype=bool))
    assert score_trial(model, model, test) == 0.0
    ok(8, "EM monotone on 3 seeds; C=1 closed form; MAP midpoint exact; enroll=UBM scores 0")


def test_criterion_09_metrics():
    rng = np.random.default_rng(9)
    scores, targets, impostors = gaussian_scores(rng)
    curve = det_curve(scores)
    eer_value = eer(curve)
    assert abs(eer_value - 0.1587) <= 0.01

    got = min_dcf(curve, 10.0, 1.0, 0.01)
    # independent exhaustive sweep: walk sorted scores with running counts
    pooled = np.concatenate([targets, impostors])
    labels = np.concatenate([np.ones(targets.size, bool), np.zeros(impostors.size, bool)])
    order = np.argsort(pooled, kind="stable")
    pooled, labels = pooled[order], labels[order]
    best = 10.0 * 0.01 * 1.0  # threshold above every score: reject all
    miss = 0
    fa = impostors.size
    i = 0
    while i < pooled.size:
        j = i
        while j < pooled.size and pooled[j] == pooled[i]:
            j += 1
        # threshold at pooled[i]: targets below it are missed, impostors >= accepted
        cost = 10.0 * (miss / targets.size) * 0.01 + 1.0 * (fa / impostors.size) * 0.99
        best = min(best, cost)
        miss += int(labels[i:j].sum())
        fa -= int(j - i - labels[i:j].sum())
        i = j
    assert got == pytest.approx(best, abs=1e-9)

    warped = TrialScoreSet([
        Trial(t.enroll_id, t.test_id, t.label, float(np.tanh(t.score) + 3.0 * t.score))
        for t in scores.trials
    ])
    warped_curve = det_curve(warped)
    assert eer(warped_curve) == eer_value
    assert min_dcf(warped_curve, 10.0, 1.0, 0.01) == got
    ok(9, f"EER {eer_value:.4f} (target 0.1587±0.01); minDCF matches oracle at {got:.6f}; transform-invariant")


def _run_cell(art_dir, corpus, scale_flag, shape_flag, components="16"):
    tag = f"{scale_flag}_{shape_flag}"
    scale_doc = art_dir / f"scale_{scale_flag}.json"
    if not scale_doc.exists():
        rc = main([
            "learn-scale", "--manifest", str(corpus["manifest"]), "--out", str(scale_doc),
            "--scale", scale_flag, "--jobs", "4",
        ])
        assert rc == 0, f"learn-scale failed for {scale_flag}"
    steps = [
        ["learn-filterbank", "--manifest", str(corpus["manifest"]), "--scale-doc", str(scale_doc),
         "--out", str(art_dir / f"fb_{tag}.json"), "--shape", shape_flag, "--jobs", "4"],
        ["extract", "--manifest", str(corpus["manifest"]), "--filterbank", str(art_dir / f"fb_{tag}.json"),
         "--out", str(art_dir / f"feats_{tag}"), "--jobs", "4"],
        ["train-ubm", "--features", str(art_dir / f"feats_{tag}"), "--out", str(art_dir / f"ubm_{tag}.json"),
         "--ubm-components", components],
        ["enroll", "--manifest", str(corpus["enroll"]), "--features", str(art_dir / f"feats_{tag}"),
         "--ubm", str(art_dir / f"ubm_{tag}.json"), "--out", str(art_dir / f"models_{tag}")],
        ["score", "--trials", str(corpus["trials"]), "--models", str(art_dir / f"models_{tag}"),
         "--ubm", str(art_dir / f"ubm_{tag}.json"), "--features", str(art_dir / f"feats_{tag}"),
         "--out", str(art_dir / f"scores_{tag}.tsv"), "--jobs", "4"],
    ]
    for step in steps:
        rc = main(step)
        assert rc == 0, f"{step[0]} failed for {tag}"
    curve = det_curve(read_scores(art_dir / f"scores_{tag}.tsv"))
    return 100.0 * eer(curve)


@pytest.mark.slow
def test_criterion_10_end_to_end_desk_asv(desk_corpus, tmp_path_factory):
    art = tmp_path_factory.mktemp("acceptance_grid")
    start = time.perf_counter()
    headline_eer = _run_cell(art, desk_corpus, "speech-pitch", "wpca-norm")
    headline_time = time.perf_counter() - start
    assert headline_eer <= 5.0, f"EER {headline_eer:.2f}% exceeds 5%"
    assert headline_time < 300.0

    grid = {}
    for scale_flag in ("mel", "speech", "speech-pitch"):
        for shape_flag in ("tri", "pca", "wpca", "wpca-norm"):
            if (scale_flag, shape_flag) == ("speech-pitch", "wpca-norm"):
                grid[(scale_flag, shape_flag)] = headline_eer
                continue
            grid[(scale_flag, shape_flag)] = _run_cell(art, desk_corpus, scale_flag, shape_flag)
    total = time.perf_counter() - start
    lines = ["EER% grid (rows: shape, cols: scale):"]
    for shape_flag in ("tri", "pca", "wpca", "wpca-norm"):
        cells = "  ".join(f"{grid[(s, shape_flag)]:6.2f}" for s in ("mel", "speech", "speech-pitch"))
        lines.append(f"  {shape_flag:>9}: {cells}")
    ok(10, f"speech-pitch/wpca-norm EER {headline_eer:.2f}% in {headline_time:.0f} s; grid done in {total:.0f} s\n" + "\n".join(lines))


def test_criterion_11_fusion():
    rng = np.random.default_rng(11)
    scores, _, _ = gaussian_scores(rng, n=5000)
    fused_self = fuse_scores(scores, scores)
    assert eer(det_curve(fused_self)) == eer(det_curve(scores))
    assert min_dcf(det_curve(fused_self), 10, 1, 0.01) == min_dcf(det_curve(scores), 10, 1, 0.01)

    worst_gap = -np.inf
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        n = 4000
        latent_t = rng.normal(1.0, 1.0, size=n)
        latent_i = rng.normal(-1.0, 1.0, size=n)

        def noisy():
            trials = [
                Trial("m", f"t{i}", "target", float(s + rng.normal(0.0, 1.0)))
                for i, s in enumerate(latent_t)
            ]
            trials += [
                Trial("m", f"i{i}", "impostor", float(s + rng.normal(0.0, 1.0)))
                for i, s in enumerate(latent_i)
            ]
            return TrialScoreSet(trials)

        a, b = noisy(), noisy()
        eer_a, eer_b = eer(det_curve(a)), eer(det_curve(b))
        eer_f = eer(det_curve(fuse_scores(a, b)))
        worst_gap = max(worst_gap, eer_f - min(eer_a, eer_b))
        assert eer_f <= min(eer_a, eer_b) + 0.01
    ok(11, f"self-fusion exact; fused EER at worst {worst_gap * 100:+.2f} points vs better input over 5 seeds")
