import argparse
import ctypes
import dataclasses
import json
import logging
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from synth import build_corpus

import warpfilt
from warpfilt import cli, dsp, sad, store
from warpfilt.cli import RunConfig, load_config, main
from warpfilt.dsp import AudioSegment
from warpfilt.backend import GmmModel
from warpfilt.features import FeatureMatrix
from warpfilt.filterbank import SHAPE_KINDS, Filterbank, place_filter_edges, triangular_responses
from warpfilt.scale import SCALE_KINDS, WarpingScale, mel_warping_scale
from warpfilt.store import (
    CorpusManifest,
    ManifestEntry,
    load_manifest,
    load_model,
    read_features,
    read_scores,
    save_manifest,
    write_features,
    write_wav,
)


def run(capsys, *args):
    rc = main([str(a) for a in args])
    out = capsys.readouterr()
    return rc, out.out, out.err


def python_child(*args, env=None):
    """Run a Python child with this checkout's warpfilt importable, in `env` or this environment."""
    src = str(Path(warpfilt.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=120
    )


def write_score_file(root):
    """A small valid score file: two target and two impostor trials."""
    path = Path(root) / "scores.tsv"
    path.write_text("a\tx\ttarget\t2.0\nb\ty\ttarget\t0.5\na\ty\timpostor\t1.0\nb\tx\timpostor\t-1.0\n")
    return path


def parse_kv(text):
    pairs = {}
    for line in text.strip().splitlines():
        key, value = line.split("\t", 1)
        pairs[key] = value
    return pairs


def count_calls(monkeypatch, module, name):
    """Record the first argument of every call to module.name, through any warpfilt module that holds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "warpfilt":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, small_corpus):
    """Artifacts from one full pipeline pass over the small corpus."""
    art = tmp_path_factory.mktemp("artifacts")
    m = small_corpus["manifest"]
    assert main(["learn-scale", "--manifest", str(m), "--out", str(art / "scale.json"), "--scale", "speech-pitch"]) == 0
    assert main(["learn-filterbank", "--manifest", str(m), "--scale-doc", str(art / "scale.json"), "--out", str(art / "fb.json"), "--shape", "wpca-norm"]) == 0
    assert main(["extract", "--manifest", str(m), "--filterbank", str(art / "fb.json"), "--out", str(art / "feats")]) == 0
    assert main(["train-ubm", "--features", str(art / "feats"), "--out", str(art / "ubm.json"), "--ubm-components", "8"]) == 0
    assert main(["enroll", "--manifest", str(small_corpus["enroll"]), "--features", str(art / "feats"), "--ubm", str(art / "ubm.json"), "--out", str(art / "models")]) == 0
    assert main(["score", "--trials", str(small_corpus["trials"]), "--models", str(art / "models"), "--ubm", str(art / "ubm.json"), "--features", str(art / "feats"), "--out", str(art / "scores.tsv")]) == 0
    return art


@pytest.fixture(scope="module")
def separable_scores(tmp_path_factory):
    """Score files for train-ubm seeds 0, 1 and 2 on a 3-speaker corpus of 2-s utterances.

    On 1-s utterances the EER of this chain is 0 for only some k-means draws, so
    a test there pins one initialisation rather than the front end.
    """
    root = tmp_path_factory.mktemp("separable")
    m, enroll, trials = build_corpus(root, n_speakers=3, n_utterances=4, duration_s=2.0, n_enroll=2, seed=11)
    assert main(["learn-scale", "--manifest", str(m), "--out", str(root / "scale.json"), "--scale", "speech-pitch"]) == 0
    assert main(["learn-filterbank", "--manifest", str(m), "--scale-doc", str(root / "scale.json"), "--out", str(root / "fb.json"), "--shape", "wpca-norm"]) == 0
    assert main(["extract", "--manifest", str(m), "--filterbank", str(root / "fb.json"), "--out", str(root / "feats")]) == 0
    scores = {}
    for seed in (0, 1, 2):
        ubm, models, out = root / f"ubm{seed}.json", root / f"models{seed}", root / f"scores{seed}.tsv"
        assert main(["train-ubm", "--features", str(root / "feats"), "--out", str(ubm), "--ubm-components", "8", "--seed", str(seed)]) == 0
        assert main(["enroll", "--manifest", str(enroll), "--features", str(root / "feats"), "--ubm", str(ubm), "--out", str(models)]) == 0
        assert main(["score", "--trials", str(trials), "--models", str(models), "--ubm", str(ubm), "--features", str(root / "feats"), "--out", str(out)]) == 0
        scores[seed] = out
    return scores


@pytest.fixture(scope="module")
def tri_filterbank(pipeline, tmp_path_factory):
    """A triangular filterbank on the pipeline's scale, a second variant for fratio."""
    path = tmp_path_factory.mktemp("tri") / "tri.json"
    assert main(["learn-filterbank", "--scale-doc", str(pipeline / "scale.json"), "--out", str(path), "--shape", "tri"]) == 0
    return path


@pytest.fixture(scope="module")
def long_frames(tmp_path_factory, small_corpus):
    """A speech scale learned with 40 ms frames (n_fft 1024) and a triangular filterbank on it."""
    root = tmp_path_factory.mktemp("long_frames")
    (root / "cfg.json").write_text('{"frame_ms": 40.0}')
    assert main(["learn-scale", "--manifest", str(small_corpus["manifest"]), "--out", str(root / "scale.json"), "--scale", "speech", "--config", str(root / "cfg.json")]) == 0
    assert main(["learn-filterbank", "--scale-doc", str(root / "scale.json"), "--out", str(root / "tri.json"), "--shape", "tri"]) == 0
    assert load_model(root / "tri.json").n_fft == 1024
    return root


@pytest.fixture(scope="module")
def foreign_rate(tmp_path_factory):
    """8 kHz scale and filterbank documents with a 512-point FFT, foreign to the 16 kHz corpus."""
    root = tmp_path_factory.mktemp("foreign_rate")
    warping = mel_warping_scale(4000.0)
    store.save_model(store.scale_document(warping, 8000, 512), root / "scale8k.json")
    fb = triangular_responses(place_filter_edges(warping, 20, 512, 8000))
    store.save_model(store.filterbank_document(fb), root / "fb8k.json")
    return root


class TestLearnScale:
    def test_mel_needs_no_corpus_pass(self, capsys, small_corpus, tmp_path):
        out_doc = tmp_path / "mel.json"
        rc, out, _ = run(capsys, "learn-scale", "--manifest", small_corpus["manifest"], "--out", out_doc, "--scale", "mel")
        assert rc == 0
        _, warping = store.load_document(out_doc, "warping-scale")
        assert warping.kind == "mel"
        lines = [l.split("\t") for l in out.strip().splitlines()]
        assert float(lines[0][0]) == 0.0 and float(lines[0][1]) == 0.0
        assert float(lines[-1][1]) == 1.0

    def test_speech_scale_deterministic(self, capsys, small_corpus, tmp_path):
        args = ["learn-scale", "--manifest", small_corpus["manifest"], "--scale", "speech"]
        rc1, _, _ = run(capsys, *args, "--out", tmp_path / "a.json")
        rc2, _, _ = run(capsys, *args, "--out", tmp_path / "b.json")
        assert rc1 == rc2 == 0
        a = load_model(tmp_path / "a.json").payload
        b = load_model(tmp_path / "b.json").payload
        assert a == b

    @pytest.mark.parametrize("n_filters", [4, 10])
    @pytest.mark.parametrize("scale", ["speech", "speech-pitch"])
    def test_speech_scales_at_any_n_filters(self, capsys, small_corpus, tmp_path, scale, n_filters):
        rc, out, err = run(
            capsys, "learn-scale", "--manifest", small_corpus["manifest"], "--out", tmp_path / "s.json",
            "--scale", scale, "--n-filters", n_filters,
        )
        assert rc == 0, err
        assert len(out.strip().splitlines()) == n_filters + 2  # the knots: band midpoints and both ends
        assert load_model(tmp_path / "s.json").payload["scale_kind"] == SCALE_KINDS[scale]

    def test_speech_pitch_document_identical_across_jobs(self, capsys, small_corpus, tmp_path):
        outputs = {}
        for jobs in (1, 2):
            rc, out, _ = run(
                capsys, "learn-scale", "--manifest", small_corpus["manifest"], "--scale", "speech-pitch",
                "--jobs", jobs, "--out", tmp_path / f"s{jobs}.json",
            )
            assert rc == 0
            outputs[jobs] = (out, (tmp_path / f"s{jobs}.json").read_bytes())
        assert outputs[1] == outputs[2]

    def test_speech_pitch_scale_at_100_filters(self, capsys, small_corpus, tmp_path):
        rc, out, err = run(
            capsys, "learn-scale", "--manifest", small_corpus["manifest"], "--out", tmp_path / "s.json",
            "--scale", "speech-pitch", "--n-filters", 100,
        )
        assert rc == 0, err
        assert len(out.strip().splitlines()) == 102

    @pytest.mark.parametrize("scale, n_filters", [("speech", 99), ("speech-pitch", 105)])
    def test_one_bin_end_band_knot_inside_its_bin(self, capsys, small_corpus, tmp_path, scale, n_filters):
        # From these counts up, this corpus's partition has a one-bin first band, bin 0,
        # whose midpoint is 0 Hz; its knot goes a quarter bin above it.
        rc, out, err = run(
            capsys, "learn-scale", "--manifest", small_corpus["manifest"], "--out", tmp_path / "s.json",
            "--scale", scale, "--n-filters", n_filters,
        )
        assert rc == 0, err
        knots_hz = [float(line.split("\t")[0]) for line in out.strip().splitlines()]
        assert len(knots_hz) == n_filters + 2
        assert knots_hz[:2] == [0.0, 0.25 * 31.25]

    @pytest.mark.parametrize("n_filters", [257])
    def test_one_bin_end_band_names_n_filters(self, small_corpus, tmp_path, n_filters):
        # 257 bands would leave one-bin end bands on this corpus; the n_filters limit
        # names the count first, in a child process's one stderr line, and writes nothing.
        out_doc = tmp_path / "s.json"
        proc = python_child(
            "-m", "warpfilt.cli", "learn-scale", "--manifest", small_corpus["manifest"], "--out", out_doc,
            "--scale", "speech-pitch", "--n-filters", n_filters,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error: too few bins: n_filters {n_filters} needs {n_filters + 2}, n_fft 512 gives 257"
        ]
        assert not out_doc.exists()

    @pytest.mark.parametrize(
        "command",
        [["learn-scale", "--scale", "speech"],["learn-filterbank", "--scale-doc", "SCALE", "--shape", "wpca-norm"]],
        ids=["learn-scale", "learn-filterbank"],
    )
    def test_too_many_filters_named_before_corpus_pass(self, capsys, monkeypatch, small_corpus, pipeline, tmp_path, command):
        loaded = count_calls(monkeypatch, store, "load_wav")
        argv = [pipeline / "scale.json" if a == "SCALE" else a for a in command]
        for n_filters in (256, 257, 300):
            rc, _, err = run(
                capsys, argv[0], "--manifest", small_corpus["manifest"], *argv[1:], "--out", tmp_path / "out",
                "--n-filters", n_filters,
            )
            assert rc == 2
            assert err.splitlines() == [f"error: too few bins: n_filters {n_filters} needs {n_filters + 2}, n_fft 512 gives 257"]
        assert loaded == [] and not (tmp_path / "out").exists()

    def test_one_filter_named_before_corpus_pass(self, capsys, monkeypatch, small_corpus, tmp_path):
        loaded = count_calls(monkeypatch, store, "load_wav")
        rc, _, err = run(
            capsys, "learn-scale", "--manifest", small_corpus["manifest"], "--scale", "speech",
            "--n-filters", 1, "--out", tmp_path / "out",
        )
        assert rc == 2
        assert err.splitlines() == ["error: n_filters 1: need at least two bands"]
        assert loaded == [] and not (tmp_path / "out").exists()

    def test_subsample_logged_and_honored(self, capsys, small_corpus, tmp_path, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="warpfilt.cli"):
            rc, _, _ = run(
                capsys, "learn-scale", "--manifest", small_corpus["manifest"],
                "--out", tmp_path / "sub.json", "--scale", "speech",
                "--subsample-fraction", "0.1",
            )
        assert rc == 0
        assert any("subsampling 2 of 12" in r.message for r in caplog.records)

    def test_empty_manifest(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        save_manifest(CorpusManifest([], 16000), empty)
        rc, _, err = run(capsys, "learn-scale", "--manifest", empty, "--out", tmp_path / "x.json", "--scale", "mel")
        assert rc == 2
        assert "no utterances" in err


class TestLearnFilterbank:
    def test_triangular_without_corpus(self, capsys, pipeline, tmp_path):
        rc, _, _ = run(
            capsys, "learn-filterbank", "--scale-doc", pipeline / "scale.json",
            "--out", tmp_path / "tri.json", "--shape", "tri",
        )
        assert rc == 0

    def test_pca_shape_needs_manifest(self, capsys, pipeline, tmp_path):
        rc, _, err = run(
            capsys, "learn-filterbank", "--scale-doc", pipeline / "scale.json",
            "--out", tmp_path / "pca.json", "--shape", "pca",
        )
        assert rc == 2
        assert "--manifest" in err

    def test_four_shapes_share_layout(self, capsys, small_corpus, pipeline, tmp_path):
        payloads = {}
        for shape in SHAPE_KINDS:
            rc, _, _ = run(
                capsys, "learn-filterbank", "--manifest", small_corpus["manifest"],
                "--scale-doc", pipeline / "scale.json", "--out", tmp_path / f"{shape}.json",
                "--shape", shape,
            )
            assert rc == 0
            payloads[shape] = load_model(tmp_path / f"{shape}.json").payload
            assert payloads[shape]["shape_kind"] == SHAPE_KINDS[shape]
        bins = {shape: tuple(p["boundary_bins"]) for shape, p in payloads.items()}
        assert len(set(bins.values())) == 1
        responses = {shape: json.dumps(p["responses"]) for shape, p in payloads.items()}
        assert len(set(responses.values())) == 4  # four distinct documents
        norm = np.asarray(payloads["wpca-norm"]["responses"])
        assert np.allclose(norm.max(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n_filters", [4, 10])
    @pytest.mark.parametrize("shape", ["pca", "wpca-norm"])
    def test_pca_shapes_at_any_n_filters(self, capsys, small_corpus, pipeline, tmp_path, shape, n_filters):
        rc, _, err = run(
            capsys, "learn-filterbank", "--manifest", small_corpus["manifest"],
            "--scale-doc", pipeline / "scale.json", "--out", tmp_path / "fb.json",
            "--shape", shape, "--n-filters", n_filters,
        )
        assert rc == 0, err
        assert len(load_model(tmp_path / "fb.json").payload["responses"]) == n_filters

    @pytest.mark.parametrize("n_filters", [105, 255])
    def test_chain_at_large_n_filters(self, capsys, small_corpus, tmp_path, n_filters):
        # 255 = n_fft/2 - 1 is the most filters; 105 is where a one-bin end band first appears.
        m = small_corpus["manifest"]
        rc, _, err = run(
            capsys, "learn-scale", "--manifest", m, "--out", tmp_path / "scale.json", "--scale", "speech-pitch",
            "--n-filters", n_filters,
        )
        assert rc == 0, err
        for shape in ("tri", "wpca-norm"):
            rc, out, err = run(
                capsys, "learn-filterbank", "--manifest", m, "--scale-doc", tmp_path / "scale.json",
                "--out", tmp_path / f"{shape}.json", "--shape", shape, "--n-filters", n_filters,
            )
            assert rc == 0, err
            assert parse_kv(out)["filters"] == str(n_filters)
            rc, out, err = run(capsys, "extract", "--manifest", m, "--filterbank", tmp_path / f"{shape}.json", "--out", tmp_path / shape)
            assert rc == 0, err
            assert len(out.strip().splitlines()) == 12

    def test_pca_on_scale_with_40ms_frames(self, capsys, small_corpus, long_frames, tmp_path):
        # The spectra take the scale document's 1024-point FFT, not one from the 20 ms frames.
        rc, _, err = run(
            capsys, "learn-filterbank", "--manifest", small_corpus["manifest"],
            "--scale-doc", long_frames / "scale.json", "--out", tmp_path / "fb.json", "--shape", "pca",
        )
        assert rc == 0, err
        assert load_model(tmp_path / "fb.json").n_fft == 1024

    def test_filterbank_identical_across_jobs(self, capsys, small_corpus, pipeline, tmp_path):
        payloads = []
        for jobs in (1, 3):
            rc, _, _ = run(
                capsys, "learn-filterbank", "--manifest", small_corpus["manifest"],
                "--scale-doc", pipeline / "scale.json", "--out", tmp_path / f"fb{jobs}.json",
                "--shape", "wpca-norm", "--jobs", jobs,
            )
            assert rc == 0
            payloads.append(load_model(tmp_path / f"fb{jobs}.json").payload)
        assert payloads[0] == payloads[1]


class TestExtract:
    def test_outputs_and_summary(self, capsys, small_corpus, pipeline, tmp_path):
        out_dir = tmp_path / "feats"
        rc, out, _ = run(
            capsys, "extract", "--manifest", small_corpus["manifest"],
            "--filterbank", pipeline / "fb.json", "--out", out_dir,
        )
        assert rc == 0
        lines = [l.split("\t") for l in out.strip().splitlines()]
        assert len(lines) == 12
        for utt, n_frames, pct in lines:
            fm = read_features(out_dir / f"{utt}.wflt")
            assert fm.dim == 57
            assert fm.n_frames == int(n_frames)
            assert float(pct) == pytest.approx(100.0 * fm.mask.mean(), abs=0.05)

    def test_refuses_overwrite(self, capsys, small_corpus, pipeline, tmp_path):
        out_dir = tmp_path / "feats"
        assert run(capsys, "extract", "--manifest", small_corpus["manifest"], "--filterbank", pipeline / "fb.json", "--out", out_dir)[0] == 0
        rc, _, err = run(capsys, "extract", "--manifest", small_corpus["manifest"], "--filterbank", pipeline / "fb.json", "--out", out_dir)
        assert rc == 2
        assert "exists" in err
        rc, _, _ = run(capsys, "extract", "--manifest", small_corpus["manifest"], "--filterbank", pipeline / "fb.json", "--out", out_dir, "--overwrite")
        assert rc == 0

    def test_outputs_identical_across_jobs(self, capsys, small_corpus, pipeline, tmp_path):
        runs = []
        for jobs in (1, 2):
            out_dir = tmp_path / f"feats{jobs}"
            rc, out, _ = run(
                capsys, "extract", "--manifest", small_corpus["manifest"],
                "--filterbank", pipeline / "fb.json", "--out", out_dir, "--jobs", jobs,
            )
            assert rc == 0
            runs.append((out, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}))
        assert len(runs[0][1]) == 12
        assert runs[0] == runs[1]

    def test_lock_contention(self, capsys, small_corpus, pipeline, tmp_path):
        out_dir = tmp_path / "feats"
        out_dir.mkdir()
        (out_dir / ".warpfilt.lock").write_text("held\n")
        rc, _, err = run(capsys, "extract", "--manifest", small_corpus["manifest"], "--filterbank", pipeline / "fb.json", "--out", out_dir)
        assert rc == 2
        assert "in use" in err


class TestFratio:
    def test_report_and_tsv(self, capsys, small_corpus, pipeline, tmp_path):
        tsv = tmp_path / "fratio.tsv"
        rc, out, _ = run(
            capsys, "fratio", "--manifest", small_corpus["manifest"],
            "--filterbanks", pipeline / "fb.json", pipeline / "fb.json",
            "--out", tsv,
        )
        assert rc == 0
        assert "Avg." in out
        header = tsv.read_text().splitlines()[0].split("\t")
        assert header[0] == "filter" and header[-1] == "winner"

    def test_tsv_identical_across_jobs(self, capsys, small_corpus, pipeline, tri_filterbank, tmp_path):
        outputs = []
        for jobs in (1, 2):
            tsv = tmp_path / f"fratio{jobs}.tsv"
            rc, out, _ = run(
                capsys, "fratio", "--manifest", small_corpus["manifest"],
                "--filterbanks", tri_filterbank, pipeline / "fb.json", "--jobs", jobs, "--out", tsv,
            )
            assert rc == 0
            outputs.append((out, tsv.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_accepts_n_fft_1024_filterbank(self, capsys, small_corpus, long_frames):
        rc, out, err = run(
            capsys, "fratio", "--manifest", small_corpus["manifest"],
            "--filterbanks", long_frames / "tri.json", long_frames / "tri.json",
        )
        assert rc == 0, err
        assert "Avg." in out

    def test_columns_match_separate_runs(self, capsys, small_corpus, pipeline, tri_filterbank, tmp_path):
        def columns(*filterbanks):
            tsv = tmp_path / f"{len(list(tmp_path.iterdir()))}.tsv"
            rc, _, _ = run(capsys, "fratio", "--manifest", small_corpus["manifest"], "--filterbanks", *filterbanks, "--out", tsv)
            assert rc == 0
            rows = [line.split("\t") for line in tsv.read_text().splitlines()]
            return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}

        # fratio needs two variants, so each separate run compares a filterbank with itself.
        both = columns(tri_filterbank, pipeline / "fb.json")
        assert both["tri"] == columns(tri_filterbank, tri_filterbank)["tri"]
        assert both["fb"] == columns(pipeline / "fb.json", pipeline / "fb.json")["fb"]


    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_named_in_manifest_order(self, capsys, small_corpus, pipeline, tri_filterbank, tmp_path, jobs):
        # Speakers interleaved: the first bad entry of the manifest is the second speaker's.
        by_id = {e.utterance_id: e for e in load_manifest(small_corpus["manifest"]).entries}
        head = ["spk0_u00", "spk1_u00", "spk0_u01"]
        entries = [by_id[i] for i in head] + [e for i, e in by_id.items() if i not in head]
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio")
        for entry in entries[1:3]:
            entry.path = str(bad)
        save_manifest(CorpusManifest(entries, 16000), tmp_path / "m.json")
        first = load_manifest(tmp_path / "m.json").entries[1]
        commands = [
            ["fratio", "--filterbanks", tri_filterbank, pipeline / "fb.json", "--out", tmp_path / "f.tsv"],
            ["learn-scale", "--scale", "speech", "--out", tmp_path / "s.json"],
            ["learn-filterbank", "--shape", "pca", "--scale-doc", pipeline / "scale.json", "--out", tmp_path / "fb.json"],
        ]
        for command in commands:
            rc, out, err = run(capsys, command[0], "--manifest", tmp_path / "m.json", *command[1:], "--jobs", jobs)
            assert rc == 2 and out == "", command[0]
            assert err.splitlines() == [f"error: utterance spk1_u00: {first.path}: not a RIFF/WAVE file"], command[0]

    @pytest.mark.parametrize(
        "names, labels",
        [(["x/a#3", "x/a", "y/a"], ["a#3", "a", "a#2"]), (["x/fb", "x/fb"], ["fb", "fb#2"])],
        ids=["taken-suffix", "same-path"],
    )
    def test_variant_labels_never_collide(self, capsys, small_corpus, pipeline, tmp_path, names, labels):
        paths = [tmp_path / f"{name}.json" for name in names]
        for path in paths:
            path.parent.mkdir(exist_ok=True)
            shutil.copyfile(pipeline / "fb.json", path)
        tsv = tmp_path / "fratio.tsv"
        rc, out, err = run(capsys, "fratio", "--manifest", small_corpus["manifest"], "--filterbanks", *paths, "--out", tsv)
        assert rc == 0, err
        assert tsv.read_text().splitlines()[0].split("\t") == ["filter", *labels, "winner"]
        assert out.splitlines()[0].split() == ["Filter", *labels]


class TestOneFrontEndPass:
    @pytest.mark.parametrize(
        "command, pitch",
        [
            (["learn-scale", "--scale", "speech", "--out", "OUT"], False),
            (["learn-scale", "--scale", "speech-pitch", "--out", "OUT"], True),
            (["learn-filterbank", "--scale-doc", "SCALE", "--shape", "wpca-norm", "--out", "OUT"], False),
            (["extract", "--filterbank", "FB", "--out", "OUT"], False),
            (["fratio", "--filterbanks", "TRI", "FB"], False),
        ],
        ids=["learn-scale-speech", "learn-scale-speech-pitch", "learn-filterbank-wpca-norm", "extract", "fratio"],
    )
    def test_one_front_end_pass_per_utterance(
        self, capsys, monkeypatch, small_corpus, pipeline, tri_filterbank, tmp_path, command, pitch
    ):
        paths = {"SCALE": pipeline / "scale.json", "FB": pipeline / "fb.json", "TRI": tri_filterbank, "OUT": tmp_path / "out"}
        loaded = count_calls(monkeypatch, store, "load_wav")
        spectra = count_calls(monkeypatch, dsp, "power_spectrum")
        pitch_tracks = count_calls(monkeypatch, sad, "track_pitch")
        rc, _, err = run(capsys, command[0], "--manifest", small_corpus["manifest"], *[paths.get(a, a) for a in command[1:]])
        assert rc == 0, err
        n_utterances = len(load_manifest(small_corpus["manifest"]).entries)
        assert len(loaded) == len({Path(p).name for p in loaded}) == n_utterances
        assert len(spectra) == n_utterances
        assert len(pitch_tracks) == (n_utterances if pitch else 0)


class TestDocumentChecks:
    """A model document that does not fit the corpus or the other documents stops the
    command before the corpus pass, with one line naming the document."""

    @pytest.mark.parametrize(
        "command, message",
        [
            (["fratio", "--filterbanks", "FB8K", "FB"], "FB8K: sample_rate_hz 8000 differs from manifest rate 16000"),
            (["fratio", "--filterbanks", "FB", "TRI1024"], "TRI1024: n_fft 1024 differs from n_fft 512 of FB"),
            (["extract", "--filterbank", "FB8K", "--out", "OUT"], "FB8K: sample_rate_hz 8000 differs from manifest rate 16000"),
            (["extract", "--filterbank", "FB", "--out", "OUT", "--config", "CFG40"], "FB: n_fft 512 is shorter than a frame of 640 samples"),
            (
                ["learn-filterbank", "--scale-doc", "SCALE8K", "--shape", "pca", "--out", "OUT"],
                "SCALE8K: sample_rate_hz 8000 differs from manifest rate 16000",
            ),
        ],
        ids=["fratio-rate", "fratio-n-fft", "extract-rate", "extract-frame", "learn-filterbank-rate"],
    )
    def test_mismatch_exits_2_with_one_line(self, small_corpus, pipeline, long_frames, foreign_rate, tmp_path, command, message):
        (tmp_path / "cfg40.json").write_text('{"frame_ms": 40.0}')
        paths = {
            "FB": pipeline / "fb.json", "FB8K": foreign_rate / "fb8k.json", "SCALE8K": foreign_rate / "scale8k.json",
            "TRI1024": long_frames / "tri.json", "CFG40": tmp_path / "cfg40.json", "OUT": tmp_path / "out",
        }
        for name in sorted(paths, key=len, reverse=True):  # FB8K before FB
            message = message.replace(name, str(paths[name]))
        argv = [paths.get(a, a) for a in command]
        proc = python_child("-m", "warpfilt.cli", argv[0], "--manifest", small_corpus["manifest"], *argv[1:])
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, wrong, expected",
        [
            (["learn-filterbank", "--scale-doc", "WRONG", "--shape", "tri", "--out", "OUT"], "fb.json", "warping-scale"),
            (["extract", "--manifest", "MANIFEST", "--filterbank", "WRONG", "--out", "OUT"], "scale.json", "filterbank"),
            (["fratio", "--manifest", "MANIFEST", "--filterbanks", "FB", "WRONG", "--out", "OUT"], "ubm.json", "filterbank"),
            (["enroll", "--manifest", "ENROLL", "--features", "FEATS", "--ubm", "WRONG", "--out", "OUT"], "fb.json", "gmm"),
            (
                ["score", "--trials", "TRIALS", "--models", "MODELS", "--ubm", "WRONG", "--features", "FEATS", "--out", "OUT"],
                "scale.json", "gmm",
            ),
            (
                ["score", "--trials", "TRIALS", "--models", "WRONG_MODELS", "--ubm", "UBM", "--features", "FEATS", "--out", "OUT"],
                "fb.json", "gmm",
            ),
        ],
        ids=["learn-filterbank-scale-doc", "extract-filterbank", "fratio-filterbanks", "enroll-ubm", "score-ubm", "score-models"],
    )
    def test_wrong_kind_exits_2_with_one_line(self, capsys, small_corpus, pipeline, tmp_path, command, wrong, expected):
        found = load_model(pipeline / wrong).kind
        paths = {
            "MANIFEST": small_corpus["manifest"], "ENROLL": small_corpus["enroll"], "TRIALS": small_corpus["trials"],
            "FB": pipeline / "fb.json", "UBM": pipeline / "ubm.json", "FEATS": pipeline / "feats",
            "MODELS": pipeline / "models", "OUT": tmp_path / "out", "WRONG": pipeline / wrong,
        }
        named = pipeline / wrong
        if "WRONG_MODELS" in command:
            # A models directory in which one speaker's model file holds a document of another kind.
            paths["WRONG_MODELS"] = models = tmp_path / "models"
            shutil.copytree(pipeline / "models", models)
            enroll_id = small_corpus["trials"].read_text().split("\t")[0]
            named = models / f"{enroll_id}.json"
            shutil.copyfile(pipeline / wrong, named)
        rc, out, err = run(capsys, *[paths.get(a, a) for a in command])
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: {named}: expected kind {expected!r}, found {found!r}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
    def test_schema_version_must_be_the_integer(self, capsys, pipeline, tmp_path, version):
        # JSON true and 1.0 compare equal to 1 in Python, but are not schema version 1.
        bad = tmp_path / "scale.json"
        bad.write_text(json.dumps({**json.loads((pipeline / "scale.json").read_text()), "schema_version": version}))
        rc, out, err = run(capsys, "learn-filterbank", "--scale-doc", bad, "--shape", "tri", "--out", tmp_path / "out")
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: {bad}: unsupported schema version {brief(version)}"]
        assert not (tmp_path / "out").exists()

    def test_extract_checks_n_ceps_once(self, small_corpus, pipeline, tmp_path):
        fb10 = tmp_path / "fb10.json"
        assert main(["learn-filterbank", "--scale-doc", str(pipeline / "scale.json"), "--out", str(fb10), "--shape", "tri", "--n-filters", "10"]) == 0
        proc = python_child(
            "-m", "warpfilt.cli", "extract", "--manifest", small_corpus["manifest"], "--filterbank", fb10,
            "--out", tmp_path / "feats",
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {fb10}: n_ceps 19 must be <= n_filters - 1 = 9"]
        assert not (tmp_path / "feats").exists()


class TestAsvCommands:
    def test_scores_written(self, pipeline, small_corpus):
        scores = read_scores(pipeline / "scores.tsv")
        trial_lines = (small_corpus["trials"]).read_text().strip().splitlines()
        assert len(scores.trials) == len(trial_lines)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_evaluate_separable_corpus(self, capsys, separable_scores, seed):
        rc, out, _ = run(capsys, "evaluate", "--scores", separable_scores[seed])
        assert rc == 0
        values = parse_kv(out)
        assert float(values["eer_percent"]) == 0.0
        assert float(values["min_dcf_x100"]) == 0.0

    def test_fuse_with_self_keeps_metrics(self, capsys, pipeline):
        rc, base, _ = run(capsys, "evaluate", "--scores", pipeline / "scores.tsv")
        rc2, fused, _ = run(capsys, "evaluate", "--scores", pipeline / "scores.tsv", "--fuse-with", pipeline / "scores.tsv")
        assert rc == rc2 == 0
        assert parse_kv(base) == parse_kv(fused)

    def test_cost_presets_selectable(self, capsys, pipeline, tmp_path):
        # rank-preserving noise so minDCF is nonzero and presets differ
        rng = np.random.default_rng(0)
        scores = read_scores(pipeline / "scores.tsv")
        noisy = tmp_path / "noisy.tsv"
        lines = [
            f"{t.enroll_id}\t{t.test_id}\t{t.label}\t{t.score + rng.normal(0, 2.0)!r}"
            for t in scores.trials
        ]
        noisy.write_text("\n".join(lines) + "\n")
        _, out_nist, _ = run(capsys, "evaluate", "--scores", noisy, "--cost-preset", "nist-sre")
        _, out_vox, _ = run(capsys, "evaluate", "--scores", noisy, "--cost-preset", "voxceleb")
        assert parse_kv(out_nist)["eer_percent"] == parse_kv(out_vox)["eer_percent"]
        assert parse_kv(out_nist)["min_dcf_x100"] != parse_kv(out_vox)["min_dcf_x100"]

    def test_det_points_written(self, capsys, pipeline, tmp_path):
        det = tmp_path / "det.tsv"
        rc, _, _ = run(capsys, "evaluate", "--scores", pipeline / "scores.tsv", "--det-out", det)
        assert rc == 0
        rows = det.read_text().strip().splitlines()
        assert rows[0].split("\t") == ["threshold", "p_miss", "p_fa", "probit_miss", "probit_fa"]
        assert len(rows) > 2

    def test_det_probits_match_norm_ppf(self, capsys, pipeline, tmp_path):
        import scipy.stats

        det = tmp_path / "det.tsv"
        rc, _, _ = run(capsys, "evaluate", "--scores", pipeline / "scores.tsv", "--det-out", det)
        assert rc == 0
        cols = np.array([[float(v) for v in row.split("\t")] for row in det.read_text().splitlines()[1:]])
        expected = scipy.stats.norm.ppf(cols[:, 1:3])
        probits = cols[:, 3:5]
        assert np.isneginf(expected).any() and np.isposinf(expected).any()
        assert np.array_equal(np.isneginf(probits), np.isneginf(expected))
        assert np.array_equal(np.isposinf(probits), np.isposinf(expected))
        finite = np.isfinite(expected)
        # A bound set from float64 alone: 8 eps, relative above |x| = 1 and absolute below it.
        bound = 8 * np.finfo(np.float64).eps * np.maximum(1.0, np.abs(expected[finite]))
        assert np.all(np.abs(probits[finite] - expected[finite]) <= bound)


class TestScoreJobs:
    def test_scores_byte_identical_across_jobs(self, capsys, small_corpus, pipeline, tmp_path):
        common = [
            "score", "--trials", small_corpus["trials"], "--models", pipeline / "models",
            "--ubm", pipeline / "ubm.json", "--features", pipeline / "feats",
        ]
        for jobs in (1, 3):
            rc, _, _ = run(capsys, *common, "--jobs", jobs, "--out", tmp_path / f"scores{jobs}.tsv")
            assert rc == 0
        one = (tmp_path / "scores1.tsv").read_bytes()
        assert one == (tmp_path / "scores3.tsv").read_bytes()
        assert one == (pipeline / "scores.tsv").read_bytes()

    def test_scores_in_trial_list_order(self, pipeline, small_corpus):
        listed = [line.split()[:2] for line in small_corpus["trials"].read_text().strip().splitlines()]
        written = [list(t.key) for t in read_scores(pipeline / "scores.tsv").trials]
        assert written == listed


class TestPerItemRunner:
    """cli._map_ordered runs every utterance, test-segment and speaker loop and names a failing item."""

    def test_look_ahead_bounded_at_two_jobs(self):
        lock = threading.Lock()
        counts = {"started": 0, "consumed": 0, "most": 0}

        def fn(item):
            with lock:
                counts["started"] += 1
                counts["most"] = max(counts["most"], counts["started"] - counts["consumed"])
            return item

        results = []
        for result in cli._map_ordered(fn, range(40), 2, str):
            time.sleep(0.002)  # a slow consumer: the workers could run far ahead of it
            results.append(result)
            with lock:
                counts["consumed"] += 1
        assert results == list(range(40))
        assert counts["started"] == 40 and counts["most"] <= 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_keep_going_yields_named_failures_in_order(self, jobs):
        def fn(item):
            if item % 3 == 0:
                raise ValueError("bad")
            return item

        results = list(cli._map_ordered(fn, range(7), jobs, lambda i: f"item {i}", keep_going=True))
        assert [str(r) if isinstance(r, ValueError) else r for r in results] == [
            "item 0: bad", 1, 2, "item 3: bad", 4, 5, "item 6: bad"
        ]
        with pytest.raises(ValueError, match=r"^item 0: bad$"):
            list(cli._map_ordered(fn, range(7), jobs, lambda i: f"item {i}"))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_utterance_named_once(self, capsys, small_corpus, tmp_path, jobs):
        manifest = load_manifest(small_corpus["manifest"])
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio")
        for entry in manifest.entries[2:4]:
            entry.path = str(bad)
        save_manifest(manifest, tmp_path / "m.json")
        first = load_manifest(tmp_path / "m.json").entries[2]
        rc, out, err = run(
            capsys, "learn-scale", "--manifest", tmp_path / "m.json", "--scale", "speech", "--jobs", jobs,
            "--out", tmp_path / "s.json",
        )
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: utterance {first.utterance_id}: {first.path}: not a RIFF/WAVE file"]
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_test_segment_named_once(self, capsys, small_corpus, pipeline, tmp_path, jobs):
        feats = tmp_path / "feats"
        shutil.copytree(pipeline / "feats", feats)
        test_ids = list(dict.fromkeys(line.split("\t")[1] for line in small_corpus["trials"].read_text().splitlines()))
        for test_id in test_ids[:2]:
            fm = read_features(feats / f"{test_id}.wflt")
            write_features(FeatureMatrix(fm.vectors, np.zeros(fm.n_frames, dtype=bool)), feats / f"{test_id}.wflt")
        rc, out, err = run(
            capsys, "score", "--trials", small_corpus["trials"], "--models", pipeline / "models",
            "--ubm", pipeline / "ubm.json", "--features", feats, "--jobs", jobs, "--out", tmp_path / "scores.tsv",
        )
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: test segment {test_ids[0]}: no speech frames to score"]
        assert not (tmp_path / "scores.tsv").exists()

    def test_speaker_named_once_and_no_model_written(self, capsys, small_corpus, pipeline, tmp_path):
        # The last speakers in order fail, so a runner that wrote as it went would leave spk0's model.
        feats = tmp_path / "feats"
        shutil.copytree(pipeline / "feats", feats)
        for entry in load_manifest(small_corpus["enroll"]).entries:
            if entry.speaker_id in ("spk1", "spk2"):
                fm = read_features(feats / f"{entry.utterance_id}.wflt")
                write_features(FeatureMatrix(fm.vectors, np.zeros(fm.n_frames, dtype=bool)), feats / f"{entry.utterance_id}.wflt")
        models = tmp_path / "models"
        rc, out, err = run(
            capsys, "enroll", "--manifest", small_corpus["enroll"], "--features", feats, "--ubm", pipeline / "ubm.json",
            "--out", models,
        )
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: speaker spk1: need at least one adaptation frame"]
        assert not models.exists()


# Each id is one stdout field and one file-name component, so no id may hold a
# character that a tab split or str.splitlines would break on.
CONTROL_IDS = ["u\nnl", "u\tt", "u\rr", "u\x01", "u\x7f", "u\u2028"]


class TestExitCodes:
    def test_usage_error(self, capsys):
        rc, _, err = run(capsys, "learn-scale")  # missing required flags
        assert rc == 1
        assert "usage error" in err

    def test_unknown_subcommand(self, capsys):
        rc, _, _ = run(capsys, "frobnicate")
        assert rc == 1

    def test_data_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, "evaluate", "--scores", tmp_path / "missing.tsv")
        assert rc == 2

    def test_missing_manifest_one_error_line(self, tmp_path):
        # A child process, so logging is set up as in a shell run rather than under pytest.
        missing = tmp_path / "missing.json"
        proc = python_child("-m", "warpfilt.cli", "learn-scale", "--manifest", missing, "--out", tmp_path / "s.json")
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and str(missing) in lines[0]

    def test_manifest_entry_without_path(self, capsys, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"sample_rate_hz": 16000, "entries": [{"utterance_id": "u"}]}))
        rc, _, err = run(capsys, "learn-scale", "--manifest", manifest, "--out", tmp_path / "s.json")
        assert rc == 2
        assert err.splitlines() == [f"error: {manifest}: entry 0 lacks 'path'"]

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"entries": 5}, "field 'entries' must be a list"),
            ({"sample_rate_hz": None}, "field 'sample_rate_hz' must be a positive integer"),
            ({"path": 3}, "entry 0 field 'path' must be a non-empty string"),
            ({"utterance_id": ["u"]}, "entry 0 field 'utterance_id' must be a non-empty string"),
        ],
        ids=["entries", "sample_rate_hz", "path", "utterance_id"],
    )
    def test_malformed_manifest_one_error_line(self, capsys, small_corpus, tmp_path, change, message):
        obj = json.loads(Path(small_corpus["manifest"]).read_text())
        for key, value in change.items():
            if key in obj:
                obj[key] = value
            else:
                obj["entries"][0][key] = value
        manifest = Path(small_corpus["manifest"]).parent / "malformed.json"  # relative paths still resolve
        manifest.write_text(json.dumps(obj))
        try:
            rc, out, err = run(capsys, "learn-scale", "--manifest", manifest, "--scale", "speech", "--out", tmp_path / "s.json")
        finally:
            manifest.unlink()
        assert rc == 2
        assert err.splitlines() == [f"error: {manifest}: {message}"]
        assert out == ""

    def test_score_names_segment_without_speech(self, small_corpus, pipeline, tmp_path):
        feats = tmp_path / "feats"
        shutil.copytree(pipeline / "feats", feats)
        test_id = small_corpus["trials"].read_text().split()[1]
        fm = read_features(feats / f"{test_id}.wflt")
        write_features(FeatureMatrix(fm.vectors, np.zeros(fm.n_frames, dtype=bool)), feats / f"{test_id}.wflt")
        proc = python_child(
            "-m", "warpfilt.cli", "score", "--trials", small_corpus["trials"], "--models", pipeline / "models",
            "--ubm", pipeline / "ubm.json", "--features", feats, "--out", tmp_path / "scores.tsv",
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: test segment {test_id}: no speech frames to score"]
        assert not (tmp_path / "scores.tsv").exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["learn-scale", "--manifest", "MANIFEST", "--scale", "speech", "--out"],
            ["learn-filterbank", "--manifest", "MANIFEST", "--scale-doc", "ART/scale.json", "--shape", "wpca-norm", "--out"],
            ["fratio", "--manifest", "MANIFEST", "--filterbanks", "ART/fb.json", "--out"],
            ["train-ubm", "--features", "ART/feats", "--ubm-components", "8", "--out"],
            [
                "score", "--trials", "TRIALS", "--models", "ART/models", "--ubm", "ART/ubm.json",
                "--features", "ART/feats", "--out",
            ],
            ["evaluate", "--scores", "ART/scores.tsv", "--det-out"],
            ["extract", "--manifest", "MANIFEST", "--filterbank", "ART/fb.json", "--out"],
            ["enroll", "--manifest", "ENROLL", "--features", "ART/feats", "--ubm", "ART/ubm.json", "--out"],
        ],
        ids=lambda command: command[0],
    )
    def test_existing_output_refused_before_work(self, capsys, monkeypatch, small_corpus, pipeline, tmp_path, command):
        # extract and enroll write into a directory; one of their later outputs exists there.
        out_path = tmp_path / "existing"
        existing = out_path / {"extract": "spk2_u03.wflt", "enroll": "spk1.json"}.get(command[0], "")
        existing.parent.mkdir(exist_ok=True)
        existing.write_text("kept\n")
        reads = [count_calls(monkeypatch, store, name) for name in ("load_wav", "read_features", "read_scores", "load_model")]
        names = {"MANIFEST": small_corpus["manifest"], "ENROLL": small_corpus["enroll"], "TRIALS": small_corpus["trials"]}
        argv = [names.get(a, pipeline / a[4:] if a.startswith("ART/") else a) for a in command]
        rc, out, err = run(capsys, *argv, out_path)
        assert rc == 2
        assert err.splitlines() == [f"error: {existing} exists; pass --overwrite to replace it"]
        assert out == "" and reads == [[], [], [], []]
        assert existing.read_text() == "kept\n"

    @pytest.mark.parametrize("label, value", [("target", "nan"), ("impostor", "nan"), ("impostor", "-inf")])
    def test_evaluate_rejects_non_finite_score(self, capsys, pipeline, tmp_path, label, value):
        lines = (pipeline / "scores.tsv").read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.split("\t")[2] == label)
        lines[lineno - 1] = "\t".join(lines[lineno - 1].split("\t")[:3] + [value])
        scores = tmp_path / "scores.tsv"
        scores.write_text("\n".join(lines) + "\n")
        rc, out, err = run(capsys, "evaluate", "--scores", scores)
        assert rc == 2
        assert err.splitlines() == [f"error: {scores}:{lineno}: non-finite score"]
        assert out == ""

    @pytest.mark.parametrize("command", ["enroll", "score"])
    def test_gmm_document_error_names_file_and_field(self, capsys, small_corpus, pipeline, tmp_path, command):
        doc = load_model(pipeline / "ubm.json")
        doc.payload["means"][0][0] = float("nan")
        ubm = tmp_path / "ubm.json"
        store.save_model(doc, ubm)  # a fresh checksum, as a hand edit would get
        if command == "enroll":
            rest = ["--manifest", small_corpus["enroll"], "--out", tmp_path / "models"]
        else:
            rest = ["--trials", small_corpus["trials"], "--models", pipeline / "models", "--out", tmp_path / "s.tsv"]
        rc, _, err = run(capsys, command, "--ubm", ubm, "--features", pipeline / "feats", *rest)
        assert rc == 2
        assert err.splitlines() == [f"error: {ubm}: means must be finite"]

    @pytest.mark.parametrize(
        "command, field",
        [
            (["learn-filterbank", "--scale-doc", "DOC", "--shape", "tri", "--out", "OUT"], "knots_hz"),
            (["learn-filterbank", "--manifest", "MANIFEST", "--scale-doc", "DOC", "--shape", "pca", "--out", "OUT"], "knots_hz"),
            (["extract", "--manifest", "MANIFEST", "--filterbank", "DOC", "--out", "OUT"], "responses"),
            (["fratio", "--manifest", "MANIFEST", "--filterbanks", "DOC", "--out", "OUT"], "responses"),
        ],
        ids=["learn-filterbank-tri", "learn-filterbank-pca", "extract", "fratio"],
    )
    def test_non_finite_document_named_before_corpus_pass(
        self, capsys, monkeypatch, small_corpus, pipeline, tmp_path, command, field
    ):
        if field == "knots_hz":
            doc = load_model(pipeline / "scale.json")
            doc.payload["knots_hz"][2] = float("nan")
        else:
            doc = load_model(pipeline / "fb.json")
            doc.payload["responses"][3][40] = float("nan")
        bad = tmp_path / "doc.json"
        store.save_model(doc, bad)  # a fresh checksum, as a hand edit would get
        loaded = count_calls(monkeypatch, store, "load_wav")
        names = {"DOC": bad, "MANIFEST": small_corpus["manifest"], "OUT": tmp_path / "out"}
        rc, out, err = run(capsys, *[names.get(a, a) for a in command])
        assert rc == 2
        assert err.splitlines() == [f"error: {bad}: {field} must be finite"]
        assert out == "" and loaded == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("utterance_id", "../escaped"),
            ("utterance_id", ".."),
            ("utterance_id", "."),
            ("utterance_id", "a/b"),
            ("utterance_id", "a\\b"),
            ("utterance_id", "a\0b"),
            ("speaker_id", "../escaped"),
            *[("utterance_id", value) for value in CONTROL_IDS],
        ],
    )
    def test_manifest_id_that_is_no_file_name_refused(
        self, capsys, monkeypatch, small_corpus, pipeline, tmp_path, field, value
    ):
        manifest = load_manifest(small_corpus["manifest"])
        setattr(manifest.entries[0], field, value)
        save_manifest(manifest, tmp_path / "m.json")
        loaded = count_calls(monkeypatch, store, "load_wav")
        out = tmp_path / "out" / "feats"
        rc, stdout, err = run(capsys, "extract", "--manifest", tmp_path / "m.json", "--filterbank", pipeline / "fb.json", "--out", out)
        assert rc == 2
        assert err.splitlines() == [
            f"error: {tmp_path / 'm.json'}: entry 0 field {field!r} must be one path component, got {value!r}"
        ]
        assert stdout == "" and loaded == []
        assert not (tmp_path / "out").exists() and not (tmp_path / "escaped.wflt").exists()

    def test_extract_refuses_id_too_long_for_a_file_name(self, capsys, monkeypatch, small_corpus, pipeline, tmp_path):
        # '<id>.wflt' must fit the usual 255-byte file-name limit.
        manifest = load_manifest(small_corpus["manifest"])
        manifest.entries[1].utterance_id = "a" * 300
        save_manifest(manifest, tmp_path / "m.json")
        loaded = count_calls(monkeypatch, store, "load_wav")
        out = tmp_path / "out" / "feats"
        rc, stdout, err = run(capsys, "extract", "--manifest", tmp_path / "m.json", "--filterbank", pipeline / "fb.json", "--out", out)
        assert rc == 2
        assert err.splitlines() == [
            f"error: {tmp_path / 'm.json'}: entry 1 field 'utterance_id' must be <= 250 bytes, "
            f"got '{'a' * 39}... (302 characters)"
        ]
        assert len(err.splitlines()[0]) < 200
        assert stdout == "" and loaded == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", CONTROL_IDS)
    def test_enroll_refuses_control_character_speaker_id(self, capsys, small_corpus, pipeline, tmp_path, value):
        manifest = load_manifest(small_corpus["enroll"])
        first = manifest.entries[0].speaker_id
        for entry in manifest.entries:
            if entry.speaker_id == first:
                entry.speaker_id = value
        save_manifest(manifest, tmp_path / "m.json")
        rc, stdout, err = run(
            capsys, "enroll", "--manifest", tmp_path / "m.json", "--features", pipeline / "feats",
            "--ubm", pipeline / "ubm.json", "--out", tmp_path / "models",
        )
        assert rc == 2
        assert err.splitlines() == [
            f"error: {tmp_path / 'm.json'}: entry 0 field 'speaker_id' must be one path component, got {value!r}"
        ]
        assert stdout == ""
        assert not (tmp_path / "models").exists()

    @pytest.mark.parametrize("column, field", [(0, "enroll_id"), (1, "test_id")])
    @pytest.mark.parametrize("value", ["../x", "", "..", "x\x01"])
    def test_trial_id_that_is_no_file_name_refused(self, capsys, small_corpus, pipeline, tmp_path, column, field, value):
        lines = small_corpus["trials"].read_text().splitlines()
        parts = lines[1].split("\t")
        parts[column] = value
        lines[1] = "\t".join(parts)
        trials = tmp_path / "trials.tsv"
        trials.write_text("\n".join(lines) + "\n")
        rc, out, err = run(
            capsys, "score", "--trials", trials, "--models", pipeline / "models", "--ubm", pipeline / "ubm.json",
            "--features", pipeline / "feats", "--out", tmp_path / "scores.tsv",
        )
        assert rc == 2
        assert err.splitlines() == [f"error: {trials}:2: field {field!r} must be one path component, got {value!r}"]
        assert out == "" and sorted(tmp_path.iterdir()) == [trials]

    def test_trial_id_too_long_for_a_file_name_refused(self, capsys, small_corpus, pipeline, tmp_path):
        lines = small_corpus["trials"].read_text().splitlines()
        lines[1] = "\t".join(["e" * 10000] + lines[1].split("\t")[1:])
        trials = tmp_path / "trials.tsv"
        trials.write_text("\n".join(lines) + "\n")
        rc, out, err = run(
            capsys, "score", "--trials", trials, "--models", pipeline / "models", "--ubm", pipeline / "ubm.json",
            "--features", pipeline / "feats", "--out", tmp_path / "scores.tsv",
        )
        assert rc == 2
        assert err.splitlines() == [
            f"error: {trials}:2: field 'enroll_id' must be <= 250 bytes, got '{'e' * 39}... (10002 characters)"
        ]
        assert len(err.splitlines()[0]) < 200
        assert out == "" and sorted(tmp_path.iterdir()) == [trials]

    DOCUMENT_FIELDS = [
        ("scale.json", "knots_hz"), ("scale.json", "knots_warped"), ("scale.json", "scale_kind"),
        ("scale.json", "n_fft"), ("scale.json", "sample_rate_hz"),
        ("fb.json", "boundary_bins"), ("fb.json", "responses"), ("fb.json", "shape_kind"),
        ("fb.json", "n_fft"), ("fb.json", "sample_rate_hz"),
        ("ubm.json", "weights"), ("ubm.json", "means"), ("ubm.json", "variances"),
        ("ubm.json", "n_fft"), ("ubm.json", "sample_rate_hz"),
    ]

    def _run_on_document(self, capsys, monkeypatch, small_corpus, pipeline, tmp_path, doc_name, edit):
        """Run the command that reads doc_name on a copy changed by edit(doc); (exit code, stdout, stderr lines)."""
        doc = load_model(pipeline / doc_name)
        edit(doc)
        bad = tmp_path / doc_name
        store.save_model(doc, bad)  # a fresh checksum, as a hand edit would get
        out = tmp_path / "out"
        command = {
            "scale.json": ["learn-filterbank", "--scale-doc", bad, "--shape", "tri", "--out", out],
            "fb.json": ["extract", "--manifest", small_corpus["manifest"], "--filterbank", bad, "--out", out],
            "ubm.json": [
                "enroll", "--manifest", small_corpus["enroll"], "--features", pipeline / "feats", "--ubm", bad,
                "--out", out,
            ],
        }[doc_name]
        loaded = count_calls(monkeypatch, store, "load_wav")
        rc, stdout, err = run(capsys, *command)
        assert loaded == [] and not out.exists()
        return rc, stdout, err.splitlines(), bad

    @pytest.mark.parametrize("value", [{}, "x", None, 2.5], ids=["object", "string", "null", "float"])
    @pytest.mark.parametrize("doc_name, field", DOCUMENT_FIELDS, ids=lambda v: v.split(".")[0])
    def test_mistyped_document_field_one_error_line(
        self, capsys, monkeypatch, small_corpus, pipeline, tmp_path, doc_name, field, value
    ):
        def edit(doc):
            if field in ("n_fft", "sample_rate_hz"):
                setattr(doc, field, value)
            else:
                doc.payload[field] = value

        rc, out, lines, bad = self._run_on_document(capsys, monkeypatch, small_corpus, pipeline, tmp_path, doc_name, edit)
        assert rc == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: ")
        assert field in lines[0] or field.replace("_", " ") in lines[0]

    @pytest.mark.parametrize(
        "doc_name, field, edit",
        [
            ("fb.json", "boundary_bins", lambda p: p["boundary_bins"].__setitem__(1, 3.7)),
            ("fb.json", "boundary_bins", lambda p: p["boundary_bins"].__setitem__(1, float(p["boundary_bins"][1]))),
            ("fb.json", "boundary_bins", lambda p: p["boundary_bins"].__setitem__(1, 10**30)),
            ("fb.json", "responses", lambda p: p["responses"][2].pop()),
            ("ubm.json", "means", lambda p: p["means"][0].__setitem__(0, "0.5")),
            ("ubm.json", "weights", lambda p: p["weights"].__setitem__(0, True)),
            ("scale.json", "knots_hz", lambda p: p.__setitem__("knots_hz", [[v] for v in p["knots_hz"]])),
            ("scale.json", "knots_hz", lambda p: p.__setitem__("knots_hz", []) or p.__setitem__("knots_warped", [])),
        ],
        ids=["bins-fraction", "bins-integral-float", "bins-huge", "ragged", "string-element", "bool-element",
             "nested-knots", "no-knots"],
    )
    def test_mistyped_document_element_one_error_line(
        self, capsys, monkeypatch, small_corpus, pipeline, tmp_path, doc_name, field, edit
    ):
        rc, out, lines, bad = self._run_on_document(
            capsys, monkeypatch, small_corpus, pipeline, tmp_path, doc_name, lambda doc: edit(doc.payload)
        )
        assert rc == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: ") and field in lines[0]

    @pytest.mark.parametrize("part", ["payload", "provenance"])
    def test_document_part_not_an_object(self, capsys, pipeline, tmp_path, part):
        obj = json.loads((pipeline / "scale.json").read_text())
        obj[part] = [1, 2]
        if part == "payload":
            obj["provenance"]["payload_sha256"] = store._payload_digest(obj["payload"])
        bad = tmp_path / "scale.json"
        bad.write_text(json.dumps(obj))
        rc, out, err = run(capsys, "learn-filterbank", "--scale-doc", bad, "--shape", "tri", "--out", tmp_path / "fb.json")
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: {bad}: {part} must be an object"]

    @pytest.mark.parametrize("kind", [["gmm"], {"gmm": 1}, 3, None, True])
    def test_document_kind_of_another_json_type(self, capsys, pipeline, tmp_path, kind):
        obj = json.loads((pipeline / "scale.json").read_text())
        obj["kind"] = kind
        bad = tmp_path / "scale.json"
        bad.write_text(json.dumps(obj))
        rc, out, err = run(capsys, "learn-filterbank", "--scale-doc", bad, "--shape", "tri", "--out", tmp_path / "fb.json")
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: {bad}: unknown model kind {kind!r}"]


class TestTextInputs:
    """A text input that is no UTF-8, no JSON or JSON nested too deep exits 2 with one line naming the file."""

    BAD_TEXT = {
        "syntax": b'{"a": x}',
        "not-utf-8": b'{"a": "\xff"}',
        "deep": b"[" * 200_000,
    }

    @pytest.mark.parametrize("which", ["config", "manifest", "model"])
    @pytest.mark.parametrize("kind", sorted(BAD_TEXT))
    def test_bad_json_input_one_line_naming_file(self, capsys, monkeypatch, small_corpus, tmp_path, which, kind):
        bad = tmp_path / "bad.json"
        bad.write_bytes(self.BAD_TEXT[kind])
        argv = {
            "config": ["learn-scale", "--manifest", small_corpus["manifest"], "--scale", "speech", "--config", bad],
            "manifest": ["learn-scale", "--manifest", bad, "--scale", "speech"],
            "model": ["learn-filterbank", "--manifest", small_corpus["manifest"], "--scale-doc", bad, "--shape", "pca"],
        }[which]
        loaded = count_calls(monkeypatch, store, "load_wav")
        rc, out, err = run(capsys, *argv, "--out", tmp_path / "out.json")
        assert rc == 2 and out == "" and loaded == []
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: ")
        if kind == "syntax":
            assert lines == [f"error: {bad}: Expecting value: line 1 column 7 (char 6)"]
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("which", ["trials", "scores"])
    def test_trial_lines_not_utf_8_one_line_naming_file(self, capsys, small_corpus, pipeline, tmp_path, which):
        source = small_corpus["trials"] if which == "trials" else pipeline / "scores.tsv"
        lines = source.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"spk", b"sp\xffk", 1)
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"".join(lines))
        if which == "trials":
            argv = ["score", "--trials", bad, "--models", pipeline / "models", "--ubm", pipeline / "ubm.json",
                    "--features", pipeline / "feats", "--out", tmp_path / "scores.tsv"]
        else:
            argv = ["evaluate", "--scores", bad]
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {bad}: ")
        assert not (tmp_path / "scores.tsv").exists()

    TRIAL_FIELDS = st.sampled_from(["spk0", "spk1", "spk2_u02", "spk0_u03", "target", "impostor", "0.5", "nan", ""])
    TRIAL_TEXT = st.lists(
        st.lists(TRIAL_FIELDS | st.text(st.characters(blacklist_categories=("Cs",)), max_size=5), max_size=5).map("\t".join),
        max_size=5,
    ).map("\n".join)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(which=st.sampled_from(["trials", "scores"]), text=TRIAL_TEXT)
    def test_any_trial_or_score_text(self, capsys, pipeline, tmp_path, which, text):
        path = tmp_path / "lines.tsv"
        path.write_text(text, encoding="utf-8")
        if which == "trials":
            argv = ["score", "--trials", path, "--models", pipeline / "models", "--ubm", pipeline / "ubm.json",
                    "--features", pipeline / "feats", "--out", tmp_path / "scores.tsv", "--overwrite"]
        else:
            argv = ["evaluate", "--scores", path]
        rc, _, err = run(capsys, *argv)
        assert rc in (0, 2)
        assert len(err.splitlines()) <= 1


class TestFeatureInputs:
    def test_enroll_missing_feature_file_writes_no_model(self, capsys, small_corpus, pipeline, tmp_path):
        feats = tmp_path / "feats"
        shutil.copytree(pipeline / "feats", feats)
        (feats / "spk2_u01.wflt").unlink()
        models = tmp_path / "models"
        rc, out, err = run(
            capsys, "enroll", "--manifest", small_corpus["enroll"], "--features", feats, "--ubm", pipeline / "ubm.json",
            "--out", models,
        )
        assert rc == 2
        assert err.splitlines() == [f"error: {feats}: no features for utterance spk2_u01"]
        assert out == "" and not models.exists()

    def test_score_missing_feature_file_names_test_segment(self, capsys, small_corpus, pipeline, tmp_path):
        feats = tmp_path / "feats"
        shutil.copytree(pipeline / "feats", feats)
        (feats / "spk1_u03.wflt").unlink()
        rc, out, err = run(
            capsys, "score", "--trials", small_corpus["trials"], "--models", pipeline / "models",
            "--ubm", pipeline / "ubm.json", "--features", feats, "--out", tmp_path / "scores.tsv",
        )
        assert rc == 2
        assert err.splitlines() == [f"error: {feats}: no features for test segment spk1_u03"]
        assert out == "" and not (tmp_path / "scores.tsv").exists()

    def test_train_ubm_refuses_dimension_0_naming_file(self, capsys, tmp_path):
        # Valid headers of 700 frames and dimension 0: a mask and no values.
        feats = tmp_path / "feats"
        feats.mkdir()
        for name in ("a", "b", "c"):
            (feats / f"{name}.wflt").write_bytes(struct.pack("<4sIII", b"WFLT", 1, 700, 0) + b"\xff" * 88)
        rc, out, err = run(capsys, "train-ubm", "--features", feats, "--out", tmp_path / "ubm.json", "--ubm-components", 4)
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: {feats / 'a.wflt'}: feature dimension must be >= 1, got 0"]
        assert not (tmp_path / "ubm.json").exists()

    def test_train_ubm_names_file_of_other_dimension(self, capsys, pipeline, tmp_path):
        feats = tmp_path / "feats"
        shutil.copytree(pipeline / "feats", feats)
        files = sorted(feats.glob("*.wflt"))
        fm = read_features(files[6])
        write_features(FeatureMatrix(fm.vectors[:, :30], fm.mask), files[6])
        rc, out, err = run(capsys, "train-ubm", "--features", feats, "--out", tmp_path / "ubm.json", "--ubm-components", 4)
        assert rc == 2
        assert err.splitlines() == [f"error: {files[6]}: dim 30 differs from dim 57 of {files[0]}"]
        assert out == "" and not (tmp_path / "ubm.json").exists()


def tone_tail_utterance(root):
    """Utterance `tail` of speaker spkB, whose SAD keeps fewer than two frames.

    It is 0.12 s of 1e-3 noise with a 0.5-amplitude tone in its last 158 samples.
    """
    samples = 1e-3 * np.random.default_rng(0).standard_normal(1920)
    samples[-158:] += 0.5 * np.sin(2.0 * np.pi * 440.0 * np.arange(158) / 16000)
    path = Path(root) / "tail.wav"
    write_wav(path, AudioSegment(samples, 16000, "tail"))
    return ManifestEntry("tail", path, "spkB")


class TestErrorLinesNameInput:
    """An input that holds too little for its command ends it with exit 2 and one line naming that input."""

    @pytest.mark.parametrize(
        "lines",
        [["a\tx\ttarget\t2.0", "b\ty\ttarget\t0.5"], ["a\ty\timpostor\t1.0", "b\tx\timpostor\t-1.0"]],
        ids=["no-impostor", "no-target"],
    )
    def test_evaluate_scores_of_one_label(self, capsys, tmp_path, lines):
        scores = tmp_path / "scores.tsv"
        scores.write_text("\n".join(lines) + "\n")
        rc, out, err = run(capsys, "evaluate", "--scores", scores, "--det-out", tmp_path / "det.tsv")
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: {scores}: need at least one target and one impostor trial"]
        assert not (tmp_path / "det.tsv").exists()

    def test_evaluate_fuse_with_other_trial_keys_names_both_files(self, capsys, tmp_path):
        scores = write_score_file(tmp_path)
        other = tmp_path / "other.tsv"
        other.write_text(scores.read_text().replace("a\tx\t", "c\tx\t"))
        rc, out, err = run(capsys, "evaluate", "--scores", scores, "--fuse-with", other)
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: {scores} and {other}: trial keys do not match"]

    def test_score_blank_trial_list(self, capsys, pipeline, tmp_path):
        trials = tmp_path / "trials.tsv"
        trials.write_text("")
        rc, out, err = run(
            capsys, "score", "--trials", trials, "--models", pipeline / "models", "--ubm", pipeline / "ubm.json",
            "--features", pipeline / "feats", "--out", tmp_path / "scores.tsv",
        )
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: {trials}: no trials"]
        assert not (tmp_path / "scores.tsv").exists()

    def test_train_ubm_too_few_frames(self, capsys, pipeline, tmp_path):
        feats = pipeline / "feats"
        n_frames = sum(read_features(p).speech_frames.shape[0] for p in feats.glob("*.wflt"))
        rc, out, err = run(capsys, "train-ubm", "--features", feats, "--out", tmp_path / "ubm.json", "--ubm-components", 1000)
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: {feats}: too few frames: {n_frames}, need 10 x 1000 components = 10000"]
        assert not (tmp_path / "ubm.json").exists()

    @pytest.mark.parametrize("command", ["enroll", "fratio"])
    def test_manifest_without_speaker_ids(self, capsys, small_corpus, pipeline, tmp_path, command):
        manifest = load_manifest(small_corpus["manifest"])
        anonymous = tmp_path / "anonymous.json"
        save_manifest(CorpusManifest([dataclasses.replace(e, speaker_id=None) for e in manifest.entries], 16000), anonymous)
        rest = {
            "enroll": ["--features", pipeline / "feats", "--ubm", pipeline / "ubm.json", "--out", tmp_path / "out"],
            "fratio": ["--filterbanks", pipeline / "fb.json", pipeline / "fb.json", "--out", tmp_path / "out"],
        }[command]
        message = {"enroll": "no speaker_ids", "fratio": "need speaker_ids for at least two speakers"}[command]
        rc, out, err = run(capsys, command, "--manifest", anonymous, *rest)
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: {anonymous}: {message}"]
        assert not (tmp_path / "out").exists()

    def test_fratio_one_filterbank_named_before_audio(self, capsys, monkeypatch, small_corpus, pipeline, tmp_path):
        loaded = count_calls(monkeypatch, store, "load_wav")
        rc, out, err = run(capsys, "fratio", "--manifest", small_corpus["manifest"], "--filterbanks", pipeline / "fb.json")
        assert (rc, out, loaded) == (2, "", [])
        assert err.splitlines() == [f"error: {pipeline / 'fb.json'}: need a second filterbank to compare with"]

    def test_fratio_filter_counts_differ_named_before_audio(self, capsys, monkeypatch, small_corpus, pipeline, tmp_path):
        fb10 = tmp_path / "fb10.json"
        assert run(capsys, "learn-filterbank", "--scale-doc", pipeline / "scale.json", "--out", fb10, "--shape", "tri", "--n-filters", 10)[0] == 0
        loaded = count_calls(monkeypatch, store, "load_wav")
        rc, out, err = run(capsys, "fratio", "--manifest", small_corpus["manifest"], "--filterbanks", pipeline / "fb.json", fb10)
        assert (rc, out, loaded) == (2, "", [])
        assert err.splitlines() == [f"error: {fb10}: n_filters 10 differs from n_filters 20 of {pipeline / 'fb.json'}"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_learn_filterbank_pca_on_too_few_frames(self, capsys, tmp_path, jobs):
        manifest = tmp_path / "tail.json"
        save_manifest(CorpusManifest([tone_tail_utterance(tmp_path)], 16000), manifest)
        assert run(capsys, "learn-scale", "--scale", "mel", "--manifest", manifest, "--out", tmp_path / "mel.json")[0] == 0
        rc, out, err = run(
            capsys, "learn-filterbank", "--shape", "pca", "--manifest", manifest, "--scale-doc", tmp_path / "mel.json",
            "--out", tmp_path / "fb.json", "--jobs", jobs,
        )
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: {manifest}: need >=2 frames"]
        assert not (tmp_path / "fb.json").exists()

    def test_fratio_speaker_with_too_few_frames(self, capsys, small_corpus, pipeline, tmp_path):
        manifest = tmp_path / "m.json"
        entries = load_manifest(small_corpus["manifest"]).entries + [tone_tail_utterance(tmp_path)]
        save_manifest(CorpusManifest(entries, 16000), manifest)
        rc, out, err = run(
            capsys, "fratio", "--manifest", manifest, "--filterbanks", pipeline / "fb.json", pipeline / "fb.json",
            "--out", tmp_path / "f.tsv",
        )
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: {manifest}: speaker 'spkB' has fewer than two frames"]
        assert not (tmp_path / "f.tsv").exists()

    def test_score_missing_model_names_models_directory(self, capsys, small_corpus, pipeline, tmp_path):
        models = tmp_path / "models"
        shutil.copytree(pipeline / "models", models)
        enroll_id = small_corpus["trials"].read_text().split("\t")[0]
        (models / f"{enroll_id}.json").unlink()
        rc, out, err = run(
            capsys, "score", "--trials", small_corpus["trials"], "--models", models, "--ubm", pipeline / "ubm.json",
            "--features", pipeline / "feats", "--out", tmp_path / "scores.tsv",
        )
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: {models}: no enrolled model for {enroll_id}"]


def with_feature_value(path, value):
    """Rewrite the feature file at path with every value of its first speech frame set to value."""
    fm = read_features(path)
    vectors = fm.vectors.copy()
    vectors[np.flatnonzero(fm.mask)[0]] = value
    write_features(FeatureMatrix(vectors, fm.mask), path)


class TestOverflowingInputs:
    """A value that overflows the Gaussian arithmetic ends a command with exit 2 and one line, never NaN scores."""

    def test_ubm_mean_1e308_named_by_score_and_enroll(self, capsys, small_corpus, pipeline, tmp_path):
        obj = json.loads((pipeline / "ubm.json").read_text())
        obj["payload"]["means"][0][0] = 1e308
        obj["provenance"]["payload_sha256"] = store._payload_digest(obj["payload"])
        ubm = tmp_path / "ubm.json"
        ubm.write_text(json.dumps(obj))
        commands = [
            ["score", "--trials", small_corpus["trials"], "--models", pipeline / "models", "--features", pipeline / "feats",
             "--out", tmp_path / "scores.tsv"],
            ["enroll", "--manifest", small_corpus["enroll"], "--features", pipeline / "feats", "--out", tmp_path / "models"],
        ]
        for command in commands:
            rc, out, err = run(capsys, *command, "--ubm", ubm)
            assert rc == 2 and out == "", command[0]
            assert err.splitlines() == [
                f"error: {ubm}: component 1 log-density constant is not finite; its means are too large for its variances"
            ], command[0]
        assert not (tmp_path / "scores.tsv").exists() and not (tmp_path / "models").exists()

    def score(self, capsys, small_corpus, pipeline, feats, tmp_path):
        return run(
            capsys, "score", "--trials", small_corpus["trials"], "--models", pipeline / "models",
            "--ubm", pipeline / "ubm.json", "--features", feats, "--out", tmp_path / "scores.tsv",
        )

    def test_feature_value_1e200_named_by_score_and_train_ubm(self, capsys, small_corpus, pipeline, tmp_path):
        feats = tmp_path / "feats"
        shutil.copytree(pipeline / "feats", feats)
        test_id = small_corpus["trials"].read_text().split("\t")[1]
        path = feats / f"{test_id}.wflt"
        with_feature_value(path, 1e200)
        rc, out, err = self.score(capsys, small_corpus, pipeline, feats, tmp_path)
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: test segment {test_id}: {path}: feature values must have finite squares"]
        rc, out, err = run(capsys, "train-ubm", "--features", feats, "--out", tmp_path / "ubm.json", "--ubm-components", 4)
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: {path}: feature values must have finite squares"]
        assert not (tmp_path / "scores.tsv").exists() and not (tmp_path / "ubm.json").exists()

    def test_feature_value_with_overflowing_log_density_named_by_score(self, capsys, small_corpus, pipeline, tmp_path):
        # (1.3e154)^2 is finite, but the sum over dimensions of its squares over the variances is not.
        feats = tmp_path / "feats"
        shutil.copytree(pipeline / "feats", feats)
        test_id = small_corpus["trials"].read_text().split("\t")[1]
        with_feature_value(feats / f"{test_id}.wflt", 1.3e154)
        rc, out, err = self.score(capsys, small_corpus, pipeline, feats, tmp_path)
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: test segment {test_id}: log densities overflow; features too large for the model"]
        assert not (tmp_path / "scores.tsv").exists()


class TestScoreChecksModelsAgainstUbm:
    """Mean-only MAP copies the UBM's weights and variances, so score refuses a model that does not hold them."""

    @pytest.fixture(scope="class")
    def other_ubms(self, pipeline, tmp_path_factory):
        root = tmp_path_factory.mktemp("other_ubms")
        for name, flags in {"seed1": ["--seed", "1", "--ubm-components", "8"], "four": ["--ubm-components", "4"]}.items():
            assert main(["train-ubm", "--features", str(pipeline / "feats"), "--out", str(root / f"{name}.json"), *flags]) == 0
        return root

    @pytest.mark.parametrize("name", ["seed1", "four"])
    def test_model_of_another_ubm_refused_before_features(
        self, capsys, monkeypatch, small_corpus, pipeline, other_ubms, tmp_path, name
    ):
        read = count_calls(monkeypatch, store, "read_features")
        ubm = other_ubms / f"{name}.json"
        rc, out, err = run(
            capsys, "score", "--trials", small_corpus["trials"], "--models", pipeline / "models", "--ubm", ubm,
            "--features", pipeline / "feats", "--out", tmp_path / "scores.tsv",
        )
        model = pipeline / "models" / f"{small_corpus['trials'].read_text().split(chr(9))[0]}.json"
        assert rc == 2 and out == ""
        assert err.splitlines() == [
            f"error: {model}: not adapted from {ubm}: its component count, weights or variances differ"
        ]
        assert read == [] and not (tmp_path / "scores.tsv").exists()

    def test_enroll_names_both_feature_dimensions(self, capsys, small_corpus, pipeline, tmp_path):
        dim = read_features(next((pipeline / "feats").glob("*.wflt"))).dim
        ubm = tmp_path / "ubm5.json"
        store.save_model(store.gmm_document(GmmModel(np.array([0.5, 0.5]), np.zeros((2, 5)), np.ones((2, 5)))), ubm)
        rc, out, err = run(
            capsys, "enroll", "--manifest", small_corpus["enroll"], "--features", pipeline / "feats", "--ubm", ubm,
            "--out", tmp_path / "models",
        )
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: speaker spk0: feature dimension {dim} differs from model dimension 5"]


class TestNFftRule:
    """Scale and filterbank documents need an n_fft that is a power of two no larger than 2**16."""

    MESSAGE = "n_fft must be a power of two <= 65536, got {}"

    @pytest.mark.parametrize("n_fft", [640, 2**17, 2**70])
    @pytest.mark.parametrize("shape", ["tri", "pca"])
    def test_scale_document(self, capsys, monkeypatch, small_corpus, tmp_path, shape, n_fft):
        bad = tmp_path / "scale.json"
        store.save_model(store.scale_document(mel_warping_scale(8000.0), 16000, n_fft), bad)
        loaded = count_calls(monkeypatch, store, "load_wav")
        rc, out, err = run(
            capsys, "learn-filterbank", "--manifest", small_corpus["manifest"], "--scale-doc", bad,
            "--shape", shape, "--out", tmp_path / "fb.json",
        )
        assert rc == 2 and out == "" and loaded == []
        assert err.splitlines() == [f"error: {bad}: {self.MESSAGE.format(n_fft)}"]
        assert not (tmp_path / "fb.json").exists()

    def test_scale_beyond_its_nyquist_frequency(self, capsys, tmp_path):
        # A last knot of 1e308 Hz put boundary bins beyond the int64 range (a RuntimeWarning on the cast).
        warping = mel_warping_scale(8000.0)
        warping.knots_hz[-1] = 1e308
        bad = tmp_path / "scale.json"
        store.save_model(store.scale_document(warping, 16000, 512), bad)
        rc, out, err = run(capsys, "learn-filterbank", "--scale-doc", bad, "--shape", "tri", "--out", tmp_path / "fb.json")
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: {bad}: knots_hz must end at sample_rate_hz / 2 = 8000.0, got 1e+308"]

    @pytest.mark.parametrize("n_fft", [640, 2**70])
    def test_filterbank_document(self, capsys, monkeypatch, small_corpus, tmp_path, n_fft):
        # A filterbank laid out on 640 bins, consistent but for its n_fft.
        fb = triangular_responses(place_filter_edges(mel_warping_scale(8000.0), 20, 640, 16000))
        doc = store.filterbank_document(fb)
        doc.n_fft = n_fft
        bad = tmp_path / "fb.json"
        store.save_model(doc, bad)
        loaded = count_calls(monkeypatch, store, "load_wav")
        rc, out, err = run(capsys, "extract", "--manifest", small_corpus["manifest"], "--filterbank", bad, "--out", tmp_path / "feats")
        assert rc == 2 and out == "" and loaded == []
        assert err.splitlines() == [f"error: {bad}: {self.MESSAGE.format(n_fft)}"]
        assert not (tmp_path / "feats").exists()

    @pytest.mark.parametrize("scale", ["mel", "speech"])
    def test_learn_scale_checks_derived_n_fft(self, capsys, monkeypatch, small_corpus, tmp_path, scale):
        # 5 s frames at 16 kHz are 80,000 samples: n_fft would be 2**17.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"frame_ms": 5000.0}')
        loaded = count_calls(monkeypatch, store, "load_wav")
        rc, out, err = run(
            capsys, "learn-scale", "--manifest", small_corpus["manifest"], "--scale", scale, "--config", cfg,
            "--out", tmp_path / "s.json",
        )
        assert rc == 2 and out == "" and loaded == []
        assert err.splitlines() == [f"error: frame_ms 5000.0 at 16000 Hz: {self.MESSAGE.format(2**17)}"]
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("command", ["learn-scale", "extract"])
    def test_huge_frame_length_one_bounded_line(self, capsys, small_corpus, pipeline, tmp_path, command):
        # 1e300 ms frames are 1.6e301 samples: n_fft would be 2**1001, an integer of 302 digits.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"frame_ms": 1e300}')
        argv = {
            "learn-scale": ["learn-scale", "--manifest", small_corpus["manifest"], "--scale", "speech"],
            "extract": ["extract", "--manifest", small_corpus["manifest"], "--filterbank", pipeline / "fb.json"],
        }[command]
        rc, out, err = run(capsys, *argv, "--config", cfg, "--out", tmp_path / "out")
        assert rc == 2 and out == ""
        lines = err.splitlines()
        assert lines == [f"error: frame_ms 1e+300 at 16000 Hz: {self.MESSAGE.format(str(2**1001)[:40])}... (302 characters)"]
        assert len(lines[0]) <= 200


def one_bad_utterance(root, small_corpus, name, data, utterance_id=None):
    """A manifest of three good utterances of the small corpus and a WAV file holding `data` (None: no file), third.

    The file is `name`.wav; its utterance id is `utterance_id`, or `name` when that is None.
    """
    good = load_manifest(small_corpus["manifest"]).entries[:3]
    bad = Path(root) / f"{name}.wav"
    if data is not None:
        bad.write_bytes(data)
    manifest = Path(root) / "bad_corpus.json"
    entry = ManifestEntry(name if utterance_id is None else utterance_id, bad, "spk9")
    save_manifest(CorpusManifest(good[:2] + [entry] + good[2:], 16000), manifest)
    return manifest, bad


def float_wav_bytes(samples, tmp_path):
    path = tmp_path / "float.wav"
    write_wav(path, AudioSegment(samples, 16000, "f"), fmt="float32")
    return path.read_bytes()


class TestWavInputs:
    """A bad WAV ends a command with exit 2 and one line that names the file, in a shell run."""

    @pytest.mark.parametrize(
        "command, value",
        [
            (["learn-scale", "--scale", "speech"], np.nan),
            (["learn-scale", "--scale", "speech-pitch"], np.inf),
            (["learn-filterbank", "--scale-doc", "ART/scale.json", "--shape", "wpca-norm"], np.nan),
        ],
        ids=["speech", "speech-pitch", "wpca-norm"],
    )
    def test_non_finite_float_sample(self, small_corpus, pipeline, tmp_path, command, value):
        samples = 0.1 * np.sin(np.arange(16000) / 5.0)
        samples[4321:4331] = value
        manifest, bad = one_bad_utterance(tmp_path, small_corpus, "u_nan", float_wav_bytes(samples, tmp_path))
        argv = [pipeline / a[4:] if a.startswith("ART/") else a for a in command]
        proc = python_child("-m", "warpfilt.cli", *argv, "--manifest", manifest, "--out", tmp_path / "out.json")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [f"error: utterance u_nan: {bad}: non-finite sample at index 4321"]
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("kind", ["not-riff", "non-finite"])
    def test_extract_fails_the_utterance_under_python_m(self, small_corpus, pipeline, tmp_path, kind):
        # Logged under the name warpfilt.cli, not __main__.
        samples = 0.1 * np.sin(np.arange(16000) / 5.0)
        samples[100] = -np.inf
        data, message = {
            "not-riff": (b"not audio", "not a RIFF/WAVE file"),
            "non-finite": (float_wav_bytes(samples, tmp_path), "non-finite sample at index 100"),
        }[kind]
        manifest, bad = one_bad_utterance(tmp_path, small_corpus, "u_bad", data)
        proc = python_child(
            "-m", "warpfilt.cli", "extract", "--manifest", manifest, "--filterbank", pipeline / "fb.json",
            "--out", tmp_path / "feats",
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"ERROR warpfilt.cli: utterance u_bad: {bad}: {message}",
            "ERROR warpfilt.cli: 1 of 4 utterances failed",
        ]
        assert len(proc.stdout.splitlines()) == 3

    def test_chunk_id_echoed_escaped(self, capsys, small_corpus, tmp_path):
        wav = load_manifest(small_corpus["manifest"]).entries[0].path.read_bytes()
        manifest, bad = one_bad_utterance(tmp_path, small_corpus, "u_chunk", wav + b"x\nyz" + struct.pack("<I", 1000))
        rc, out, err = run(capsys, "learn-scale", "--manifest", manifest, "--scale", "speech", "--out", tmp_path / "s.json")
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: utterance u_chunk: {bad}: truncated chunk 'x\\nyz' at byte {len(wav)}"]

    def test_zero_size_data_chunk_one_printable_line(self, capsys, small_corpus, tmp_path):
        wav = load_manifest(small_corpus["manifest"]).entries[0].path.read_bytes()
        assert wav[36:40] == b"data"
        # The samples that follow a zero-size data chunk are read as chunk headers.
        manifest, bad = one_bad_utterance(tmp_path, small_corpus, "u_zero", wav[:40] + struct.pack("<I", 0) + wav[44:])
        rc, out, err = run(capsys, "learn-scale", "--manifest", manifest, "--scale", "speech", "--out", tmp_path / "s.json")
        assert rc == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: utterance u_zero: {bad}: ")
        assert lines[0].isprintable()


class TestStartup:
    SCIPY_MODULES = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    # A BLAS-sized product after the package import, then the process's thread count.
    THREADS_AFTER_MATMUL = (
        "import os, warpfilt.cli, numpy as np; a = np.ones((2000, 300)); a @ a.T; "
        "print(len(os.listdir('/proc/self/task')))"
    )

    def _thread_count(self, **blas_env):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count threads in")
        env = {k: v for k, v in os.environ.items() if k not in self.BLAS_THREAD_VARS}
        proc = python_child("-c", self.THREADS_AFTER_MATMUL, env={**env, **blas_env})
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout.strip())

    def test_one_blas_thread_by_default(self):
        assert self._thread_count() == 1

    def test_caller_blas_thread_count_wins(self):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("needs at least 2 CPUs for a second BLAS thread")
        assert self._thread_count(OPENBLAS_NUM_THREADS="2") == 2

    def test_import_leaves_numpy_random_unloaded(self):
        proc = python_child("-c", "import sys, warpfilt.cli; print('numpy.random' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_loads_no_scipy(self):
        proc = python_child("-c", "import sys, warpfilt, warpfilt.cli; " + self.SCIPY_MODULES)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def _run_loads_no_scipy(self, runs):
        script = (
            "import json, sys; from warpfilt.cli import main; "
            "assert all(main(argv) == 0 for argv in json.loads(sys.argv[1])); " + self.SCIPY_MODULES
        )
        proc = python_child("-c", script, json.dumps(runs))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    def test_front_end_commands_load_no_scipy(self, small_corpus, tmp_path):
        m, s, fb = str(small_corpus["manifest"]), str(tmp_path / "s.json"), str(tmp_path / "fb.json")
        self._run_loads_no_scipy([
            ["learn-scale", "--manifest", m, "--out", s, "--scale", "speech-pitch"],
            ["learn-filterbank", "--manifest", m, "--scale-doc", s, "--out", fb, "--shape", "wpca-norm"],
            ["fratio", "--manifest", m, "--filterbanks", fb, fb],
            ["extract", "--manifest", m, "--filterbank", fb, "--out", str(tmp_path / "feats")],
        ])

    def test_backend_commands_load_no_scipy(self, small_corpus, pipeline, tmp_path):
        feats, ubm = str(pipeline / "feats"), str(tmp_path / "ubm.json")
        models, scores = str(tmp_path / "models"), str(tmp_path / "scores.tsv")
        self._run_loads_no_scipy([
            ["train-ubm", "--features", feats, "--out", ubm, "--ubm-components", "4", "--em-iters", "2"],
            ["enroll", "--manifest", str(small_corpus["enroll"]), "--features", feats, "--ubm", ubm, "--out", models],
            ["score", "--trials", str(small_corpus["trials"]), "--models", models, "--ubm", ubm, "--features", feats,
             "--out", scores],
            ["evaluate", "--scores", scores, "--det-out", str(tmp_path / "det.tsv")],
        ])
        assert (tmp_path / "det.tsv").exists()

def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
class TestAllocatorPolicy:
    # Minor page faults of 50 track_pitch calls on one 199 x 320 frame matrix,
    # after a warm-up call; argv[1] == "main" first runs the CLI entry point.
    PITCH_FAULTS = """
import contextlib, io, resource, sys
import numpy as np
from warpfilt import cli, sad
if sys.argv[1] == "main":
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        cli.main(["--help"])
frames = np.random.default_rng(0).normal(size=(199, 320))
sad.track_pitch(frames, 16000)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    sad.track_pitch(frames, 16000)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    HELD = 5_000  # faults when freed temporaries stay on the heap (about 0)
    RETURNED = 20_000  # glibc's default returns them to the kernel (about 76,000)

    def _faults(self, mode, **malloc_env):
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
        proc = python_child("-c", self.PITCH_FAULTS, mode, env={**env, **malloc_env})
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout.strip())

    def test_main_keeps_freed_memory(self):
        assert self._faults("main") < self.HELD

    def test_caller_malloc_setting_wins(self):
        assert self._faults("main", MALLOC_MMAP_THRESHOLD_="131072") > self.RETURNED

    def test_caller_glibc_tunable_wins(self):
        assert self._faults("main", GLIBC_TUNABLES="glibc.malloc.mmap_threshold=131072") > self.RETURNED

    def test_import_leaves_allocator_unchanged(self):
        assert self._faults("import") > self.RETURNED


class TestRunConfig:
    def test_defaults_match_paper_recipe(self):
        cfg = RunConfig()
        assert (cfg.frame_ms, cfg.hop_ms, cfg.n_filters, cfg.n_ceps) == (20.0, 10.0, 20, 19)
        assert cfg.dim == 57
        assert cfg.relevance == 14.0
        assert cfg.em_iters == 10

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n_filters": 24, "frame_sz": 10}')
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(path, {})

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n_filters": 24, "seed": 5}')
        cfg = load_config(path, {"n_filters": 30, "seed": None})
        assert cfg.n_filters == 30
        assert cfg.seed == 5

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            RunConfig(scale="bark")
        with pytest.raises(ValueError):
            RunConfig(subsample_fraction=0.0)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n_filters": "20"}', "field 'n_filters' must be int, got str"),
            ('{"em_iters": true}', "field 'em_iters' must be int, got bool"),
            ('{"preemph": "0.97"}', "field 'preemph' must be float, got str"),
            ('{"rasta_enabled": 1}', "field 'rasta_enabled' must be bool, got int"),
            ('{"scale": null}', "field 'scale' must be str, got NoneType"),
            ('{"jobs": 2.0}', "field 'jobs' must be int, got float"),
        ],
    )
    def test_file_value_types_checked(self, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_config(path, {})
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "command, message",
        [
            (["train-ubm", "--features", "feats", "--em-iters", "0"], "em_iters must be >= 1, got 0"),
            (["train-ubm", "--features", "feats", "--ubm-components", "0"], "ubm_components must be >= 1, got 0"),
            (["train-ubm", "--features", "feats", "--ubm-components", "-3"], "ubm_components must be >= 1, got -3"),
            (["extract", "--manifest", "manifest", "--filterbank", "fb.json", "--jobs", "0"], "jobs must be >= 1, got 0"),
            (["extract", "--manifest", "manifest", "--filterbank", "fb.json", "--jobs", "-2"], "jobs must be >= 1, got -2"),
        ],
    )
    def test_out_of_range_exits_2_with_one_line(self, small_corpus, pipeline, tmp_path, command, message):
        paths = {"feats": pipeline / "feats", "fb.json": pipeline / "fb.json", "manifest": small_corpus["manifest"]}
        command = [paths.get(a, a) for a in command]
        proc = python_child("-m", "warpfilt.cli", *command, "--out", tmp_path / "out")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()

    def test_int_accepted_for_float_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"frame_ms": 25, "relevance": 16}')
        cfg = load_config(path, {})
        assert (cfg.frame_ms, cfg.relevance) == (25, 16)

    @pytest.mark.parametrize(
        "command, text",
        [
            (["learn-filterbank", "--scale-doc", "scale.json", "--shape", "tri"], '{"n_filters": "20"}'),
            (["train-ubm", "--features", "feats", "--ubm-components", "2"], '{"em_iters": true}'),
        ],
    )
    def test_mistyped_config_exits_2_with_one_line(self, pipeline, tmp_path, command, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        command = [str(pipeline / a) if a in ("scale.json", "feats") else a for a in command]
        proc = python_child("-m", "warpfilt.cli", *command, "--out", tmp_path / "out.json", "--config", path)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: field '")

    @pytest.mark.parametrize("text", ["5", "null", "true", "[]", '"abc"'])
    def test_config_not_an_object_exits_2_with_one_line(self, capsys, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        rc, _, err = run(capsys, "evaluate", "--scores", write_score_file(tmp_path), "--config", path)
        assert rc == 2
        assert err.splitlines() == [f"error: {path}: config must be a JSON object"]

    SPAN = "{} spans {} samples; need a finite count that rounds to at least 1"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"frame_ms": 0.0}', "frame_ms must be positive and finite, got 0.0"),
            ('{"frame_ms": -20}', "frame_ms must be positive and finite, got -20"),
            ('{"frame_ms": Infinity}', "frame_ms must be positive and finite, got inf"),
            ('{"hop_ms": 30.0}', "hop_ms must lie in (0, frame_ms 20.0], got 30.0"),
            ('{"hop_ms": 0}', "hop_ms must lie in (0, frame_ms 20.0], got 0"),
            ('{"preemph": 1.5}', "preemph must lie in [0, 1), got 1.5"),
            ('{"preemph": 1}', "preemph must lie in [0, 1), got 1"),
            ('{"preemph": -0.1}', "preemph must lie in [0, 1), got -0.1"),
            ('{"n_ceps": -3}', "n_ceps must be >= 1, got -3"),
            ('{"n_ceps": 0}', "n_ceps must be >= 1, got 0"),
            ('{"frame_ms": 1e305}', "frame_ms 1e+305 at 16000 Hz: " + SPAN.format("a frame", "inf")),
            ('{"hop_ms": 1e-300}', "hop_ms 1e-300 at 16000 Hz: " + SPAN.format("a hop", "1.6e-299")),
            ('{"pitch_f_min_hz": 500}', "pitch_f_min_hz must lie in (0, pitch_f_max_hz 400.0), got 500"),
        ],
    )
    def test_front_end_range_exits_2_before_audio(self, capsys, monkeypatch, small_corpus, pipeline, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        loaded = count_calls(monkeypatch, store, "load_wav")
        rc, out, err = run(
            capsys, "extract", "--manifest", small_corpus["manifest"], "--filterbank", pipeline / "fb.json",
            "--out", tmp_path / "feats", "--config", path,
        )
        assert rc == 2
        assert err.splitlines() == [f"error: {message}"]
        assert out == "" and loaded == [] and not (tmp_path / "feats").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"frame_ms": 1e305}', "frame_ms 1e+305 at 16000 Hz: " + SPAN.format("a frame", "inf")),
            ('{"frame_ms": 0.01, "hop_ms": 0.01}', "frame_ms 0.01 at 16000 Hz: " + SPAN.format("a frame", "0.16")),
            ('{"pitch_f_min_hz": 1e-320}', "pitch_f_min_hz 1e-320 at 16000 Hz: " + SPAN.format("the longest pitch period", "inf")),
            ('{"pitch_f_min_hz": 500}', "pitch_f_min_hz must lie in (0, pitch_f_max_hz 400.0), got 500"),
            ('{"pitch_f_max_hz": NaN}', "pitch_f_min_hz must lie in (0, pitch_f_max_hz nan), got 50.0"),
        ],
    )
    def test_sample_counts_and_pitch_band_exit_2_before_audio(self, capsys, monkeypatch, small_corpus, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        loaded = count_calls(monkeypatch, store, "load_wav")
        rc, out, err = run(
            capsys, "learn-scale", "--manifest", small_corpus["manifest"], "--scale", "speech-pitch",
            "--out", tmp_path / "s.json", "--config", path,
        )
        assert rc == 2
        assert err.splitlines() == [f"error: {message}"]
        assert out == "" and loaded == [] and not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize(
        "text, frame_len, band, lags",
        [
            ('{"frame_ms": 4, "hop_ms": 1}', 64, "50.0 to pitch_f_max_hz 400.0", (40, 16)),
            ('{"frame_ms": 3, "hop_ms": 1}', 48, "50.0 to pitch_f_max_hz 400.0", (40, 0)),
            ('{"frame_ms": 5, "hop_ms": 1}', 80, "50.0 to pitch_f_max_hz 400.0", (40, 32)),
            ('{"pitch_f_min_hz": 50, "pitch_f_max_hz": 55}', 320, "50 to pitch_f_max_hz 55", (291, 272)),
            ('{"pitch_f_min_hz": 100.05, "pitch_f_max_hz": 100.1}', 320, "100.05 to pitch_f_max_hz 100.1", (160, 159)),
        ],
        ids=["frame-4ms", "frame-3ms", "frame-5ms", "band-50-55", "band-100.05-100.1"],
    )
    def test_empty_pitch_lag_range_exits_2_before_audio(self, capsys, monkeypatch, small_corpus, tmp_path, text, frame_len, band, lags):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        frame_ms = json.loads(text).get("frame_ms", 20.0)
        loaded = count_calls(monkeypatch, store, "load_wav")
        rc, out, err = run(
            capsys, "learn-scale", "--manifest", small_corpus["manifest"], "--scale", "speech-pitch",
            "--out", tmp_path / "s.json", "--config", path,
        )
        assert rc == 2
        assert err.splitlines() == [
            f"error: frame_ms {frame_ms!r} at 16000 Hz: the pitch band pitch_f_min_hz {band} leaves no lag to search "
            f"in a frame of {frame_len} samples: lag_min {lags[0]} > lag_max {lags[1]}"
        ]
        assert out == "" and loaded == [] and not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("scale", ["mel", "speech"])
    def test_pitch_lag_range_checked_only_for_speech_pitch(self, capsys, small_corpus, tmp_path, scale):
        path = tmp_path / "cfg.json"
        path.write_text('{"pitch_f_min_hz": 50, "pitch_f_max_hz": 55}')
        rc, out, err = run(
            capsys, "learn-scale", "--manifest", small_corpus["manifest"], "--scale", scale,
            "--out", tmp_path / "s.json", "--config", path,
        )
        assert (rc, err) == (0, "") and out

    @pytest.mark.parametrize("command", ["learn-filterbank", "extract", "fratio"])
    def test_pitch_period_checked_only_where_read(self, capsys, small_corpus, pipeline, tmp_path, command):
        # Only learn-scale reads pitch_f_min_hz; the others ignore it, as they ignore any field they do not read.
        path = tmp_path / "cfg.json"
        path.write_text('{"pitch_f_min_hz": 1e-320}')
        rest = {
            "learn-filterbank": ["--shape", "pca", "--scale-doc", pipeline / "scale.json", "--out", tmp_path / "fb.json"],
            "extract": ["--filterbank", pipeline / "fb.json", "--out", tmp_path / "feats"],
            "fratio": ["--filterbanks", pipeline / "fb.json", pipeline / "fb.json"],
        }[command]
        rc, out, err = run(capsys, command, "--manifest", small_corpus["manifest"], *rest, "--config", path)
        assert (rc, err) == (0, "") and out

    EXTREME_FLOATS = st.none() | st.sampled_from([5e-324, 1e-320, 1e-300, 1e-3, 1e300, 1e305, math.inf, math.nan]) | st.floats()

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        command=st.sampled_from(["learn-scale", "extract"]),
        values=st.fixed_dictionaries(dict.fromkeys(("frame_ms", "hop_ms", "pitch_f_min_hz", "pitch_f_max_hz"), EXTREME_FLOATS)),
    )
    def test_extreme_sample_count_and_pitch_settings(self, capsys, caplog, small_corpus, pipeline, tmp_path, command, values):
        # A value of None keeps the field's default. Under pytest, logged errors go to caplog, not stderr.
        caplog.clear()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({k: v for k, v in values.items() if v is not None}))
        rest = {
            "learn-scale": ["--scale", "speech-pitch", "--out", tmp_path / "s.json"],
            "extract": ["--filterbank", pipeline / "fb.json", "--out", tmp_path / "feats"],
        }[command]
        rc, _, err = run(capsys, command, "--manifest", small_corpus["manifest"], *rest, "--config", path, "--overwrite")
        assert rc in (0, 2)
        assert len(err.splitlines()) + sum(r.levelno >= logging.WARNING for r in caplog.records) <= 1

    def test_front_end_ranges_accept_their_bounds(self):
        cfg = RunConfig(frame_ms=25.0, hop_ms=25.0, preemph=0.0, n_ceps=1)
        assert (cfg.hop_ms, cfg.preemph, cfg.n_ceps) == (25.0, 0.0, 1)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-1"])
    def test_relevance_range_exits_2_before_ubm(self, capsys, monkeypatch, small_corpus, pipeline, tmp_path, value):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"relevance": {value}}}')
        loaded = count_calls(monkeypatch, store, "load_model")
        rc, out, err = run(
            capsys, "enroll", "--manifest", small_corpus["enroll"], "--features", pipeline / "feats",
            "--ubm", pipeline / "ubm.json", "--out", tmp_path / "models", "--config", path,
        )
        assert rc == 2
        shown = {"NaN": "nan", "Infinity": "inf", "-1": "-1"}[value]
        assert err.splitlines() == [f"error: relevance must be finite and >= 0, got {shown}"]
        assert out == "" and loaded == [] and not (tmp_path / "models").exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_voicing_threshold_range_exits_2_before_audio(self, capsys, monkeypatch, small_corpus, tmp_path, value):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"voicing_threshold": {value}}}')
        loaded = count_calls(monkeypatch, store, "load_wav")
        rc, out, err = run(
            capsys, "learn-scale", "--manifest", small_corpus["manifest"], "--scale", "speech-pitch",
            "--out", tmp_path / "s.json", "--config", path,
        )
        assert rc == 2
        shown = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}[value]
        assert err.splitlines() == [f"error: voicing_threshold must be finite, got {shown}"]
        assert out == "" and loaded == [] and not (tmp_path / "s.json").exists()

    def test_relevance_and_voicing_threshold_accept_their_bounds(self):
        cfg = RunConfig(relevance=0, voicing_threshold=-2.0)
        assert (cfg.relevance, cfg.voicing_threshold) == (0, -2.0)

    JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
        max_leaves=6,
    )

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from([None, *(f.name for f in dataclasses.fields(RunConfig))]), value=JSON_VALUES)
    def test_any_json_value_in_config(self, capsys, tmp_path, field, value):
        # field None: the value is the whole config document.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(value if field is None else {field: value}))
        rc, _, err = run(capsys, "evaluate", "--scores", write_score_file(tmp_path), "--config", path)
        assert rc in (0, 2)
        assert len(err.splitlines()) <= 1


def brief(value):
    """repr(value), or its first 40 characters and its length when it is longer."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


class TestOneStderrLine:
    """Whatever bytes an input holds, an error is one stderr line: non-printable characters are escaped."""

    NAMES = [("a\nb", "a\\nb"), ("a\tb\x1b", "a\\tb\\x1b"), ("a\u2028b", "a\\u2028b"), ("é ü", "é ü")]

    @pytest.mark.parametrize("name, shown", NAMES, ids=["newline", "tab-escape", "line-separator", "non-ascii"])
    def test_wav_path_escaped(self, capsys, small_corpus, tmp_path, name, shown):
        manifest, bad = one_bad_utterance(tmp_path, small_corpus, name, b"not audio", utterance_id="bad")
        rc, out, err = run(capsys, "learn-scale", "--manifest", manifest, "--scale", "speech", "--out", tmp_path / "s.json")
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: utterance bad: {str(bad).replace(name, shown)}: not a RIFF/WAVE file"]

    @pytest.mark.parametrize("name, shown", NAMES, ids=["newline", "tab-escape", "line-separator", "non-ascii"])
    def test_missing_wav_path_escaped(self, capsys, small_corpus, tmp_path, name, shown):
        manifest, bad = one_bad_utterance(tmp_path, small_corpus, name, None, utterance_id="bad")
        rc, out, err = run(capsys, "learn-scale", "--manifest", manifest, "--scale", "speech", "--out", tmp_path / "s.json")
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: {manifest}: missing audio file {str(bad).replace(name, shown)}"]

    def test_usage_error_argument_escaped(self, capsys, tmp_path):
        rc, out, err = run(capsys, "evaluate", "--scores", tmp_path / "x", "--zz\nq")
        assert rc == 1 and out == ""
        assert err.splitlines() == ["usage error: unrecognized arguments: --zz\\nq"]

    def test_extract_log_line_escaped(self, small_corpus, pipeline, tmp_path):
        manifest, bad = one_bad_utterance(tmp_path, small_corpus, "a\nb", b"not audio", utterance_id="bad")
        proc = python_child(
            "-m", "warpfilt.cli", "extract", "--manifest", manifest, "--filterbank", pipeline / "fb.json",
            "--out", tmp_path / "feats",
        )
        assert proc.returncode == 2
        shown = str(bad).replace("\n", "\\n")
        assert proc.stderr.splitlines() == [
            f"ERROR warpfilt.cli: utterance bad: {shown}: not a RIFF/WAVE file",
            "ERROR warpfilt.cli: 1 of 4 utterances failed",
        ]


class TestConfigValuesCapped:
    """An echoed config value longer than 40 characters is cut to its first 40 and its length."""

    NINES = 10**400 - 1
    TOO_FEW_BINS = "too few bins: n_filters {v} needs {v2}, n_fft 512 gives 257"

    @pytest.mark.parametrize(
        "command, field, value, message",
        [
            pytest.param("learn-scale", "n_ceps", -NINES, "n_ceps must be >= 1, got {v}", id="n_ceps"),
            pytest.param("extract", "n_ceps", NINES, "FB: n_ceps {v} must be <= n_filters - 1 = 19", id="n_ceps-extract"),
            pytest.param("extract", "jobs", -NINES, "jobs must be >= 1, got {v}", id="jobs"),
            pytest.param("train-ubm", "ubm_components", -NINES, "ubm_components must be >= 1, got {v}", id="ubm_components"),
            pytest.param("train-ubm", "em_iters", -NINES, "em_iters must be >= 1, got {v}", id="em_iters"),
            pytest.param("learn-scale", "n_filters", -NINES, "n_filters {v}: need at least two bands", id="n_filters-bands"),
            pytest.param("learn-scale", "n_filters", NINES, TOO_FEW_BINS, id="n_filters-learn-scale"),
            pytest.param("learn-filterbank", "n_filters", NINES, TOO_FEW_BINS, id="n_filters-learn-filterbank"),
            pytest.param("learn-scale", "hop_ms", 10**300, "hop_ms must lie in (0, frame_ms 20.0], got {v}", id="hop_ms"),
            pytest.param("learn-scale", "seed", -NINES, "seed must be >= 0, got {v}", id="seed"),
            pytest.param("learn-scale", "seed", -1, "seed must be >= 0, got -1", id="seed-short"),
            # An int beyond the float range, where a float is expected, is refused as the file is read.
            pytest.param(
                "learn-scale", "frame_ms", 10**400, "CFG: field 'frame_ms' must be float, got int {v} beyond the float range",
                id="frame_ms-beyond-float",
            ),
            pytest.param(
                "learn-scale", "voicing_threshold", -(10**400),
                "CFG: field 'voicing_threshold' must be float, got int {v} beyond the float range",
                id="voicing_threshold-beyond-float",
            ),
        ],
    )
    def test_one_bounded_line(self, capsys, monkeypatch, small_corpus, pipeline, tmp_path, command, field, value, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        argv = {
            "learn-scale": ["--manifest", small_corpus["manifest"], "--scale", "speech"],
            "learn-filterbank": ["--scale-doc", pipeline / "scale.json", "--shape", "tri"],
            "extract": ["--manifest", small_corpus["manifest"], "--filterbank", pipeline / "fb.json"],
            "train-ubm": ["--features", pipeline / "feats"],
        }[command]
        loaded = count_calls(monkeypatch, store, "load_wav")
        rc, out, err = run(capsys, command, *argv, "--config", cfg, "--out", tmp_path / "out")
        assert rc == 2 and out == "" and loaded == []
        expected = message.format(v=brief(value), v2=brief(value + 2))
        expected = expected.replace("FB", str(pipeline / "fb.json")).replace("CFG", str(cfg))
        assert err.splitlines() == [f"error: {expected}"]
        assert len(err) < 200 + len(str(pipeline))


class TestAtomicOutputs:
    """fratio --out and evaluate --det-out are written through a temporary file and a rename."""

    @pytest.mark.parametrize("command", ["fratio", "evaluate"])
    def test_failed_rename_leaves_no_output(self, capsys, monkeypatch, small_corpus, pipeline, tmp_path, command):
        out = tmp_path / "out.tsv"
        argv = {
            "fratio": ["fratio", "--manifest", small_corpus["manifest"], "--filterbanks", pipeline / "fb.json",
                       pipeline / "fb.json", "--out", out],
            "evaluate": ["evaluate", "--scores", pipeline / "scores.tsv", "--det-out", out],
        }[command]

        def refuse(src, dst):
            raise OSError(f"cannot rename to {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert err.splitlines() == [f"error: cannot rename to {out}"]
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def mutable_inputs(tmp_path_factory):
    """Every input kind the CLI reads, from a 2-speaker corpus of two 1-s utterances each; the manifest holds absolute paths."""
    root = tmp_path_factory.mktemp("mutable")
    m, enroll, trials = build_corpus(root, n_speakers=2, n_utterances=2, duration_s=1.0, n_enroll=1, seed=5)
    entries = load_manifest(m).entries
    manifest = root / "absolute.json"
    manifest.write_text(json.dumps({
        "sample_rate_hz": 16000,
        "entries": [{"utterance_id": e.utterance_id, "path": str(e.path), "speaker_id": e.speaker_id} for e in entries],
    }))
    for argv in (
        ["learn-scale", "--manifest", m, "--scale", "speech", "--out", root / "scale.json"],
        ["learn-filterbank", "--scale-doc", root / "scale.json", "--shape", "tri", "--out", root / "fb.json"],
        ["extract", "--manifest", m, "--filterbank", root / "fb.json", "--out", root / "feats"],
        ["train-ubm", "--features", root / "feats", "--ubm-components", "2", "--em-iters", "2", "--out", root / "ubm.json"],
        ["enroll", "--manifest", enroll, "--features", root / "feats", "--ubm", root / "ubm.json", "--out", root / "models"],
    ):
        assert main([str(a) for a in argv]) == 0
    return {"root": root, "manifest": manifest, "trials": trials, "entries": entries}


class TestSampleRateBound:
    """A sample rate is at most 2**32 - 1, the largest a WAV header holds; a larger one exits 2 with one short line."""

    RATE = 10**400

    def test_manifest_rate(self, capsys, mutable_inputs, tmp_path):
        obj = json.loads(mutable_inputs["manifest"].read_text())
        obj["sample_rate_hz"] = self.RATE
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(obj))
        rc, out, err = run(capsys, "learn-scale", "--manifest", bad, "--scale", "speech", "--out", tmp_path / "s.json")
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: {bad}: field 'sample_rate_hz' must be <= 4294967295, got {brief(self.RATE)}"]

    @pytest.mark.parametrize("name", ["scale.json", "fb.json"])
    def test_document_rate(self, capsys, mutable_inputs, tmp_path, name):
        # sample_rate_hz lies outside the payload, so the checksum still holds.
        obj = json.loads((mutable_inputs["root"] / name).read_text())
        obj["sample_rate_hz"] = self.RATE
        bad = tmp_path / name
        bad.write_text(json.dumps(obj))
        argv = {
            "scale.json": ["learn-filterbank", "--scale-doc", bad, "--shape", "tri"],
            "fb.json": ["extract", "--manifest", mutable_inputs["manifest"], "--filterbank", bad],
        }[name]
        rc, out, err = run(capsys, *argv, "--out", tmp_path / "out")
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: {bad}: sample_rate_hz must be <= 4294967295, got {brief(self.RATE)}"]


class TestLongValuesCapped:
    """A document kind or a config string longer than 40 characters is echoed cut to 40 and its length."""

    @pytest.mark.parametrize("name, field", [("scale.json", "scale_kind"), ("fb.json", "shape_kind")])
    def test_document_kind(self, capsys, mutable_inputs, tmp_path, name, field):
        doc = load_model(mutable_inputs["root"] / name)
        doc.payload[field] = 10**400
        bad = tmp_path / name
        store.save_model(doc, bad)  # a fresh checksum, as a hand edit would get
        argv = {
            "scale.json": ["learn-filterbank", "--scale-doc", bad, "--shape", "tri"],
            "fb.json": ["extract", "--manifest", mutable_inputs["manifest"], "--filterbank", bad],
        }[name]
        rc, out, err = run(capsys, *argv, "--out", tmp_path / "out")
        assert rc == 2 and out == ""
        kind = field.replace("_", " ")
        assert err.splitlines() == [f"error: {bad}: unknown {kind}: {brief(10**400)}"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"scale": "%s"}' % ("x" * 100), "unknown scale {v}"),
            ('{"shape": "%s"}' % ("x" * 100), "unknown shape {v}"),
            ('{"cost_preset": "%s"}' % ("x" * 100), "unknown cost preset {v}"),
            ('{"%s": 1}' % ("x" * 100), "CFG: unknown config keys {k}"),
            ('{"scale": "bark"}', "unknown scale 'bark'"),
        ],
        ids=["scale", "shape", "cost_preset", "key", "short"],
    )
    def test_config_string(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc, out, err = run(capsys, "evaluate", "--scores", write_score_file(tmp_path), "--config", cfg)
        assert rc == 2 and out == ""
        expected = message.format(v=brief("x" * 100), k=brief(["x" * 100])).replace("CFG", str(cfg))
        assert err.splitlines() == [f"error: {expected}"]


def json_paths(node, path=()):
    """The path (keys and indices) of every node of a JSON document, the root's () first."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from json_paths(child, (*path, key))


DELETE = object()


def with_node(obj, path, value):
    """A copy of obj with the node at path replaced by value, or removed when value is DELETE (the root: DELETE)."""
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


class TestMutatedInputs:
    """Any one mutated field of a JSON input or byte of a binary input: exit 0 and no stderr, or exit 2 and one line."""

    EDGE_VALUES = st.sampled_from([0, -1, 1, 2, 3.5, -0.0, 1e-320, 1e308, 2**63, 10**400, -(10**400), math.nan, math.inf])
    # Strings stay short, so that a line over 300 characters, paths aside, is a value echoed whole.
    VALUES = st.just(DELETE) | EDGE_VALUES | st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
        max_leaves=6,
    )

    def documents(self, inputs, tmp_path, data, names):
        """Write a copy of one of the named JSON inputs with one node replaced; (path of the copy, name)."""
        name = data.draw(st.sampled_from(names))
        source = inputs["manifest"] if name == "manifest" else inputs["root"] / name
        obj = json.loads(source.read_text())
        paths = list(json_paths(obj))
        # Half the draws pick a header field or an entry: a payload holds thousands of numbers.
        path = data.draw(st.sampled_from([p for p in paths if len(p) <= 2]) | st.sampled_from(paths))
        obj = with_node(obj, path, data.draw(self.VALUES))
        if name != "manifest" and data.draw(st.booleans()):  # a fresh checksum, as a hand edit would get
            if isinstance(obj, dict) and isinstance(obj.get("payload"), dict) and isinstance(obj.get("provenance"), dict):
                obj["provenance"]["payload_sha256"] = store._payload_digest(obj["payload"])
        bad = tmp_path / Path(name).name
        bad.write_text("" if obj is DELETE else json.dumps(obj))
        return bad, name

    def binary(self, source, target, data):
        """Write source to target with one byte replaced, or cut short at that byte."""
        raw = bytearray(source.read_bytes())
        at = data.draw(st.integers(0, 63) | st.integers(0, len(raw) - 1))
        value = data.draw(st.none() | st.integers(0, 255))
        target.write_bytes(raw[:at] if value is None else raw[:at] + bytes([value]) + raw[at + 1 :])

    def command(self, inputs, tmp_path, target, data):
        root, manifest, out = inputs["root"], inputs["manifest"], tmp_path / "out"
        if target == "manifest":
            bad, _ = self.documents(inputs, tmp_path, data, ["manifest"])
            return ["learn-scale", "--manifest", bad, "--scale", "speech", "--out", out]
        if target == "wav":
            entry = inputs["entries"][1]
            bad = tmp_path / "bad.wav"
            self.binary(entry.path, bad, data)
            obj = json.loads(manifest.read_text())
            obj["entries"][1]["path"] = str(bad)
            (tmp_path / "m.json").write_text(json.dumps(obj))
            return ["learn-scale", "--manifest", tmp_path / "m.json", "--scale", "speech", "--out", out]
        if target == "scale":
            bad, _ = self.documents(inputs, tmp_path, data, ["scale.json"])
            return ["learn-filterbank", "--scale-doc", bad, "--shape", "tri", "--out", out]
        if target == "filterbank":
            bad, _ = self.documents(inputs, tmp_path, data, ["fb.json"])
            return ["fratio", "--manifest", manifest, "--filterbanks", bad, root / "fb.json", "--out", out]
        if target == "gmm":
            models = tmp_path / "models"
            shutil.copytree(root / "models", models, dirs_exist_ok=True)
            bad, name = self.documents(inputs, models, data, ["ubm.json", "models/spk0.json"])
            ubm = bad if name == "ubm.json" else root / "ubm.json"
            return ["score", "--trials", inputs["trials"], "--models", models, "--ubm", ubm, "--features", root / "feats", "--out", out]
        feats = tmp_path / "feats"
        shutil.copytree(root / "feats", feats, dirs_exist_ok=True)
        wflt = sorted(feats.iterdir())[data.draw(st.integers(0, 3))]
        self.binary(root / "feats" / wflt.name, wflt, data)
        return ["train-ubm", "--features", feats, "--ubm-components", "2", "--em-iters", "1", "--out", out]

    @pytest.mark.parametrize("target", ["manifest", "wav", "scale", "filterbank", "gmm", "features"])
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_0_or_one_line(self, capsys, caplog, mutable_inputs, tmp_path, target, data):
        # Under pytest, logged warnings and errors go to caplog, not stderr, so they count as stderr lines here.
        caplog.clear()
        argv = self.command(mutable_inputs, tmp_path, target, data)
        rc, _, err = run(capsys, *argv, "--overwrite")
        lines = err.splitlines() + [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert (rc, lines) == (0, []) or (rc == 2 and len(lines) == 1 and lines[0].startswith("error: ")), (rc, lines)
        assert lines == [] or lines[0].isprintable()
        shown = lines[0].replace(str(tmp_path), "").replace(str(mutable_inputs["root"]), "") if lines else ""
        assert len(shown) <= 300, shown


# The RunConfig fields that have a flag: a command gets one for each of these that it reads.
FLAGGED_FIELDS = {
    "scale", "shape", "n_filters", "subsample_fraction", "ubm_components",
    "em_iters", "relevance", "cost_preset", "seed", "jobs",
}
CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def subcommand_parsers():
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestReadsTable:
    """cli.READS names the fields each command reads; its flags and its documents' provenance follow it."""

    @pytest.mark.parametrize("command", ["extract", "fratio"])
    def test_unread_seed_is_usage_error(self, capsys, small_corpus, pipeline, tmp_path, command):
        rest = {
            "extract": ["--filterbank", pipeline / "fb.json", "--out", tmp_path / "feats"],
            "fratio": ["--filterbanks", pipeline / "fb.json"],
        }[command]
        rc, out, err = run(capsys, command, "--manifest", small_corpus["manifest"], *rest, "--seed", 1)
        assert rc == 1 and out == ""
        assert err.startswith("usage error: unrecognized arguments: --seed 1")
        assert not (tmp_path / "feats").exists()

    def test_config_flags_are_row_fields_with_a_flag(self):
        for command, p in subcommand_parsers().items():
            flags = {a.dest: a.option_strings for a in p._actions if a.dest in CONFIG_FIELDS}
            assert set(flags) == set(cli.READS[command]) & FLAGGED_FIELDS, command
            for name, options in flags.items():
                assert options == ["--" + name.replace("_", "-")], (command, name)
            assert {"--config", "--overwrite"} <= set(p._option_string_actions), command

    def test_provenance_records_row_without_jobs(self, pipeline):
        documents = {
            "learn-scale": [pipeline / "scale.json"],
            "learn-filterbank": [pipeline / "fb.json"],
            "train-ubm": [pipeline / "ubm.json"],
            "enroll": sorted((pipeline / "models").glob("*.json")),
        }
        for command, paths in documents.items():
            assert paths, command
            for path in paths:
                config = load_model(path).provenance["config"]
                assert set(config) == set(cli.READS[command]) - {"jobs"}, path
        # The filterbank came from a speech-pitch scale; it does not claim the default "mel".
        assert "scale" not in load_model(pipeline / "fb.json").provenance["config"]
        assert load_model(pipeline / "ubm.json").provenance["config"] == {"em_iters": 10, "seed": 0, "ubm_components": 8}
        for path in (pipeline / "models").glob("*.json"):
            assert load_model(path).provenance["config"] == {"relevance": 14.0}
        config = load_model(pipeline / "scale.json").provenance["config"]
        assert config == {name: getattr(RunConfig(scale="speech-pitch"), name) for name in config}

    @pytest.mark.parametrize(
        "argv",
        [
            ["learn-scale", "--manifest", "m", "--out", "o", "--scale", "speech-pitch", "--jobs", "2"],
            ["learn-filterbank", "--manifest", "m", "--scale-doc", "s", "--out", "o", "--shape", "wpca-norm", "--jobs", "2"],
            ["learn-filterbank", "--manifest", "m", "--scale-doc", "s", "--out", "o", "--shape", "tri", "--jobs", "2"],
            ["extract", "--manifest", "m", "--filterbank", "f", "--out", "o", "--jobs", "2"],
            ["fratio", "--manifest", "m", "--filterbanks", "a", "b", "--out", "o", "--jobs", "2"],
            ["train-ubm", "--features", "f", "--out", "o", "--ubm-components", "16"],
            ["score", "--trials", "t", "--models", "m", "--ubm", "u", "--features", "f", "--out", "o", "--jobs", "2"],
        ],
    )
    def test_benchmark_flags_accepted(self, argv):
        args = cli._build_parser().parse_args(argv)
        assert args.command == argv[0]

    def test_readme_config_table_matches_reads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config file", 1)[1]
        rows = {}
        for line in section.splitlines():
            cells = [cell.strip() for cell in line.split("|")]
            if line.startswith("| `") and len(cells) == 4:
                command = cells[1].strip("`")
                rows[command] = {name for name in re.findall(r"`([a-z_]+)`", cells[2]) if name in CONFIG_FIELDS}
        assert rows == {command: set(fields) for command, fields in cli.READS.items()}


class TestKindTables:
    """scale.SCALE_KINDS and filterbank.SHAPE_KINDS map each --scale and --shape flag to the kind it names."""

    def test_each_flag_names_one_accepted_kind(self):
        layout = place_filter_edges(mel_warping_scale(8000.0), 4, 64, 16000)
        for table, build in [
            (SCALE_KINDS, lambda kind: WarpingScale([0.0, 4000.0, 8000.0], [0.0, 0.5, 1.0], kind)),
            (SHAPE_KINDS, lambda kind: Filterbank(layout, triangular_responses(layout).responses, kind)),
        ]:
            assert len(set(table.values())) == len(table)
            for kind in table.values():
                build(kind)
            for flag in set(table) - set(table.values()):  # a flag that is not itself a kind
                with pytest.raises(ValueError, match="unknown"):
                    build(flag)

    def test_flag_choices_are_table_keys(self):
        parsers = subcommand_parsers()
        for command, dest, table in [("learn-scale", "scale", SCALE_KINDS), ("learn-filterbank", "shape", SHAPE_KINDS)]:
            (action,) = [a for a in parsers[command]._actions if a.dest == dest]
            assert action.choices == sorted(table)

    def test_readme_flag_lists_are_table_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        for flag, table in [("scale", SCALE_KINDS), ("shape", SHAPE_KINDS)]:
            (listed,) = re.findall(rf"`--{flag} {{([^}}`]*)}}`", readme)
            assert listed.split("|") == list(table), flag


class TestZeroWeightUbm:
    """A UBM component of weight 0 is dead: enroll and score run without a numpy warning."""

    def test_enroll_and_score_without_warnings(self, capsys, small_corpus, pipeline, tmp_path):
        obj = json.loads((pipeline / "ubm.json").read_text())
        weights = obj["payload"]["weights"]
        rest = sum(weights[1:])
        obj["payload"]["weights"] = [0.0] + [w / rest for w in weights[1:]]
        obj["provenance"]["payload_sha256"] = store._payload_digest(obj["payload"])
        ubm = tmp_path / "ubm.json"
        ubm.write_text(json.dumps(obj))
        # RuntimeWarnings are errors under the test configuration.
        rc, out, err = run(
            capsys, "enroll", "--manifest", small_corpus["enroll"], "--features", pipeline / "feats",
            "--ubm", ubm, "--out", tmp_path / "models",
        )
        assert (rc, err) == (0, "") and out
        rc, out, err = run(
            capsys, "score", "--trials", small_corpus["trials"], "--models", tmp_path / "models", "--ubm", ubm,
            "--features", pipeline / "feats", "--out", tmp_path / "scores.tsv",
        )
        assert (rc, err) == (0, "")
        scores = read_scores(tmp_path / "scores.tsv")
        assert all(math.isfinite(t.score) for t in scores.trials)


class TestOutOfMemory:
    """An allocation beyond the address-space limit ends a command with exit 2 and one line."""

    LIMIT = 1536 << 20
    SCRIPT = (
        "import resource, sys; from warpfilt import cli; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({LIMIT}, {LIMIT})); "
        "sys.exit(cli.main(sys.argv[1:]))"
    )

    @pytest.fixture(scope="class")
    def long_frame_corpus(self, tmp_path_factory):
        # 4-s frames give n_fft 65536, which the document rule allows; 2048-ms frames give 32768.
        root = tmp_path_factory.mktemp("long_frame_corpus")
        manifest, _, _ = build_corpus(root, n_speakers=1, n_utterances=2, duration_s=6.0, n_enroll=1, seed=0)
        for suffix, frame_ms, n_fft in [("", 4000, 65536), ("_32768", 2048, 32768)]:
            cfg, mel = root / f"cfg{suffix}.json", root / f"mel{suffix}.json"
            cfg.write_text(f'{{"frame_ms": {frame_ms}, "hop_ms": 100}}')
            assert main(["learn-scale", "--manifest", str(manifest), "--out", str(mel), "--config", str(cfg)]) == 0
            assert load_model(mel).n_fft == n_fft
        return root, manifest

    @pytest.mark.parametrize("command", ["learn-scale", "learn-filterbank"])
    def test_one_line_and_exit_2(self, long_frame_corpus, tmp_path, command):
        root, manifest = long_frame_corpus
        out = tmp_path / "out.json"
        argv = {
            "learn-scale": ["learn-scale", "--scale", "speech"],
            "learn-filterbank": ["learn-filterbank", "--shape", "pca", "--scale-doc", root / "mel.json"],
        }[command]
        proc = python_child("-c", self.SCRIPT, *argv, "--manifest", manifest, "--config", root / "cfg.json", "--out", out)
        assert proc.returncode == 2, proc.stderr[-500:]
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory: Unable to allocate"), lines
        assert proc.stdout == "" and not out.exists()

    @pytest.mark.slow
    def test_pca_block_bounded_by_bytes(self, long_frame_corpus, tmp_path):
        # 80 frames of 16,385 bins: a block of 8192 rows alone would take 1 GiB of the 1.5 GiB. The
        # 40 filters' subbands are narrower than the default 20's, so their eigh calls take seconds, not tens.
        root, manifest = long_frame_corpus
        out = tmp_path / "out.json"
        proc = python_child(
            "-c", self.SCRIPT, "learn-filterbank", "--shape", "pca", "--n-filters", "40", "--scale-doc",
            root / "mel_32768.json", "--manifest", manifest, "--config", root / "cfg_32768.json", "--out", out,
        )
        assert proc.returncode == 0, proc.stderr[-500:]
        assert load_model(out).n_fft == 32768
