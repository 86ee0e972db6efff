import json
import os
import re
import stat
import struct
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from warpfilt import store
from warpfilt.backend import GmmModel, Trial, TrialScoreSet, det_curve, eer
from warpfilt.dsp import AudioSegment
from warpfilt.features import FeatureMatrix
from warpfilt.filterbank import FilterbankLayout, triangular_responses
from warpfilt.scale import mel_warping_scale
from warpfilt.store import (
    CorpusManifest,
    ManifestEntry,
    ModelDocument,
    ModelKindError,
    file_digest,
    filterbank_document,
    filterbank_from_document,
    gmm_document,
    gmm_from_document,
    load_manifest,
    load_model,
    load_wav,
    read_features,
    read_scores,
    read_trials,
    save_manifest,
    save_model,
    scale_document,
    scale_from_document,
    write_features,
    write_scores,
    write_wav,
)


def pcm16_bytes(samples, sr=16000):
    payload = np.asarray(samples, dtype="<i2").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, sr, sr * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(payload))
    return header + payload


def riff_bytes(fmt_body, payload):
    """A RIFF/WAVE file of one fmt chunk and one data chunk (padded to even length)."""
    raw = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    raw += b"data" + struct.pack("<I", len(payload)) + payload + b"\x00" * (len(payload) & 1)
    return b"RIFF" + struct.pack("<I", len(raw)) + raw


def extensible_fmt(sub_format, bits, sr=16000, size=40):
    """WAVE_FORMAT_EXTENSIBLE fmt body; the sub-format GUID starts with the format tag."""
    guid = struct.pack("<H", sub_format) + bytes.fromhex("000000001000800000aa00389b71")
    body = struct.pack("<HHIIHH", 0xFFFE, 1, sr, sr * bits // 8, bits // 8, bits)
    return (body + struct.pack("<HHI", 22, bits, 4) + guid)[:size]


PCM16_FMT = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)


class TestWav:
    def test_pcm16_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(pcm16_bytes([0, 16384, -32768]))
        seg = load_wav(path)
        assert seg.sample_rate_hz == 16000
        assert np.array_equal(seg.samples, [0.0, 0.5, -1.0])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.wav"
        path.write_bytes(pcm16_bytes([]))
        with pytest.raises(ValueError, match="empty signal"):
            load_wav(path)

    def test_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        seg = AudioSegment(rng.uniform(-1, 1, 500), 8000, "x")
        path = tmp_path / "f.wav"
        write_wav(path, seg, fmt="float32")
        back = load_wav(path)
        assert back.sample_rate_hz == 8000
        assert np.abs(back.samples - seg.samples).max() <= 1e-7

    def test_pcm16_round_trip_quantized(self, tmp_path):
        seg = AudioSegment(np.linspace(-0.9, 0.9, 100), 16000, "x")
        path = tmp_path / "q.wav"
        write_wav(path, seg)
        back = load_wav(path)
        assert np.abs(back.samples - seg.samples).max() <= 1.0 / 32768.0

    def test_stereo_rejected(self, tmp_path):
        payload = np.zeros(8, dtype="<i2").tobytes()
        raw = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        raw += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 16000, 64000, 4, 16)
        raw += b"data" + struct.pack("<I", len(payload)) + payload
        path = tmp_path / "s.wav"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="channel"):
            load_wav(path)

    def test_unsupported_codec(self, tmp_path):
        payload = np.zeros(6, dtype="<i2").tobytes()
        raw = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        raw += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 48000, 3, 24)
        raw += b"data" + struct.pack("<I", len(payload)) + payload
        path = tmp_path / "c.wav"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="unsupported codec"):
            load_wav(path)

    def test_truncated_data(self, tmp_path):
        raw = pcm16_bytes([1, 2, 3, 4])
        path = tmp_path / "t.wav"
        path.write_bytes(raw[:-4])
        with pytest.raises(ValueError, match="truncated"):
            load_wav(path)

    def test_extensible_pcm16(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(riff_bytes(extensible_fmt(1, 16, sr=8000), np.array([0, 16384, -32768], "<i2").tobytes()))
        seg = load_wav(path)
        assert seg.sample_rate_hz == 8000
        assert np.array_equal(seg.samples, [0.0, 0.5, -1.0])

    def test_extensible_float32(self, tmp_path):
        samples = np.array([0.25, -0.5, 1.0], dtype="<f4")
        path = tmp_path / "x.wav"
        path.write_bytes(riff_bytes(extensible_fmt(3, 32), samples.tobytes()))
        assert np.array_equal(load_wav(path).samples, samples.astype(np.float64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_sample(self, tmp_path, bad):
        path = tmp_path / "x.wav"
        path.write_bytes(riff_bytes(extensible_fmt(3, 32), np.array([0.25, -0.5, bad, bad], "<f4").tobytes()))
        with pytest.raises(ValueError) as info:
            load_wav(path)
        assert str(info.value) == f"{path}: non-finite sample at index 2"

    @pytest.mark.parametrize("sub_format, bits, size", [(1, 24, 40), (3, 16, 40), (2, 16, 40), (1, 16, 18)])
    def test_extensible_unsupported(self, tmp_path, sub_format, bits, size):
        path = tmp_path / "x.wav"
        path.write_bytes(riff_bytes(extensible_fmt(sub_format, bits, size=size), b"\x00" * 12))
        with pytest.raises(ValueError, match="unsupported codec"):
            load_wav(path)

    @pytest.mark.parametrize(
        "fmt_body, payload, message",
        [
            (PCM16_FMT, b"", "empty signal"),
            (PCM16_FMT, b"\x01\x00\x07", "multiple of 2"),
            (struct.pack("<HHIIHH", 1, 1, 0, 0, 2, 16), b"\x01\x00", "sample rate"),
            (extensible_fmt(3, 32), b"\x00" * 6, "multiple of 4"),
        ],
        ids=["empty", "odd-pcm16", "zero-rate", "ragged-float32"],
    )
    def test_errors_name_the_file(self, tmp_path, fmt_body, payload, message):
        path = tmp_path / "bad.wav"
        path.write_bytes(riff_bytes(fmt_body, payload))
        with pytest.raises(ValueError) as info:
            load_wav(path)
        assert str(info.value).startswith(f"{path}: ") and message in str(info.value)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "n.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(ValueError, match="RIFF"):
            load_wav(path)


class TestModelDocuments:
    def test_scale_round_trip(self, tmp_path):
        scale = mel_warping_scale(8000.0)
        doc = scale_document(scale, 16000, 512, {"config": {"q": 20}})
        save_model(doc, tmp_path / "scale.json")
        loaded = load_model(tmp_path / "scale.json", expect_kind="warping-scale")
        back = scale_from_document(loaded)
        assert np.array_equal(back.knots_hz, scale.knots_hz)
        assert np.array_equal(back.knots_warped, scale.knots_warped)
        assert back.kind == scale.kind
        assert loaded.provenance["config"] == {"q": 20}

    def test_filterbank_round_trip(self, tmp_path):
        layout = FilterbankLayout(np.array([0, 4, 8, 12, 16]), 16000, 32)
        fb = triangular_responses(layout)
        save_model(filterbank_document(fb), tmp_path / "fb.json")
        back = filterbank_from_document(load_model(tmp_path / "fb.json", expect_kind="filterbank"))
        assert np.array_equal(back.responses, fb.responses)
        assert np.array_equal(back.layout.boundary_bins, layout.boundary_bins)
        assert back.shape_kind == "triangular"

    def test_gmm_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        model = GmmModel(
            np.array([0.25, 0.75]), rng.normal(size=(2, 5)), np.abs(rng.normal(size=(2, 5))) + 0.1
        )
        save_model(gmm_document(model, 16000, 512), tmp_path / "g.json")
        back = gmm_from_document(load_model(tmp_path / "g.json", expect_kind="gmm"))
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.means, model.means)
        assert np.array_equal(back.variances, model.variances)

    def test_wrong_kind_typed_error(self, tmp_path):
        save_model(gmm_document(GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2))), 0, 0), tmp_path / "g.json")
        with pytest.raises(ModelKindError):
            load_model(tmp_path / "g.json", expect_kind="warping-scale")

    def test_checksum_mismatch(self, tmp_path):
        path = tmp_path / "s.json"
        save_model(scale_document(mel_warping_scale(4000.0), 8000, 256), path)
        text = path.read_text().replace("0.5", "0.55", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_model(path)

    @pytest.mark.parametrize("n_fft", [2**1001, "x" * 1000, "a\nb"])
    def test_n_fft_echo_is_one_short_line(self, n_fft):
        with pytest.raises(ValueError) as info:
            store.check_n_fft(n_fft)
        message = str(info.value)
        assert message.startswith(f"n_fft must be a power of two <= 65536, got {repr(n_fft)[:40]}")
        assert "\n" not in message and len(message) <= 120

    @pytest.mark.parametrize("n_fft", [0, 640, 2**17, 2**70, True, 512.0])
    @pytest.mark.parametrize("decode", [scale_from_document, filterbank_from_document])
    def test_n_fft_rule(self, decode, n_fft):
        if decode is scale_from_document:
            doc = scale_document(mel_warping_scale(8000.0), 16000, 512)
        else:
            doc = filterbank_document(triangular_responses(FilterbankLayout(np.arange(0, 257, 16), 16000, 512)))
        doc.n_fft = n_fft
        with pytest.raises(ValueError) as info:
            decode(doc)
        assert str(info.value) == f"n_fft must be a power of two <= 65536, got {n_fft!r}"

    def test_non_monotone_knots_rejected_on_load(self, tmp_path):
        doc = ModelDocument(
            "warping-scale",
            16000,
            512,
            {"scale_kind": "mel", "knots_hz": [0.0, 10.0, 5.0], "knots_warped": [0.0, 0.5, 1.0]},
        )
        path = tmp_path / "bad.json"
        save_model(doc, path)
        with pytest.raises(ValueError, match="degenerate scale"):
            scale_from_document(load_model(path))

    @pytest.mark.parametrize("nyquist", [4000.0, 1e308])
    def test_last_knot_must_be_the_nyquist_frequency(self, tmp_path, nyquist):
        doc = ModelDocument(
            "warping-scale", 16000, 512,
            {"scale_kind": "mel", "knots_hz": [0.0, 10.0, nyquist], "knots_warped": [0.0, 0.5, 1.0]},
        )
        path = tmp_path / "bad.json"
        save_model(doc, path)
        with pytest.raises(ValueError) as info:
            scale_from_document(load_model(path))
        assert str(info.value) == f"knots_hz must end at sample_rate_hz / 2 = 8000.0, got {nyquist!r}"

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown model kind"):
            save_model(ModelDocument("embedding", 0, 0, {}), tmp_path / "x.json")

    def test_unexpected_keys_rejected(self, tmp_path):
        path = tmp_path / "k.json"
        save_model(scale_document(mel_warping_scale(4000.0), 8000, 256), path)
        obj = path.read_text()
        path.write_text(obj.replace('"kind"', '"sort"', 1))
        with pytest.raises(ValueError):
            load_model(path)

    def test_provenance_digest_tracks_payload(self):
        a = scale_document(mel_warping_scale(4000.0), 8000, 256)
        b = scale_document(mel_warping_scale(3500.0), 7000, 256)
        from warpfilt.store import _payload_digest

        assert _payload_digest(a.payload) != _payload_digest(b.payload)


class TestFeatureFiles:
    def make(self, n=37, d=57):
        rng = np.random.default_rng(2)
        return FeatureMatrix(rng.normal(size=(n, d)), rng.uniform(size=n) > 0.4, "utt1")

    def test_round_trip_bit_identical(self, tmp_path):
        fm = self.make()
        path = tmp_path / "utt1.wflt"
        write_features(fm, path)
        back = read_features(path)
        assert np.array_equal(back.vectors, fm.vectors)
        assert np.array_equal(back.mask, fm.mask)
        assert back.utterance_id == "utt1"

    def test_empty_matrix(self, tmp_path):
        fm = FeatureMatrix(np.zeros((0, 57)), np.zeros(0, dtype=bool), "empty")
        path = tmp_path / "empty.wflt"
        write_features(fm, path)
        back = read_features(path)
        assert back.vectors.shape == (0, 57)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.wflt"
        fm = self.make(5, 3)
        write_features(fm, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            read_features(path)

    @pytest.mark.parametrize("value", [1e200, -1e155, np.nan])
    def test_value_with_non_finite_square_named(self, tmp_path, value):
        fm = self.make(5, 3)
        path = tmp_path / "big.wflt"
        write_features(fm, path)
        raw = bytearray(path.read_bytes())
        at = 16 + 1 + (2 * 3 + 1) * 8  # header, one mask byte, then row 2, column 1
        raw[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: feature values must have finite squares$"):
            read_features(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "trunc.wflt"
        write_features(self.make(5, 3), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="truncated"):
            read_features(path)


class TestReadJson:
    def test_value(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text('{"a": [1, 2.5, null]}')
        assert store.read_json(path) == {"a": [1, 2.5, None]}

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"a": x}', "Expecting value: line 1 column 7 (char 6)"),
            (b'{"a": "\xff"}', "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"),
            (b"[" * 200_000, "maximum recursion depth exceeded"),
        ],
        ids=["syntax", "not-utf-8", "deep"],
    )
    def test_error_names_the_file(self, tmp_path, data, message):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            store.read_json(path)
        assert str(info.value).startswith(f"{path}: {message}")
        assert "\n" not in str(info.value)


class TestTrialsAndScores:
    def test_three_line_fixture(self, tmp_path):
        path = tmp_path / "trials.tsv"
        path.write_text("a\tx\ttarget\na\ty\timpostor\nb\tx\timpostor\n")
        trials = read_trials(path)
        assert len(trials.trials) == 3
        assert trials.trials[0] == Trial("a", "x", "target")

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "trials.tsv"
        path.write_text("a\tx\ttarget\na\ty\tgenuine\n")
        with pytest.raises(ValueError, match=":2:"):
            read_trials(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "trials.tsv"
        path.write_text("a\tx\ttarget\na\tx\ttarget\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_trials(path)

    def test_scores_round_trip_eer_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        trials = [Trial("m", f"t{i}", "target", float(s)) for i, s in enumerate(rng.normal(1, 1, 50))]
        trials += [Trial("m", f"i{i}", "impostor", float(s)) for i, s in enumerate(rng.normal(-1, 1, 50))]
        scores = TrialScoreSet(trials)
        path = tmp_path / "scores.tsv"
        write_scores(scores, path)
        back = read_scores(path)
        assert [t.score for t in back.trials] == [t.score for t in scores.trials]
        assert eer(det_curve(back)) == eer(det_curve(scores))

    def test_malformed_score_value(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("a\tx\ttarget\tnot_a_number\n")
        with pytest.raises(ValueError, match=":1:"):
            read_scores(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a\tx\ttarget\n\na\tx\n", "3: malformed {what} line"),
            ("a\tx\tgenuine\n", "1: malformed {what} line"),
            ("a\tx\ttarget\nb\tx\timpostor\na\tx\timpostor\n", "3: duplicate trial ('a', 'x')"),
        ],
        ids=["field-count", "label", "duplicate"],
    )
    @pytest.mark.parametrize("what", ["trial", "score"])
    def test_trial_and_score_lines_checked_alike(self, tmp_path, text, message, what):
        path = tmp_path / "lines.tsv"
        if what == "score":
            text = "".join(f"{line}\t1.0\n" if line else "\n" for line in text.split("\n")[:-1])
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            (read_trials if what == "trial" else read_scores)(path)
        assert str(info.value) == f"{path}:{message.format(what=what)}"

    @pytest.mark.parametrize(
        "enroll_id, refused",
        [("\u00e9" * 125, False), ("\u00e9" * 125 + "a", True), ("a" * 250, False)],
        ids=["250-bytes-of-2-byte-chars", "251-bytes", "250-ascii"],
    )
    def test_id_length_counted_in_utf_8_bytes(self, tmp_path, enroll_id, refused):
        # 250 bytes plus a 5-byte suffix such as '.json' is the usual 255-byte file-name limit.
        path = tmp_path / "trials.tsv"
        path.write_text(f"{enroll_id}\tx\ttarget\n", encoding="utf-8")
        if refused:
            with pytest.raises(ValueError, match=re.escape(f"{path}:1: field 'enroll_id' must be <= 250 bytes")):
                read_trials(path)
        else:
            assert read_trials(path).trials[0].enroll_id == enroll_id

    @pytest.mark.parametrize("reader", [read_trials, read_scores])
    def test_not_utf_8_names_the_file(self, tmp_path, reader):
        path = tmp_path / "lines.tsv"
        path.write_bytes(b"a\tx\ttarget\t1.0\nb\xff\tx\timpostor\t0.0\n")
        with pytest.raises(ValueError) as info:
            reader(path)
        assert str(info.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")


class TestManifest:
    def test_round_trip(self, tmp_path):
        wav = tmp_path / "u1.wav"
        write_wav(wav, AudioSegment(np.zeros(10) + 0.1, 16000, "u1"))
        manifest = CorpusManifest([ManifestEntry("u1", wav, "spk0")], 16000)
        path = tmp_path / "m.json"
        save_manifest(manifest, path)
        back = load_manifest(path)
        assert back.sample_rate_hz == 16000
        assert back.entries[0].utterance_id == "u1"
        assert back.entries[0].speaker_id == "spk0"
        assert back.speakers() == {"spk0": back.entries}

    def test_duplicate_id(self, tmp_path):
        wav = tmp_path / "u1.wav"
        write_wav(wav, AudioSegment(np.zeros(10) + 0.1, 16000, "u1"))
        manifest = CorpusManifest(
            [ManifestEntry("u1", wav), ManifestEntry("u1", wav)], 16000
        )
        path = tmp_path / "m.json"
        save_manifest(manifest, path)
        with pytest.raises(ValueError, match="duplicate"):
            load_manifest(path)

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        save_manifest(CorpusManifest([], 16000), path)
        with pytest.raises(ValueError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path}: no utterances"

    def test_missing_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"sample_rate_hz": 16000, "entries": [{"utterance_id": "u", "path": "gone.wav"}]}')
        with pytest.raises(ValueError, match="missing audio file"):
            load_manifest(path)

    @pytest.mark.parametrize("field", ["utterance_id", "path"])
    def test_entry_missing_field_named(self, tmp_path, field):
        entry = {"utterance_id": "u", "path": "u.wav"}
        del entry[field]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"sample_rate_hz": 16000, "entries": [entry]}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: entry 0 lacks '{field}'")):
            load_manifest(path)

    def write_mutated(self, tmp_path, field, value):
        """A one-entry manifest over an existing WAV with `field` set to `value`; "entry" is the whole entry."""
        wav = tmp_path / "u.wav"
        if not wav.exists():
            write_wav(wav, AudioSegment(np.zeros(10) + 0.1, 16000, "u"))
        obj = {"sample_rate_hz": 16000, "entries": [{"utterance_id": "u", "path": "u.wav", "speaker_id": "s"}]}
        if field in obj:
            obj[field] = value
        elif field == "entry":
            obj["entries"][0] = value
        else:
            obj["entries"][0][field] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        return path

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("entries", 5, "field 'entries' must be a list"),
            ("entries", {"u": "u.wav"}, "field 'entries' must be a list"),
            ("sample_rate_hz", None, "field 'sample_rate_hz' must be a positive integer"),
            ("sample_rate_hz", 16000.7, "field 'sample_rate_hz' must be a positive integer"),
            ("sample_rate_hz", 16000.0, "field 'sample_rate_hz' must be a positive integer"),
            ("sample_rate_hz", -1, "field 'sample_rate_hz' must be a positive integer"),
            ("sample_rate_hz", 0, "field 'sample_rate_hz' must be a positive integer"),
            ("sample_rate_hz", True, "field 'sample_rate_hz' must be a positive integer"),
            ("sample_rate_hz", "16000", "field 'sample_rate_hz' must be a positive integer"),
            ("entry", 5, "entry 0 must be an object"),
            ("path", 7, "entry 0 field 'path' must be a non-empty string"),
            ("path", "", "entry 0 field 'path' must be a non-empty string"),
            ("path", ".", "missing audio file"),
            ("utterance_id", ["u"], "entry 0 field 'utterance_id' must be a non-empty string"),
            ("utterance_id", 3, "entry 0 field 'utterance_id' must be a non-empty string"),
            ("speaker_id", ["s"], "entry 0 field 'speaker_id' must be a non-empty string"),
            ("speaker_id", 2, "entry 0 field 'speaker_id' must be a non-empty string"),
        ],
    )
    def test_malformed_field_named(self, tmp_path, field, value, message):
        path = self.write_mutated(tmp_path, field, value)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_manifest(path)

    @pytest.mark.parametrize("field", ["utterance_id", "speaker_id"])
    def test_id_too_long_for_a_file_name(self, tmp_path, field):
        path = self.write_mutated(tmp_path, field, "s" * 251)
        with pytest.raises(ValueError) as info:
            load_manifest(path)
        assert str(info.value) == (
            f"{path}: entry 0 field {field!r} must be <= 250 bytes, got '{'s' * 39}... (253 characters)"
        )

    def test_null_speaker_id_is_absent(self, tmp_path):
        assert load_manifest(self.write_mutated(tmp_path, "speaker_id", None)).speakers() == {}

    JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
        max_leaves=6,
    )

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        field=st.sampled_from(["sample_rate_hz", "entries", "entry", "utterance_id", "path", "speaker_id"]),
        value=JSON_VALUES,
    )
    def test_any_json_value_in_any_field(self, tmp_path, field, value):
        path = self.write_mutated(tmp_path, field, value)
        try:
            manifest = load_manifest(path)
        except ValueError:
            return
        assert type(manifest.sample_rate_hz) is int and manifest.sample_rate_hz > 0
        for entry in manifest.entries:
            assert isinstance(entry.utterance_id, str) and entry.utterance_id
            assert entry.path.is_file()
            assert entry.speaker_id is None or (isinstance(entry.speaker_id, str) and entry.speaker_id)
        manifest.speakers()

    def test_file_digest_changes(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("one")
        b.write_text("two")
        assert file_digest(a) != file_digest(b)

    def test_round_trip_from_relative_cwd_paths(self, tmp_path, monkeypatch):
        # entries built from a cwd-relative root must still resolve after saving
        monkeypatch.chdir(tmp_path)
        root = Path("corpus")
        (root / "wav").mkdir(parents=True)
        write_wav(root / "wav" / "u1.wav", AudioSegment(np.zeros(10) + 0.1, 16000, "u1"))
        manifest = CorpusManifest([ManifestEntry("u1", root / "wav" / "u1.wav")], 16000)
        save_manifest(manifest, root / "m.json")
        back = load_manifest(root / "m.json")
        assert back.entries[0].path.exists()
        assert load_wav(back.entries[0].path).sample_rate_hz == 16000


class TestAtomicWrite:
    def test_failed_write_leaves_no_temporary_and_keeps_target(self, tmp_path, monkeypatch):
        target = tmp_path / "model.json"
        target.write_bytes(b"old contents\n")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            store._atomic_write(target, b"new contents\n")
        assert target.read_bytes() == b"old contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    def test_stale_fixed_name_temporary_is_not_used(self, tmp_path):
        target = tmp_path / "model.json"
        stale = tmp_path / "model.json.tmp"
        stale.write_bytes(b"another writer's half-written file")
        store._atomic_write(target, b"contents\n")
        assert target.read_bytes() == b"contents\n"
        assert stale.read_bytes() == b"another writer's half-written file"

    def test_permissions_follow_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            store._atomic_write(tmp_path / "a.bin", b"x")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "a.bin").stat().st_mode) == 0o644

    def test_concurrent_writers_to_one_path(self, tmp_path):
        target = tmp_path / "model.json"
        payloads = [f"writer {i}\n".encode() * 2000 for i in range(6)]
        errors = []

        def writer(data):
            try:
                for _ in range(40):
                    store._atomic_write(target, data)
            except OSError as err:
                errors.append(err)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert target.read_bytes() in payloads
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]
